"""The process model (``struct task_struct`` equivalent).

Carries everything the firewall's context modules read: credentials,
the SELinux subject label, the mapped binary and user stack, the launch
environment (argv/envp — used by the OS-distributor consistency analysis
of §6.3.2), and the per-task firewall extensions the paper adds to
``task_struct``: the ``STATE`` dictionary and the rule-traversal state
that makes the engine reentrant without disabling interrupts (§5.1).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro import errors
from repro.firewall.procstate import ProcState
from repro.proc.signals import SignalState
from repro.proc.stack import BinaryImage, UserStack

#: Soft cap on per-process descriptors, like RLIMIT_NOFILE.
MAX_FDS = 1024


class Credentials:
    """DAC credentials, with real/effective split for setuid semantics."""

    __slots__ = ("uid", "euid", "gid", "egid")

    def __init__(self, uid=0, gid=0, euid=None, egid=None):
        self.uid = uid
        self.gid = gid
        self.euid = uid if euid is None else euid
        self.egid = gid if egid is None else egid

    @property
    def is_setuid(self):
        """True when effective and real identity differ (Figure 1b line 1)."""
        return self.uid != self.euid or self.gid != self.egid

    def copy(self):
        return Credentials(self.uid, self.gid, self.euid, self.egid)

    def __repr__(self):  # pragma: no cover - debugging aid
        return "<Credentials uid={} euid={} gid={} egid={}>".format(self.uid, self.euid, self.gid, self.egid)


class Process:
    """A simulated process."""

    def __init__(
        self,
        pid,
        comm,
        creds=None,
        label="unconfined_t",
        binary=None,
        cwd=None,
        env=None,
        argv=None,
        ppid=0,
    ):
        self.pid = pid
        self.ppid = ppid
        self.comm = comm
        self.creds = creds or Credentials()
        #: SELinux subject label (process type, e.g. ``httpd_t``).
        self.label = label
        self.binary = binary  # type: Optional[BinaryImage]
        #: All images mapped into the process (binary + libraries).
        self.images = [binary] if binary else []  # type: List[BinaryImage]
        self.stack = UserStack()
        self.signals = SignalState()
        self.cwd = cwd  # directory inode
        #: Script-level backtrace for interpreted programs (see
        #: :mod:`repro.proc.interp`); None for native binaries.
        self.script_stack = None
        self.env = dict(env or {})
        self.argv = list(argv or [comm])
        self.fds = {}  # type: Dict[int, object]
        self._next_fd = 3  # 0-2 reserved for std streams
        self.alive = True
        self.exit_code = None

        # ---- Process Firewall task_struct extensions (paper §5.1) ----
        #: The fork-shareable state bundle: the STATE dictionary, the
        #: negative-decision cache, and the per-syscall context cache,
        #: all behind the copy-on-write substrate
        #: (:class:`repro.firewall.procstate.ProcState`).  ``fork``
        #: shares it structurally; ``execve`` resets it.
        self.pf = ProcState()
        #: Per-process rule-traversal state (chain-jump stack), so the
        #: engine is reentrant and the task can be scheduled out mid-walk.
        #: Always empty at syscall boundaries, hence not fork-inherited.
        self.pf_traversal = []

    # ------------------------------------------------------------------
    # descriptor table
    # ------------------------------------------------------------------

    def install_fd(self, open_file):
        if len(self.fds) >= MAX_FDS:
            raise errors.EMFILE("fd table full")
        fd = self._next_fd
        self._next_fd += 1
        self.fds[fd] = open_file
        return fd

    def get_fd(self, fd):
        try:
            return self.fds[fd]
        except KeyError:
            raise errors.EBADF("fd {}".format(fd))

    def drop_fd(self, fd):
        try:
            return self.fds.pop(fd)
        except KeyError:
            raise errors.EBADF("fd {}".format(fd))

    # ------------------------------------------------------------------
    # images and stacks
    # ------------------------------------------------------------------

    def map_image(self, image):
        """Map a shared object into the address space."""
        self.images.append(image)
        return image

    def image_for_pc(self, pc):
        """Find the image containing an absolute PC, or ``None``."""
        for image in self.images:
            if image is not None and image.contains(pc):
                return image
        return None

    def call(self, image, offset, function=""):
        """Push a frame for a call site at ``image`` + ``offset``."""
        return self.stack.push(image.abs(offset), image=image, function=function)

    def ret(self):
        return self.stack.pop()

    def __repr__(self):  # pragma: no cover - debugging aid
        return "<Process pid={} comm={} label={}>".format(self.pid, self.comm, self.label)
