"""The simulated kernel: composition root for the whole substrate.

A :class:`Kernel` owns the filesystem, the process table, the security
modules, and (optionally) a Process Firewall.  Mediation order follows
the paper's Figure 2 exactly:

    syscall -> DAC -> LSM modules (SELinux) -> Process Firewall -> resource

The firewall is attached with :meth:`Kernel.attach_firewall`; when no
firewall is attached the kernel behaves like a stock system (the
"Without PF" / DISABLED baselines of Tables 6-7).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional

from repro import errors
from repro.clock import LogicalClock
from repro.proc.process import Credentials, Process
from repro.proc.stack import BinaryImage
from repro.security.adversary import AdversaryModel
from repro.security.dac import dac_check, permits
from repro.security.lsm import OP_NAMES, LSMDispatcher
from repro.security.selinux import SELinuxModule
from repro.syscalls.api import SyscallAPI
from repro.vfs.dcache import Dcache
from repro.vfs.filesystem import FileSystem
from repro.vfs.inode import FileType
from repro.vfs.namei import PathWalker, split_path


class AuditRecord:
    """One entry of the kernel audit trail."""

    __slots__ = ("time", "pid", "comm", "op", "path", "decision", "detail")

    def __init__(self, time, pid, comm, op, path, decision, detail=""):
        self.time = time
        self.pid = pid
        self.comm = comm
        self.op = op
        self.path = path
        self.decision = decision  # "allow" | "deny" | "pf_drop"
        self.detail = detail

    def __repr__(self):  # pragma: no cover - debugging aid
        return "<Audit t={} pid={} {} {} -> {}>".format(self.time, self.pid, self.op, self.path, self.decision)


class AuditTrail:
    """A bounded audit store with a list-style surface.

    Backed by :class:`collections.deque` with ``maxlen``, so hitting the
    bound discards the oldest record in O(1) instead of the old
    "delete the oldest half" O(n) compaction.  Consumers that iterate,
    index, slice, or compare against plain lists keep working.
    """

    __slots__ = ("_dq",)

    def __init__(self, limit):
        self._dq = deque(maxlen=limit)

    @property
    def limit(self):
        """The bound on retained records."""
        return self._dq.maxlen

    def set_limit(self, limit):
        """Rebind the bound, keeping the newest ``limit`` records."""
        self._dq = deque(self._dq, maxlen=limit)

    def append(self, record):
        """Add a record, discarding the oldest at the bound."""
        self._dq.append(record)

    def clear(self):
        """Drop every record."""
        self._dq.clear()

    def __len__(self):
        return len(self._dq)

    def __iter__(self):
        return iter(self._dq)

    def __bool__(self):
        return bool(self._dq)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self._dq)[index]
        return self._dq[index]

    def __eq__(self, other):
        if isinstance(other, AuditTrail):
            return list(self._dq) == list(other._dq)
        if isinstance(other, (list, tuple, deque)):
            return list(self._dq) == list(other)
        return NotImplemented

    def __ne__(self, other):
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __repr__(self):  # pragma: no cover - debugging aid
        return "<AuditTrail {}/{} records>".format(len(self._dq), self._dq.maxlen)


class KernelStats:
    """Counters used by the benchmark harness."""

    def __init__(self):
        self.syscalls = {}  # type: Dict[str, int]
        self.mediations = 0
        self.pf_invocations = 0
        self.pf_drops = 0

    def count_syscall(self, name):
        """Count one issued syscall under its name."""
        self.syscalls[name] = self.syscalls.get(name, 0) + 1

    @property
    def total_syscalls(self):
        """Syscalls issued, over every name."""
        return sum(self.syscalls.values())


class WalkGrant:
    """One walk segment's authorization of its ``LOOKUP`` steps.

    Made by :meth:`Kernel.authorize_walk`.  :meth:`admits` runs DAC
    search permission and the SELinux ``dir search`` check live for
    each directory, as :meth:`Kernel.mediate` would, and only when
    both pass books the counts that mediation would have made; the
    firewall's part comes from its
    :class:`~repro.firewall.engine.WalkAnswer`.
    """

    __slots__ = ("stats", "lsm", "creds", "policy", "subject", "answer")

    def __init__(self, kernel, proc, policy, answer):
        self.stats = kernel.stats
        self.lsm = kernel.lsm
        self.creds = proc.creds
        #: The enforcing SELinux policy, or ``None`` when no MAC runs.
        self.policy = policy
        self.subject = proc.label
        self.answer = answer

    def admits(self, directory):
        """Authorize a search of ``directory``; ``False`` (nothing
        counted) hands the step to :meth:`Kernel.mediate`."""
        creds = self.creds
        if not permits(directory, creds.euid, creds.egid, "x"):
            return False
        policy = self.policy
        if policy is not None:
            label = directory.label
            if label is not None and not policy.allows(self.subject, label, "dir", "search"):
                return False
        self.stats.mediations += 1
        self.lsm.invocations += 1
        self.answer.accept()
        return True


class Kernel:
    """The simulated operating system."""

    def __init__(self, policy=None, enforcing_mac=None):
        self.clock = LogicalClock()
        self.fs = FileSystem(device=8, clock=self.clock)
        self.lsm = LSMDispatcher()
        self.adversaries = AdversaryModel(policy=policy)
        #: Fast-path name resolution (see :mod:`repro.vfs.dcache`).
        #: On by default; flip ``kernel.dcache.enabled`` (or pass
        #: ``Session(dcache=False)``) to force every walk cold.
        self.dcache = self.fs.attach_dcache(Dcache(self.fs, self.adversaries))
        self.walker = PathWalker(self.fs, dcache=self.dcache)
        self.selinux = None  # type: Optional[SELinuxModule]
        if policy is not None:
            if enforcing_mac is not None:
                policy.enforcing = enforcing_mac
            self.selinux = SELinuxModule(policy)
            self.lsm.register(self.selinux)
        self.firewall = None  # attached later; kept out of LSM list so
        # ordering (authorize first, PF second) is structural.
        self.processes = {}  # type: Dict[int, Process]
        self._next_pid = 1
        #: Audit can be disabled (benchmarks) or bounded; the deque-backed
        #: trail drops the oldest record once ``audit_limit`` is reached.
        self.audit = AuditTrail(200000)
        self.audit_enabled = True
        self.stats = KernelStats()
        self.sys = SyscallAPI(self)
        #: Monotonic per-kernel syscall sequence; each in-flight syscall
        #: gets one, and firewall context caching keys off it.
        self._syscall_seq = 0

    @property
    def audit_limit(self):
        """Bound on retained audit records (settable; rebuilds the deque)."""
        return self.audit.limit

    @audit_limit.setter
    def audit_limit(self, limit):
        self.audit.set_limit(limit)

    # ------------------------------------------------------------------
    # process management
    # ------------------------------------------------------------------

    def spawn(
        self,
        comm,
        uid=0,
        gid=None,
        label="unconfined_t",
        binary_path=None,
        cwd="/",
        env=None,
        argv=None,
        interpreter=None,
    ):
        """Create a process, registering its UID with the adversary model."""
        gid = uid if gid is None else gid
        pid = self._next_pid
        self._next_pid += 1
        binary = None
        if binary_path:
            binary = BinaryImage(binary_path, interpreter=interpreter)
        cwd_inode = self.walker.resolve(cwd).inode if cwd else self.fs.root
        proc = Process(
            pid,
            comm,
            creds=Credentials(uid=uid, gid=gid),
            label=label,
            binary=binary,
            cwd=cwd_inode,
            env=env,
            argv=argv,
        )
        self.processes[pid] = proc
        self.adversaries.register_uid(uid)
        return proc

    def reap(self, proc):
        """Remove an exited process from the table."""
        self.processes.pop(proc.pid, None)

    def get_process(self, pid):
        """The live process ``pid``; raises ``ESRCH`` when there is none."""
        try:
            return self.processes[pid]
        except KeyError:
            raise errors.ESRCH("pid {}".format(pid))

    # ------------------------------------------------------------------
    # firewall attachment
    # ------------------------------------------------------------------

    def attach_firewall(self, firewall):
        """Install a Process Firewall behind the authorization layer."""
        self.firewall = firewall
        firewall.kernel = self
        return firewall

    def detach_firewall(self):
        """Remove the Process Firewall; mediation stops after MAC."""
        self.firewall = None

    # ------------------------------------------------------------------
    # mediation (Figure 2, steps 1-5)
    # ------------------------------------------------------------------

    def begin_syscall(self, proc, name, args=()):
        """Tick the clock, account, and run the ``syscallbegin`` chain.

        Returns the syscall's sequence number, which keys the
        firewall's per-syscall context cache.
        """
        self.clock.tick()
        self.stats.count_syscall(name)
        self._syscall_seq += 1
        seq = self._syscall_seq
        if self.firewall is not None:
            self.firewall.begin_syscall(proc, name, args, seq)
        return seq

    def authorize_walk(self, proc, seq):
        """A :class:`WalkGrant` for the ``DIR_SEARCH`` steps of a walk by
        ``proc`` in syscall ``seq``; ``False`` when there is none for
        the rest of the walk segment, ``None`` when there is none yet.

        The kernel's conditions hold for a whole walk: the kernel audit
        trail is off (a grant writes no record), a firewall is
        attached, and no LSM module other than :attr:`selinux` is
        registered.  Then the firewall must answer
        (:meth:`repro.firewall.engine.ProcessFirewall.answer_walk`, whose
        ``False`` or ``None`` is passed on).  The walk keeps a grant,
        or a ``False``, until its next ``SYMLINK_FOLLOW``; it drops a
        grant at a step the grant refuses, and asks again at each
        ``LOOKUP`` while it holds ``None``.
        """
        firewall = self.firewall
        if self.audit_enabled or firewall is None:
            return False
        modules = self.lsm.modules
        policy = None
        if modules:
            if len(modules) > 1 or modules[0] is not self.selinux:
                return False
            if self.selinux.policy.enforcing:
                policy = self.selinux.policy
        answer = firewall.answer_walk(proc, seq)
        if not answer:
            return answer
        return WalkGrant(self, proc, policy, answer)

    def mediate(self, operation, want=None, audit_path=None):
        """Authorize one resource access: DAC -> MAC -> Process Firewall.

        Args:
            operation: the :class:`Operation` to authorize.
            want: optional DAC permission ("r"/"w"/"x") to check against
                the object inode before the LSM modules run.
            audit_path: override for the audit-trail path field.

        Raises:
            EACCES / PFDenied on denial (already recorded in the audit).
        """
        self.stats.mediations += 1
        path = audit_path or operation.path
        try:
            if want is not None and operation.obj is not None:
                dac_check(operation.proc.creds, operation.obj, want)
            self.lsm.authorize(operation)
        except errors.KernelError as exc:
            self._audit(operation, path, "deny", exc.message)
            raise
        if self.firewall is not None:
            try:
                self.firewall.mediate(operation)
            except errors.PFDenied as exc:
                self.stats.pf_drops += 1
                self._audit(operation, path, "pf_drop", exc.message)
                raise
        self._audit(operation, path, "allow")

    def _audit(self, operation, path, decision, detail=""):
        if not self.audit_enabled:
            return
        self.audit.append(
            AuditRecord(
                self.clock.now(),
                operation.proc.pid if operation.proc else 0,
                operation.proc.comm if operation.proc else "?",
                OP_NAMES[operation.op],
                path,
                decision,
                detail,
            )
        )

    # ------------------------------------------------------------------
    # convenience setup helpers (used everywhere in tests/benchmarks)
    # ------------------------------------------------------------------

    def mkdirs(self, path, uid=0, gid=None, mode=0o755, label=None):
        """Create a directory path (like ``mkdir -p``), returning the leaf."""
        gid = uid if gid is None else gid
        current = self.fs.root
        for name in split_path(path):
            if self.fs.exists(current, name):
                current = self.fs.lookup(current, name)
                if not current.is_dir:
                    raise errors.ENOTDIR(path)
            else:
                current = self.fs.create(current, name, FileType.DIR, uid=uid, gid=gid, mode=mode, label=label)
        return current

    def add_file(self, path, data=b"", uid=0, gid=None, mode=0o644, label=None):
        """Create (or overwrite) a regular file at ``path``."""
        gid = uid if gid is None else gid
        resolved = self.walker.resolve(path, want_parent=True)
        if resolved.inode is not None:
            inode = resolved.inode
        else:
            inode = self.fs.create(resolved.parent, resolved.name, FileType.REG, uid=uid, gid=gid, mode=mode, label=label)
        if isinstance(data, str):
            data = data.encode("utf-8")
        inode.data = data
        if label is not None and inode.label != label:
            self.fs.relabel(inode, label)
        return inode

    def add_symlink(self, path, target, uid=0, gid=None, label=None):
        """Create a symlink at ``path`` pointing to ``target``."""
        gid = uid if gid is None else gid
        resolved = self.walker.resolve(path, want_parent=True)
        return self.fs.symlink(resolved.parent, resolved.name, target, uid=uid, gid=gid, label=label)

    def lookup(self, path, follow=True):
        """Resolve a path to an inode without mediation (test helper)."""
        return self.walker.resolve(path, follow_final=follow).inode
