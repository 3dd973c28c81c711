"""Implementation of the simulated system calls.

Each syscall follows the same discipline:

1. ``begin_syscall`` — clock tick, accounting, ``syscallbegin`` chain;
2. mediated path walk — one ``DIR_SEARCH`` per component and one
   ``LNK_FILE_READ`` per symlink traversal, each passing DAC -> MAC ->
   Process Firewall (this is what lets per-component rules like
   ``safe_open_PF`` and R8 see every step).  A walk-cache hit replays
   every step.  When the kernel grants the walk
   (:meth:`repro.kernel.Kernel.authorize_walk`), its ``DIR_SEARCH``
   steps still run DAC and MAC one by one, but the firewall answers
   them once, from its own decision cache or fast path, until the
   next ``SYMLINK_FOLLOW`` or refused step; counts stay those of one
   mediation per step;
3. a final mediated operation specific to the call (``FILE_OPEN``,
   ``SOCKET_BIND``, ``PROCESS_SIGNAL_DELIVERY``, ...).

Deliberately preserved sharp edges (they are the attack surface):

- ``open(O_CREAT)`` follows a symlink in the terminal position, so a
  planted ``/tmp`` link redirects the create;
- ``stat``/``open`` pairs are not atomic — nothing stops the namespace
  from changing between them;
- inode numbers recycle once free, so ``(dev, ino)`` comparisons can be
  defeated by the cryogenic-sleep pattern;
- ``access`` checks the *real* UID while ``open`` checks the effective
  UID, the classic setuid race.
"""

from __future__ import annotations

import posixpath
from repro import errors
from repro.proc import signals as sig
from repro.proc.process import Credentials, Process
from repro.proc.stack import BinaryImage
from repro.security.dac import dac_check
from repro.security.lsm import Op, Operation
from repro.vfs.file import WRITE_BITS, OpenFile, OpenFlags, open_flags
from repro.vfs.inode import FileType
from repro.vfs.namei import WalkEvent
from repro.vfs.stat import StatResult

#: Default creation mask applied to new files and directories.
DEFAULT_UMASK = 0o022

#: Bound once: the walk observer compares every step's event to it.
_LOOKUP = WalkEvent.LOOKUP

#: Signals whose default disposition terminates the process.
_DEFAULT_FATAL = frozenset(
    {sig.SIGHUP, sig.SIGINT, sig.SIGKILL, sig.SIGSEGV, sig.SIGALRM, sig.SIGTERM, sig.SIGUSR1, sig.SIGUSR2}
)


class SyscallAPI:
    """All simulated syscalls, bound to one :class:`repro.kernel.Kernel`."""

    def __init__(self, kernel):
        self.kernel = kernel

    # ------------------------------------------------------------------
    # mediated path walking
    # ------------------------------------------------------------------

    def _walk(self, proc, path, syscall, seq, follow_final=True, want_parent=False):
        """Resolve ``path`` with per-component mediation.

        A ``LOOKUP`` is authorized through a :class:`repro.kernel.WalkGrant`
        when the kernel grants one (:meth:`Kernel.authorize_walk` says
        when the walk asks again); every other step is an
        :class:`Operation` for :meth:`Kernel.mediate`.  A
        ``SYMLINK_FOLLOW`` ends what the walk was told, because its
        mediation may change the firewall's answer.
        """
        last_dir = None  # directory most recently searched (link parent)
        grant = None
        kernel = self.kernel
        mediate = kernel.mediate
        authorize_walk = kernel.authorize_walk
        walker = kernel.walker

        args = (path,)
        audited = kernel.audit_enabled

        def observe(step):
            nonlocal last_dir, grant
            if step.event is _LOOKUP:
                directory = last_dir = step.inode
                if grant is None:
                    grant = authorize_walk(proc, seq)
                if grant:
                    if grant.admits(directory):
                        return
                    grant = None
                operation = Operation(
                    proc, Op.DIR_SEARCH, obj=directory, path=step.prefix, syscall=syscall, args=args,
                    extra={"component": step.name}, seq=seq,
                )
                # The component's own path only names an audit record.
                mediate(operation, want="x", audit_path=step.prefix + "/" + step.name if audited else None)
            elif step.event is WalkEvent.SYMLINK_FOLLOW:
                grant = None
                extra = {}
                parent = last_dir
                if parent is not None and parent.is_sticky:
                    extra["sticky_parent"] = parent
                operation = Operation(
                    proc, Op.LNK_FILE_READ, obj=step.inode, path=step.prefix + "/" + step.name,
                    syscall=syscall, args=args, extra=extra, seq=seq,
                )
                link = step.inode
                parent_prefix = step.prefix

                def resolve_target(_link=link, _prefix=parent_prefix):
                    """Lazily resolve the link body to its target inode."""
                    target = _link.symlink_target or ""
                    try:
                        if target.startswith("/"):
                            return walker.resolve(target).inode
                        base = _prefix if _prefix != "/" else ""
                        return walker.resolve(base + "/" + target).inode
                    except errors.KernelError:
                        return None

                extra["link_target_resolver"] = resolve_target
                mediate(operation)

        return walker.resolve(
            path, cwd=proc.cwd, follow_final=follow_final, want_parent=want_parent, observer=observe
        )

    def _final_op(self, proc, op, inode, path, syscall, seq, want=None, args=()):
        operation = Operation(proc, op, obj=inode, path=path, syscall=syscall, args=args, seq=seq)
        self.kernel.mediate(operation, want=want)
        return operation

    # ------------------------------------------------------------------
    # open / close / read / write
    # ------------------------------------------------------------------

    def open(self, proc, path, flags=OpenFlags.O_RDONLY, mode=0o644, label=None):
        """Open (and possibly create) a file; returns a descriptor."""
        flags = open_flags(flags)
        args = (path, flags)
        seq = self.kernel.begin_syscall(proc, "open", args)
        inode, canonical = self._resolve_open(proc, path, flags, mode, label, seq)
        if flags & OpenFlags.O_DIRECTORY and not inode.is_dir:
            raise errors.ENOTDIR(canonical)
        writes = flags & WRITE_BITS
        if writes and inode.is_dir:
            raise errors.EISDIR(canonical)
        self._final_op(proc, Op.FILE_OPEN, inode, canonical, "open", seq, want="w" if writes else "r", args=args)
        if writes and flags & OpenFlags.O_TRUNC:
            inode.data = b""
        open_file = OpenFile(inode, flags, canonical, self.kernel.fs.inodes)
        return proc.install_fd(open_file)

    def _resolve_open(self, proc, path, flags, mode, label, seq):
        """The open-specific tail of path resolution.

        Loops over terminal symlinks so that ``O_CREAT`` through a link
        lands on the link *target* (the /tmp-squat attack path), and a
        dangling link causes creation at the target location.
        """
        current_path = path
        for _ in range(self.kernel.walker.max_symlinks):
            resolved = self._walk(proc, current_path, "open", seq, want_parent=True)
            child = resolved.inode
            if child is None:
                if not flags & OpenFlags.O_CREAT:
                    raise errors.ENOENT(resolved.path)
                return self._create_at(proc, resolved, mode, label, seq), resolved.path
            if child.is_symlink:
                if flags & OpenFlags.O_NOFOLLOW:
                    raise errors.ELOOP(resolved.path)
                extra = {}
                if resolved.parent is not None and resolved.parent.is_sticky:
                    extra["sticky_parent"] = resolved.parent
                operation = Operation(
                    proc, Op.LNK_FILE_READ, obj=child, path=resolved.path, syscall="open", args=(path,),
                    extra=extra, seq=seq,
                )
                walker = self.kernel.walker
                parent_path = posixpath.dirname(resolved.path) or "/"

                def resolve_target(_link=child, _prefix=parent_path):
                    target = _link.symlink_target or ""
                    try:
                        if target.startswith("/"):
                            return walker.resolve(target).inode
                        base = _prefix if _prefix != "/" else ""
                        return walker.resolve(base + "/" + target).inode
                    except errors.KernelError:
                        return None

                extra["link_target_resolver"] = resolve_target
                self.kernel.mediate(operation)
                target = child.symlink_target or ""
                if target.startswith("/"):
                    current_path = target
                else:
                    base = posixpath.dirname(resolved.path) or "/"
                    current_path = posixpath.join(base, target)
                continue
            if flags & OpenFlags.O_CREAT and flags & OpenFlags.O_EXCL:
                raise errors.EEXIST(resolved.path)
            return child, resolved.path
        raise errors.ELOOP(path)

    def _create_at(self, proc, resolved, mode, label, seq):
        """Create a regular file at an already-resolved parent slot."""
        parent = resolved.parent
        dac_check(proc.creds, parent, "w")
        self._final_op(proc, Op.DIR_WRITE, parent, posixpath.dirname(resolved.path) or "/", "open", seq)
        inode = self.kernel.fs.create(
            parent,
            resolved.name,
            FileType.REG,
            uid=proc.creds.euid,
            gid=proc.creds.egid,
            mode=mode & ~getattr(proc, "umask", DEFAULT_UMASK),
            label=label,
        )
        self._final_op(proc, Op.FILE_CREATE, inode, resolved.path, "open", seq)
        return inode

    def close(self, proc, fd):
        self.kernel.begin_syscall(proc, "close", (fd,))
        open_file = proc.drop_fd(fd)
        open_file.close()

    def read(self, proc, fd, size=None):
        seq = self.kernel.begin_syscall(proc, "read", (fd,))
        open_file = proc.get_fd(fd)
        self._final_op(proc, Op.FILE_READ, open_file.inode, open_file.path, "read", seq, args=(fd,))
        return open_file.read(size)

    def write(self, proc, fd, data):
        seq = self.kernel.begin_syscall(proc, "write", (fd,))
        open_file = proc.get_fd(fd)
        self._final_op(proc, Op.FILE_WRITE, open_file.inode, open_file.path, "write", seq, args=(fd,))
        return open_file.write(data)

    # ------------------------------------------------------------------
    # stat family
    # ------------------------------------------------------------------

    def stat(self, proc, path):
        seq = self.kernel.begin_syscall(proc, "stat", (path,))
        resolved = self._walk(proc, path, "stat", seq, follow_final=True)
        if resolved.inode is None:
            raise errors.ENOENT(path)
        self._final_op(proc, Op.FILE_GETATTR, resolved.inode, resolved.path, "stat", seq, args=(path,))
        return StatResult(resolved.inode)

    def lstat(self, proc, path):
        seq = self.kernel.begin_syscall(proc, "lstat", (path,))
        resolved = self._walk(proc, path, "lstat", seq, follow_final=False)
        if resolved.inode is None:
            raise errors.ENOENT(path)
        self._final_op(proc, Op.FILE_GETATTR, resolved.inode, resolved.path, "lstat", seq, args=(path,))
        return StatResult(resolved.inode)

    def fstat(self, proc, fd):
        seq = self.kernel.begin_syscall(proc, "fstat", (fd,))
        open_file = proc.get_fd(fd)
        self._final_op(proc, Op.FILE_GETATTR, open_file.inode, open_file.path, "fstat", seq, args=(fd,))
        return StatResult(open_file.inode)

    def readlink(self, proc, path):
        seq = self.kernel.begin_syscall(proc, "readlink", (path,))
        resolved = self._walk(proc, path, "readlink", seq, follow_final=False)
        if resolved.inode is None:
            raise errors.ENOENT(path)
        if not resolved.inode.is_symlink:
            raise errors.EINVAL("{} is not a symlink".format(path))
        self._final_op(proc, Op.FILE_GETATTR, resolved.inode, resolved.path, "readlink", seq, args=(path,))
        return resolved.inode.symlink_target

    def access(self, proc, path, want="r"):
        """POSIX ``access``: checks the **real** UID — the TOCTTOU trap."""
        seq = self.kernel.begin_syscall(proc, "access", (path, want))
        resolved = self._walk(proc, path, "access", seq, follow_final=True)
        if resolved.inode is None:
            raise errors.ENOENT(path)
        real = Credentials(uid=proc.creds.uid, gid=proc.creds.gid)
        dac_check(real, resolved.inode, want)
        self._final_op(proc, Op.FILE_GETATTR, resolved.inode, resolved.path, "access", seq, args=(path, want))
        return True

    # ------------------------------------------------------------------
    # namespace mutation
    # ------------------------------------------------------------------

    def mkdir(self, proc, path, mode=0o755, label=None):
        seq = self.kernel.begin_syscall(proc, "mkdir", (path,))
        resolved = self._walk(proc, path, "mkdir", seq, want_parent=True)
        if resolved.inode is not None:
            raise errors.EEXIST(resolved.path)
        dac_check(proc.creds, resolved.parent, "w")
        self._final_op(proc, Op.DIR_WRITE, resolved.parent, posixpath.dirname(resolved.path) or "/", "mkdir", seq)
        inode = self.kernel.fs.create(
            resolved.parent,
            resolved.name,
            FileType.DIR,
            uid=proc.creds.euid,
            gid=proc.creds.egid,
            mode=mode & ~getattr(proc, "umask", DEFAULT_UMASK),
            label=label,
        )
        self._final_op(proc, Op.FILE_CREATE, inode, resolved.path, "mkdir", seq)
        return inode

    def symlink(self, proc, target, path, label=None):
        seq = self.kernel.begin_syscall(proc, "symlink", (target, path))
        resolved = self._walk(proc, path, "symlink", seq, want_parent=True)
        if resolved.inode is not None:
            raise errors.EEXIST(resolved.path)
        dac_check(proc.creds, resolved.parent, "w")
        self._final_op(proc, Op.DIR_WRITE, resolved.parent, posixpath.dirname(resolved.path) or "/", "symlink", seq)
        inode = self.kernel.fs.symlink(
            resolved.parent, resolved.name, target, uid=proc.creds.euid, gid=proc.creds.egid, label=label
        )
        self._final_op(proc, Op.FILE_CREATE, inode, resolved.path, "symlink", seq)
        return inode

    def link(self, proc, existing, path):
        seq = self.kernel.begin_syscall(proc, "link", (existing, path))
        source = self._walk(proc, existing, "link", seq, follow_final=False)
        if source.inode is None:
            raise errors.ENOENT(existing)
        resolved = self._walk(proc, path, "link", seq, want_parent=True)
        if resolved.inode is not None:
            raise errors.EEXIST(resolved.path)
        dac_check(proc.creds, resolved.parent, "w")
        self._final_op(proc, Op.DIR_WRITE, resolved.parent, posixpath.dirname(resolved.path) or "/", "link", seq)
        return self.kernel.fs.hardlink(resolved.parent, resolved.name, source.inode)

    def _sticky_check(self, proc, parent, child):
        """World-writable-directory protection (sticky bit, e.g. /tmp)."""
        if parent.is_sticky and proc.creds.euid not in (0, child.uid, parent.uid):
            raise errors.EPERM("sticky directory: uid {} may not remove inode {}".format(proc.creds.euid, child.ino))

    def unlink(self, proc, path):
        seq = self.kernel.begin_syscall(proc, "unlink", (path,))
        resolved = self._walk(proc, path, "unlink", seq, want_parent=True)
        if resolved.inode is None:
            raise errors.ENOENT(resolved.path)
        dac_check(proc.creds, resolved.parent, "w")
        self._sticky_check(proc, resolved.parent, resolved.inode)
        self._final_op(proc, Op.FILE_UNLINK, resolved.inode, resolved.path, "unlink", seq, args=(path,))
        self.kernel.fs.unlink(resolved.parent, resolved.name)

    def rmdir(self, proc, path):
        seq = self.kernel.begin_syscall(proc, "rmdir", (path,))
        resolved = self._walk(proc, path, "rmdir", seq, want_parent=True)
        if resolved.inode is None:
            raise errors.ENOENT(resolved.path)
        dac_check(proc.creds, resolved.parent, "w")
        self._sticky_check(proc, resolved.parent, resolved.inode)
        self._final_op(proc, Op.FILE_UNLINK, resolved.inode, resolved.path, "rmdir", seq, args=(path,))
        self.kernel.fs.rmdir(resolved.parent, resolved.name)

    def rename(self, proc, old, new):
        seq = self.kernel.begin_syscall(proc, "rename", (old, new))
        src = self._walk(proc, old, "rename", seq, want_parent=True)
        if src.inode is None:
            raise errors.ENOENT(old)
        dst = self._walk(proc, new, "rename", seq, want_parent=True)
        dac_check(proc.creds, src.parent, "w")
        dac_check(proc.creds, dst.parent, "w")
        self._sticky_check(proc, src.parent, src.inode)
        if dst.inode is not None:
            self._sticky_check(proc, dst.parent, dst.inode)
        self._final_op(proc, Op.DIR_WRITE, dst.parent, posixpath.dirname(dst.path) or "/", "rename", seq)
        return self.kernel.fs.rename(src.parent, src.name, dst.parent, dst.name)

    def chmod(self, proc, path, mode):
        seq = self.kernel.begin_syscall(proc, "chmod", (path, mode))
        resolved = self._walk(proc, path, "chmod", seq, follow_final=True)
        inode = resolved.inode
        if proc.creds.euid not in (0, inode.uid):
            raise errors.EPERM("chmod by non-owner")
        op = Op.SOCKET_SETATTR if inode.itype is FileType.SOCK else Op.FILE_SETATTR
        self._final_op(proc, op, inode, resolved.path, "chmod", seq, args=(path, mode))
        return self.kernel.fs.chmod(inode, mode)

    def chown(self, proc, path, uid, gid=None):
        seq = self.kernel.begin_syscall(proc, "chown", (path, uid))
        resolved = self._walk(proc, path, "chown", seq, follow_final=True)
        if proc.creds.euid != 0:
            raise errors.EPERM("chown requires root")
        self._final_op(proc, Op.FILE_SETATTR, resolved.inode, resolved.path, "chown", seq, args=(path, uid))
        return self.kernel.fs.chown(resolved.inode, uid, gid)

    def listdir(self, proc, path):
        seq = self.kernel.begin_syscall(proc, "getdents", (path,))
        resolved = self._walk(proc, path, "getdents", seq, follow_final=True)
        dac_check(proc.creds, resolved.inode, "r")
        self._final_op(proc, Op.DIR_SEARCH, resolved.inode, resolved.path, "getdents", seq, args=(path,))
        return self.kernel.fs.list_dir(resolved.inode)

    def chdir(self, proc, path):
        seq = self.kernel.begin_syscall(proc, "chdir", (path,))
        resolved = self._walk(proc, path, "chdir", seq, follow_final=True)
        if not resolved.inode.is_dir:
            raise errors.ENOTDIR(path)
        dac_check(proc.creds, resolved.inode, "x")
        proc.cwd = resolved.inode
        return resolved.inode

    # ------------------------------------------------------------------
    # sockets (UNIX domain)
    # ------------------------------------------------------------------

    def bind(self, proc, path, mode=0o755, label=None):
        """Bind a UNIX socket at ``path`` (creates the socket inode)."""
        seq = self.kernel.begin_syscall(proc, "bind", (path,))
        resolved = self._walk(proc, path, "bind", seq, want_parent=True)
        if resolved.inode is not None:
            raise errors.EADDRINUSE(resolved.path)
        dac_check(proc.creds, resolved.parent, "w")
        inode = self.kernel.fs.create(
            resolved.parent,
            resolved.name,
            FileType.SOCK,
            uid=proc.creds.euid,
            gid=proc.creds.egid,
            mode=mode,
            label=label,
        )
        inode.bound_socket = proc.pid
        self._final_op(proc, Op.SOCKET_BIND, inode, resolved.path, "bind", seq, args=(path,))
        return inode

    def connect(self, proc, path):
        """Connect to a bound UNIX socket; returns the listener's pid.

        A missing path surfaces as ``ECONNREFUSED`` (folding POSIX's
        ENOENT case in, since callers react identically).
        """
        seq = self.kernel.begin_syscall(proc, "connect", (path,))
        try:
            resolved = self._walk(proc, path, "connect", seq, follow_final=True)
        except errors.ENOENT:
            raise errors.ECONNREFUSED(path)
        inode = resolved.inode
        if inode is None or inode.itype is not FileType.SOCK:
            raise errors.ECONNREFUSED(path)
        if inode.bound_socket is None:
            raise errors.ECONNREFUSED(path)
        self._final_op(
            proc, Op.UNIX_STREAM_SOCKET_CONNECT, inode, resolved.path, "connect", seq, args=(path,)
        )
        return inode.bound_socket

    # ------------------------------------------------------------------
    # processes
    # ------------------------------------------------------------------

    def fork(self, proc):
        """Fork; returns the child process object."""
        self.kernel.begin_syscall(proc, "fork")
        kernel = self.kernel
        # Firewall state: the whole bundle — STATE dictionary (rule
        # invariants set by the parent must keep protecting the forked
        # worker), negative-decision cache (its entries are pure
        # functions of rule base/label/program/entrypoint, all fork-
        # preserved), and context cache — is copied to the child.
        child = Process(
            kernel._next_pid,
            proc.comm,
            creds=proc.creds.copy(),
            label=proc.label,
            binary=proc.binary,
            cwd=proc.cwd,
            env=dict(proc.env),
            argv=list(proc.argv),
            ppid=proc.pid,
            pf=proc.pf.fork(),
        )
        kernel._next_pid += 1
        child.images = list(proc.images)
        for frame in proc.stack.frames():
            child.stack.push(frame.pc, image=frame.image, function=frame.function)
        for fd, open_file in proc.fds.items():
            child.fds[fd] = open_file.dup()
        child._next_fd = proc._next_fd
        # fork(2) inheritance: creation mask, handlers, blocked set
        # (pending signals are NOT inherited — POSIX clears them).
        child.umask = getattr(proc, "umask", DEFAULT_UMASK)
        child.signals.dispositions = dict(proc.signals.dispositions)
        child.signals.blocked = set(proc.signals.blocked)
        kernel.processes[child.pid] = child
        return child

    def execve(self, proc, path, argv=None, env=None, interpreter=None):
        """Replace the process image; honours setuid/setgid bits."""
        seq = self.kernel.begin_syscall(proc, "execve", (path,))
        resolved = self._walk(proc, path, "execve", seq, follow_final=True)
        inode = resolved.inode
        self._final_op(proc, Op.FILE_EXEC, inode, resolved.path, "execve", seq, want="x", args=(path,))
        if inode.is_setuid:
            proc.creds.euid = inode.uid
        if inode.is_setgid:
            proc.creds.egid = inode.gid
        proc.binary = BinaryImage(resolved.path, interpreter=interpreter)
        proc.images = [proc.binary]
        proc.stack = type(proc.stack)()
        proc.script_stack = None
        # execve(2): caught handlers reset to default; the blocked set
        # AND the pending set survive the exec (POSIX: "signals set to
        # be caught shall be set to the default action ... pending
        # signals remain pending").
        blocked = set(proc.signals.blocked)
        pending = list(proc.signals.pending)
        proc.signals = sig.SignalState()
        proc.signals.blocked = blocked
        proc.signals.pending = pending
        proc.comm = posixpath.basename(resolved.path)
        if argv is not None:
            proc.argv = list(argv)
        if env is not None:
            proc.env = dict(env)
        proc.pf.release()
        return proc

    def exit(self, proc, code=0):
        self.kernel.begin_syscall(proc, "exit", (code,))
        for fd in list(proc.fds):
            proc.drop_fd(fd).close()
        proc.alive = False
        proc.exit_code = code
        self.kernel.reap(proc)

    def setuid(self, proc, uid):
        self.kernel.begin_syscall(proc, "setuid", (uid,))
        if proc.creds.euid == 0:
            proc.creds.uid = proc.creds.euid = uid
        elif uid == proc.creds.uid:
            proc.creds.euid = uid
        else:
            raise errors.EPERM("setuid({}) by uid {}".format(uid, proc.creds.uid))
        self.kernel.adversaries.register_uid(uid)
        return proc.creds

    def seteuid(self, proc, euid):
        self.kernel.begin_syscall(proc, "seteuid", (euid,))
        if proc.creds.uid == 0 or proc.creds.euid == 0 or euid == proc.creds.uid:
            proc.creds.euid = euid
        else:
            raise errors.EPERM("seteuid({}) by uid {}".format(euid, proc.creds.uid))
        return proc.creds

    def mmap(self, proc, fd, as_image=False):
        """Map an open file; with ``as_image`` it becomes a code mapping."""
        seq = self.kernel.begin_syscall(proc, "mmap", (fd,))
        open_file = proc.get_fd(fd)
        self._final_op(proc, Op.FILE_MMAP, open_file.inode, open_file.path, "mmap", seq, args=(fd,))
        if as_image:
            image = BinaryImage(open_file.path)
            proc.map_image(image)
            return image
        return open_file.inode.data

    # ------------------------------------------------------------------
    # signals
    # ------------------------------------------------------------------

    def sigaction(self, proc, signum, handler_pc=None, handler=None, sa_mask=frozenset()):
        """Install a handler; ``handler_pc`` is base-relative to the binary."""
        self.kernel.begin_syscall(proc, "sigaction", (signum,))
        if signum in sig.UNBLOCKABLE_SIGNALS:
            raise errors.EINVAL("cannot catch signal {}".format(signum))
        abs_pc = None
        if handler_pc is not None and proc.binary is not None:
            abs_pc = proc.binary.abs(handler_pc)
        elif handler_pc is not None:
            abs_pc = handler_pc
        proc.signals.set_handler(signum, handler_pc=abs_pc, handler=handler, sa_mask=sa_mask)

    def sigprocmask(self, proc, block=(), unblock=()):
        self.kernel.begin_syscall(proc, "sigprocmask")
        proc.signals.block(block)
        proc.signals.unblock(unblock)
        if unblock:
            self._flush_pending(proc)

    def kill(self, proc, pid, signum):
        """Send a signal.  Mediation runs in the *receiver's* context.

        The firewall protects the receiving process, so the operation's
        subject is the target: its stack, its ``STATE`` dictionary, and
        its handler table are what rules R9-R11 consult.
        """
        self.kernel.begin_syscall(proc, "kill", (pid, signum))
        target = self.kernel.get_process(pid)
        if proc.creds.euid not in (0, target.creds.uid, target.creds.euid):
            raise errors.EPERM("kill({}, {}) by uid {}".format(pid, signum, proc.creds.euid))
        self._deliver(proc, target, signum)

    def _deliver(self, sender, target, signum):
        disposition = target.signals.disposition(signum)
        if target.signals.is_blocked(signum):
            target.signals.pending.append((sender.pid if sender else 0, signum))
            return "blocked"
        operation = Operation(
            target,
            Op.PROCESS_SIGNAL_DELIVERY,
            obj=None,
            path="signal:{}".format(sig.SIGNAL_NAMES.get(signum, signum)),
            syscall="kill",
            args=(signum,),
            extra={
                "signum": signum,
                "sender_pid": sender.pid if sender else 0,
                "disposition": disposition,
            },
            seq=self.kernel._syscall_seq,
        )
        self.kernel.mediate(operation)
        return self._run_disposition(target, signum, disposition)

    def _run_disposition(self, target, signum, disposition):
        if disposition.is_handled:
            target.signals.enter_handler(signum)
            if disposition.handler_pc is not None:
                image = target.image_for_pc(disposition.handler_pc)
                target.stack.push(disposition.handler_pc, image=image, function="sig{}_handler".format(signum))
            if disposition.handler is not None:
                try:
                    disposition.handler(target, signum)
                finally:
                    self.sigreturn(target)
            return "handled"
        if signum in _DEFAULT_FATAL:
            self.exit(target, code=128 + signum)
            return "killed"
        return "ignored"

    def sigreturn(self, proc):
        """Return from a signal handler (rule R12 watches this syscall)."""
        self.kernel.begin_syscall(proc, "sigreturn")
        if proc.signals.in_handler:
            proc.signals.leave_handler()
            if proc.stack.depth:
                top = proc.stack.top()
                if top is not None and top.function.startswith("sig"):
                    proc.stack.pop()
        self._flush_pending(proc)

    def _flush_pending(self, proc):
        deliverable = [
            (sender, signum) for sender, signum in proc.signals.pending if not proc.signals.is_blocked(signum)
        ]
        proc.signals.pending = [
            (sender, signum) for sender, signum in proc.signals.pending if proc.signals.is_blocked(signum)
        ]
        for sender_pid, signum in deliverable:
            sender = self.kernel.processes.get(sender_pid)
            self._deliver(sender, proc, signum)

    # ------------------------------------------------------------------
    # descriptor plumbing
    # ------------------------------------------------------------------

    def dup(self, proc, fd):
        """Duplicate a descriptor; both share one file description."""
        self.kernel.begin_syscall(proc, "dup", (fd,))
        open_file = proc.get_fd(fd)
        return proc.install_fd(open_file.dup())

    def dup2(self, proc, fd, newfd):
        """Duplicate onto a specific descriptor number, closing it first."""
        self.kernel.begin_syscall(proc, "dup2", (fd, newfd))
        open_file = proc.get_fd(fd)
        if newfd == fd:
            return newfd
        existing = proc.fds.pop(newfd, None)
        if existing is not None:
            existing.close()
        proc.fds[newfd] = open_file.dup()
        return newfd

    def lseek(self, proc, fd, offset, whence="set"):
        """Reposition the file offset ("set" / "cur" / "end")."""
        self.kernel.begin_syscall(proc, "lseek", (fd, offset, whence))
        open_file = proc.get_fd(fd)
        size = len(open_file.inode.data or b"")
        if whence == "set":
            new = offset
        elif whence == "cur":
            new = open_file.offset + offset
        elif whence == "end":
            new = size + offset
        else:
            raise errors.EINVAL("lseek whence {!r}".format(whence))
        if new < 0:
            raise errors.EINVAL("negative file offset")
        open_file.offset = new
        return new

    def ftruncate(self, proc, fd, length=0):
        seq = self.kernel.begin_syscall(proc, "ftruncate", (fd, length))
        open_file = proc.get_fd(fd)
        if not open_file.writable:
            raise errors.EBADF("ftruncate on read-only descriptor")
        self._final_op(proc, Op.FILE_SETATTR, open_file.inode, open_file.path, "ftruncate", seq, args=(fd,))
        data = open_file.inode.data or b""
        if length <= len(data):
            open_file.inode.data = data[:length]
        else:
            open_file.inode.data = data + b"\x00" * (length - len(data))
        return length

    def umask(self, proc, mask):
        """Set the creation mask; returns the previous value."""
        self.kernel.begin_syscall(proc, "umask", (mask,))
        previous = getattr(proc, "umask", DEFAULT_UMASK)
        proc.umask = mask & 0o777
        return previous

    def mkfifo(self, proc, path, mode=0o644, label=None):
        """Create a FIFO (squattable IPC rendezvous, like sockets)."""
        seq = self.kernel.begin_syscall(proc, "mkfifo", (path,))
        resolved = self._walk(proc, path, "mkfifo", seq, want_parent=True)
        if resolved.inode is not None:
            raise errors.EEXIST(resolved.path)
        dac_check(proc.creds, resolved.parent, "w")
        self._final_op(proc, Op.DIR_WRITE, resolved.parent, posixpath.dirname(resolved.path) or "/", "mkfifo", seq)
        inode = self.kernel.fs.create(
            resolved.parent,
            resolved.name,
            FileType.FIFO,
            uid=proc.creds.euid,
            gid=proc.creds.egid,
            mode=mode & ~getattr(proc, "umask", DEFAULT_UMASK),
            label=label,
        )
        self._final_op(proc, Op.FILE_CREATE, inode, resolved.path, "mkfifo", seq)
        return inode

    # ------------------------------------------------------------------
    # trivial calls (benchmark fodder)
    # ------------------------------------------------------------------

    def getpid(self, proc):
        """The lmbench "null" syscall: pure entry/exit cost."""
        self.kernel.begin_syscall(proc, "getpid")
        return proc.pid

    def getuid(self, proc):
        self.kernel.begin_syscall(proc, "getuid")
        return proc.creds.uid
