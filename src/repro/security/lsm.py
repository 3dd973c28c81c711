"""LSM-style hook dispatch.

Every syscall that touches a resource builds an :class:`Operation` (the
firewall's "packet") and passes it through the :class:`LSMDispatcher`.
Registered security modules (the SELinux model, and the Process Firewall
itself as the *last* module, per Figure 2's ordering) may veto the
operation by raising.  The paper builds on LSM rather than syscall
interposition because LSM has no TOCTTOU between check and use; we get
the same property because the Operation carries the already-resolved
inode, never a re-resolvable path.
"""

from __future__ import annotations

import enum
from typing import List

from repro import errors


class Op(enum.Enum):
    """LSM operations mediated by the simulation.

    Names follow the paper's rule language (``-o`` operand): e.g.
    ``FILE_OPEN``, ``LNK_FILE_READ``, ``UNIX_STREAM_SOCKET_CONNECT``.
    """

    FILE_OPEN = "FILE_OPEN"
    FILE_CREATE = "FILE_CREATE"
    FILE_READ = "FILE_READ"
    FILE_WRITE = "FILE_WRITE"
    FILE_GETATTR = "FILE_GETATTR"
    FILE_SETATTR = "FILE_SETATTR"
    FILE_UNLINK = "FILE_UNLINK"
    FILE_EXEC = "FILE_EXEC"
    FILE_MMAP = "FILE_MMAP"
    DIR_SEARCH = "DIR_SEARCH"
    DIR_WRITE = "DIR_WRITE"
    LNK_FILE_READ = "LNK_FILE_READ"
    LINK_READ = "LINK_READ"  # alias used by rule R8 in the paper
    SOCKET_BIND = "SOCKET_BIND"
    SOCKET_SETATTR = "SOCKET_SETATTR"
    UNIX_STREAM_SOCKET_CONNECT = "UNIX_STREAM_SOCKET_CONNECT"
    PROCESS_SIGNAL_DELIVERY = "PROCESS_SIGNAL_DELIVERY"
    SYSCALL_BEGIN = "SYSCALL_BEGIN"

    #: Members are singletons compared by identity, so the C-level
    #: identity hash is exact and spares every ``OP_CLASS``/``OP_PERM``,
    #: ``relevant_ops`` and decision-cache probe the Python-level
    #: ``enum.Enum.__hash__``.  Unpickling yields the same member, so a
    #: hash never crosses a process boundary.
    __hash__ = object.__hash__

    @classmethod
    def from_name(cls, name):
        """Resolve a rule-language operation name (any case, aliases
        included) through :data:`OPS_BY_NAME`; ``EINVAL`` on a miss."""
        op = OPS_BY_NAME.get(name.upper())
        if op is None:
            raise errors.EINVAL("unknown operation {!r}".format(name))
        return op


#: Rule-language name of every operation: ``op.value`` runs enum's
#: Python-level property on each read, a probe of this table does not.
OP_NAMES = {op: op.value for op in Op}

#: Operation of every rule-language name, with the paper's aliases:
#: ``LINK_READ`` (rule R8) names ``LNK_FILE_READ`` and
#: ``SOCKET_CONNECT`` names ``UNIX_STREAM_SOCKET_CONNECT``.
OPS_BY_NAME = {name: op for op, name in OP_NAMES.items()}
OPS_BY_NAME["LINK_READ"] = Op.LNK_FILE_READ
OPS_BY_NAME["SOCKET_CONNECT"] = Op.UNIX_STREAM_SOCKET_CONNECT

#: SELinux object class implied by each operation, for policy lookup.
OP_CLASS = {
    Op.FILE_OPEN: "file",
    Op.FILE_CREATE: "file",
    Op.FILE_READ: "file",
    Op.FILE_WRITE: "file",
    Op.FILE_GETATTR: "file",
    Op.FILE_SETATTR: "file",
    Op.FILE_UNLINK: "file",
    Op.FILE_EXEC: "file",
    Op.FILE_MMAP: "file",
    Op.DIR_SEARCH: "dir",
    Op.DIR_WRITE: "dir",
    Op.LNK_FILE_READ: "lnk_file",
    Op.LINK_READ: "lnk_file",
    Op.SOCKET_BIND: "sock_file",
    Op.SOCKET_SETATTR: "sock_file",
    Op.UNIX_STREAM_SOCKET_CONNECT: "unix_stream_socket",
    Op.PROCESS_SIGNAL_DELIVERY: "process",
    Op.SYSCALL_BEGIN: "process",
}

#: SELinux permission implied by each operation.
OP_PERM = {
    Op.FILE_OPEN: "open",
    Op.FILE_CREATE: "create",
    Op.FILE_READ: "read",
    Op.FILE_WRITE: "write",
    Op.FILE_GETATTR: "getattr",
    Op.FILE_SETATTR: "setattr",
    Op.FILE_UNLINK: "unlink",
    Op.FILE_EXEC: "execute",
    Op.FILE_MMAP: "map",
    Op.DIR_SEARCH: "search",
    Op.DIR_WRITE: "write",
    Op.LNK_FILE_READ: "read",
    Op.LINK_READ: "read",
    Op.SOCKET_BIND: "bind",
    Op.SOCKET_SETATTR: "setattr",
    Op.UNIX_STREAM_SOCKET_CONNECT: "connectto",
    Op.PROCESS_SIGNAL_DELIVERY: "signal",
    Op.SYSCALL_BEGIN: "syscall",
}


class Operation:
    """One mediated resource access — the firewall's "packet".

    Attributes:
        proc: the requesting :class:`repro.proc.Process`.
        op: the :class:`Op`.
        obj: the resolved object — an inode, a signal number for signal
            delivery, or ``None`` (``SYSCALL_BEGIN``).
        path: best-effort pathname for audit.
        syscall: name of the invoking syscall.
        args: raw syscall arguments (for the ``SYSCALL_ARGS`` match).
        extra: op-specific context, e.g. ``link_target_resolver`` — how
            a traversed symlink resolves to its target inode (consumed
            by rule R8's ``COMPARE`` of link owner vs target owner).
            The dict passed in is kept, not copied.
        seq: sequence number of the syscall that issued the operation
            (:meth:`repro.kernel.Kernel.begin_syscall`), or ``None``.
            Operations of one syscall share it; the firewall keys its
            per-syscall context cache on it.
    """

    __slots__ = ("proc", "op", "obj", "path", "syscall", "args", "extra", "seq")

    def __init__(self, proc, op, obj=None, path=None, syscall="", args=(), extra=None, seq=None):
        self.proc = proc
        self.op = op
        self.obj = obj
        self.path = path
        self.syscall = syscall
        self.args = tuple(args)
        self.extra = {} if extra is None else extra
        self.seq = seq

    def __repr__(self):  # pragma: no cover - debugging aid
        return "<Operation {} {} by pid {}>".format(
            self.op.value, self.path or self.obj, self.proc.pid if self.proc else "?"
        )


class LSMDispatcher:
    """Orders and runs the registered security modules.

    A module is any object with ``authorize(operation)`` that raises to
    deny.  Modules run in registration order; the Process Firewall must be
    registered last so that it only sees already-authorized requests.
    """

    def __init__(self):
        #: The registered modules, in authorization order (change it
        #: through :meth:`register` and :meth:`unregister`).
        self.modules = []  # type: List[object]
        #: Count of hook invocations, used by the benchmarks' cost model.
        self.invocations = 0

    def register(self, module):
        """Append ``module`` to the authorization order; returns it."""
        self.modules.append(module)
        return module

    def unregister(self, module):
        """Remove a registered module."""
        self.modules.remove(module)

    def authorize(self, operation):
        """Run every module; the first raise denies the operation."""
        self.invocations += 1
        for module in self.modules:
            module.authorize(operation)
