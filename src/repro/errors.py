"""Errno-style exception hierarchy for the simulated kernel.

Every failure surfaced by a simulated syscall is raised as a
:class:`KernelError` subclass carrying a symbolic errno name.  Programs in
:mod:`repro.programs` catch these the way C programs test ``errno``; the
Process Firewall reports denials as :class:`PFDenied`, which deliberately
reuses ``EACCES`` so that protected programs cannot distinguish a firewall
drop from an ordinary permission failure (matching the paper's design,
where the PF verdict is returned through the LSM authorization path).
"""

from __future__ import annotations


class KernelError(Exception):
    """Base class for simulated-kernel failures.

    Attributes:
        errno_name: the symbolic errno (``"ENOENT"``, ``"EACCES"``, ...).
    """

    errno_name = "EIO"

    def __init__(self, message: str = ""):
        super().__init__(message or self.errno_name)
        self.message = message or self.errno_name

    def __repr__(self):  # pragma: no cover - debugging aid
        return "{}({!r})".format(type(self).__name__, self.message)


class ENOENT(KernelError):
    """No such file or directory."""

    errno_name = "ENOENT"


class EEXIST(KernelError):
    """File exists."""

    errno_name = "EEXIST"


class ENOTDIR(KernelError):
    """A path component is not a directory."""

    errno_name = "ENOTDIR"


class EISDIR(KernelError):
    """Target is a directory (e.g. open for write on a directory)."""

    errno_name = "EISDIR"


class EACCES(KernelError):
    """Permission denied by DAC, MAC, or the Process Firewall."""

    errno_name = "EACCES"


class EPERM(KernelError):
    """Operation not permitted (ownership / capability failures)."""

    errno_name = "EPERM"


class ELOOP(KernelError):
    """Too many levels of symbolic links, or O_NOFOLLOW hit a link."""

    errno_name = "ELOOP"


class EBADF(KernelError):
    """Bad file descriptor."""

    errno_name = "EBADF"


class EINVAL(KernelError):
    """Invalid argument."""

    errno_name = "EINVAL"


class ENOTEMPTY(KernelError):
    """Directory not empty."""

    errno_name = "ENOTEMPTY"


class ESRCH(KernelError):
    """No such process."""

    errno_name = "ESRCH"


class EADDRINUSE(KernelError):
    """Address already in use (socket bind on a squatted path)."""

    errno_name = "EADDRINUSE"


class ECONNREFUSED(KernelError):
    """Connection refused (no listener bound at the socket path)."""

    errno_name = "ECONNREFUSED"


class ENOSYS(KernelError):
    """Syscall not implemented."""

    errno_name = "ENOSYS"


class EMFILE(KernelError):
    """Per-process file descriptor table is full."""

    errno_name = "EMFILE"


class ENAMETOOLONG(KernelError):
    """Pathname or component exceeds the configured limits."""

    errno_name = "ENAMETOOLONG"


class EFAULT(KernelError):
    """Bad address (malformed userspace data, e.g. a forged stack)."""

    errno_name = "EFAULT"


class PFDenied(EACCES):
    """Raised when the Process Firewall drops a resource access.

    Subclasses :class:`EACCES` so victim programs observe an ordinary
    permission error, but tests and the audit trail can distinguish
    firewall drops from access-control denials.

    Attributes:
        rule: the :class:`repro.firewall.rule.Rule` that matched, if any.
    """

    def __init__(self, message: str = "", rule=None):
        super().__init__(message or "blocked by process firewall")
        self.rule = rule


#: Map of errno names to exception classes, for audit-log round-trips.
ERRNO_BY_NAME = {
    cls.errno_name: cls
    for cls in [
        KernelError,
        ENOENT,
        EEXIST,
        ENOTDIR,
        EISDIR,
        EACCES,
        EPERM,
        ELOOP,
        EBADF,
        EINVAL,
        ENOTEMPTY,
        ESRCH,
        EADDRINUSE,
        ECONNREFUSED,
        ENOSYS,
        EMFILE,
        ENAMETOOLONG,
        EFAULT,
    ]
}
