"""Open file descriptions and open flags."""

from __future__ import annotations

from repro import errors
from repro.vfs.inode import FileType


class OpenFlags:
    """Subset of ``open(2)`` flags the simulation honours.

    Plain ``int`` constants, combined with ``|`` and tested with ``&``
    (every open does flag arithmetic; an ``enum.IntFlag`` would make
    each operator a Python-level call).  :func:`open_flags` coerces
    ``open``'s argument.
    """

    O_RDONLY = 0x0
    O_WRONLY = 0x1
    O_RDWR = 0x2
    O_CREAT = 0x40
    O_EXCL = 0x80
    O_TRUNC = 0x200
    O_APPEND = 0x400
    O_NOFOLLOW = 0x20000
    O_DIRECTORY = 0x10000


#: Access-mode bits that ask for write access.
WRITE_BITS = OpenFlags.O_WRONLY | OpenFlags.O_RDWR

#: The named flag values, each mapped to itself: a non-``int`` argument
#: equal to one of them (``2.0``) is accepted as that value.
_NAMED = {
    value: value for name, value in vars(OpenFlags).items() if name.startswith("O_")
}

#: One past the widest named bit: negative flags wrap modulo this.
_SPAN = 1 << max(_NAMED).bit_length()


def wants_read(flags):
    """Whether an ``open`` with ``flags`` may read (not ``O_WRONLY``)."""
    return not flags & OpenFlags.O_WRONLY


def wants_write(flags):
    """Whether an ``open`` with ``flags`` may write."""
    return bool(flags & WRITE_BITS)


def open_flags(value):
    """The plain-``int`` flags ``open`` uses for its ``flags`` argument.

    Any ``int`` (``bool`` and ``IntFlag`` members included) is taken as
    its integer value; another value is accepted only when it equals a
    named flag (``2.0``), and anything else (``"1"``, ``1.5``, ``None``)
    raises ``ValueError``.  A negative value wraps into the named bits'
    span as ``enum.IntFlag`` wraps it: ``-1`` is ``0x3FFFF`` and
    ``-0x40000`` is ``0``; below ``-0x40000`` it wraps into the next
    power of two past its own width.
    """
    if value.__class__ is not int:
        if isinstance(value, int):
            value = int(value)
        else:
            try:
                value = _NAMED[value]
            except (KeyError, TypeError):
                raise ValueError("{!r} is not a valid OpenFlags".format(value)) from None
    if value < 0:
        value += _SPAN if value >= -_SPAN else 1 << value.bit_length()
    return value


class OpenFile:
    """An open file description, shared by dup'ed descriptors.

    Holding an :class:`OpenFile` pins the inode's number (the inode table
    will not recycle it until the last open closes), matching real-kernel
    semantics that the ``open_race`` defence relies on.
    """

    def __init__(self, inode, flags, path, inode_table):
        self.inode = inode
        #: The ``open`` flags, a plain ``int`` (see :func:`open_flags`).
        self.flags = flags
        #: Access the flags grant, worked out once.
        self.readable = wants_read(flags)
        self.writable = wants_write(flags)
        self.path = path
        self.offset = 0
        self.closed = False
        #: Descriptor references sharing this description (fork/dup).
        self.refs = 1
        self._table = inode_table
        inode_table.opened(inode)

    def dup(self):
        """Add a descriptor reference (fork inheritance, dup)."""
        self.refs += 1
        return self

    def read(self, size=None):
        if self.closed:
            raise errors.EBADF("read on closed file")
        if not self.readable:
            raise errors.EBADF("file not open for reading")
        if self.inode.itype is FileType.DIR:
            raise errors.EISDIR("read on a directory")
        data = self.inode.data[self.offset:]
        if size is not None:
            data = data[:size]
        self.offset += len(data)
        return data

    def write(self, data):
        if self.closed:
            raise errors.EBADF("write on closed file")
        if not self.writable:
            raise errors.EBADF("file not open for writing")
        if isinstance(data, str):
            data = data.encode("utf-8")
        if self.flags & OpenFlags.O_APPEND:
            self.offset = len(self.inode.data)
        before = self.inode.data[: self.offset]
        pad = b"\x00" * (self.offset - len(before))
        self.inode.data = before + pad + data + self.inode.data[self.offset + len(data):]
        self.offset += len(data)
        return len(data)

    def close(self):
        if self.closed:
            return
        self.refs -= 1
        if self.refs <= 0:
            self.closed = True
            self._table.closed(self.inode)

    def __repr__(self):  # pragma: no cover - debugging aid
        state = "closed" if self.closed else "open"
        return "<OpenFile {} ino={} {}>".format(self.path, self.inode.ino, state)
