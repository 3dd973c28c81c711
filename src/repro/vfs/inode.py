"""Inodes and the inode table.

The inode table hands out inode numbers from a free list so that numbers
are **recycled** once an inode is both unlinked and no longer open.  This
mirrors real filesystems and is load-bearing for the reproduction: Olaf
Kirch's "cryogenic sleep" attack (paper §2.1) relies on an adversary
recycling a checked inode's number between a victim's ``lstat`` and
``open``.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional

from repro import errors


class FileType(enum.Enum):
    """Inode types, mirroring the ``S_IF*`` constants we need."""

    REG = "reg"
    DIR = "dir"
    LNK = "lnk"
    SOCK = "sock"
    FIFO = "fifo"
    CHR = "chr"


#: Permission-bit constants (subset of POSIX mode bits).
S_ISUID = 0o4000
S_ISGID = 0o2000
S_ISVTX = 0o1000  # sticky bit, honoured on world-writable directories


class Inode:
    """A single filesystem object.

    Attributes:
        ino: inode number, unique among *live* inodes on the device but
            recyclable after release.
        generation: bumped every time the number is reused, so tests can
            tell a recycled inode from the original even when ``ino``
            collides (real kernels expose this via ``i_generation``).
        itype: the :class:`FileType`.
        uid / gid / mode: DAC ownership and permission bits.
        label: SELinux-style type label (e.g. ``"etc_t"``).
        nlink: number of directory entries referencing this inode.
        opens: number of open file descriptions referencing this inode.
    """

    __slots__ = (
        "ino",
        "generation",
        "itype",
        "uid",
        "gid",
        "mode",
        "label",
        "nlink",
        "opens",
        "data",
        "symlink_target",
        "children",
        "device",
        "ctime",
        "mtime",
        "bound_socket",
    )

    def __init__(self, ino, itype, uid=0, gid=0, mode=0o644, label="unlabeled_t", device=0, generation=0, now=0):
        self.ino = ino
        self.generation = generation
        self.itype = itype
        self.uid = uid
        self.gid = gid
        self.mode = mode
        self.label = label
        self.nlink = 0
        self.opens = 0
        self.data = b""
        self.symlink_target = None  # type: Optional[str]
        self.children = {} if itype is FileType.DIR else None  # type: Optional[Dict[str, int]]
        self.device = device
        self.ctime = now
        self.mtime = now
        self.bound_socket = None  # set by the socket layer when bound

    @property
    def is_dir(self):
        return self.itype is FileType.DIR

    @property
    def is_symlink(self):
        return self.itype is FileType.LNK

    @property
    def is_setuid(self):
        return bool(self.mode & S_ISUID)

    @property
    def is_setgid(self):
        return bool(self.mode & S_ISGID)

    @property
    def is_sticky(self):
        return bool(self.mode & S_ISVTX)

    def identity(self):
        """Return the ``(device, ino)`` pair programs compare after stat.

        Deliberately excludes ``generation``: the whole point of the
        cryogenic-sleep attack is that ``(dev, ino)`` comparison is not
        sufficient, which only manifests if identity is number-based.
        """
        return (self.device, self.ino)

    def __repr__(self):  # pragma: no cover - debugging aid
        return "<Inode #{} {} label={} uid={} mode={:o}>".format(
            self.ino, self.itype.value, self.label, self.uid, self.mode
        )


class InodeTable:
    """Allocates, tracks, and recycles inodes for one device.

    Inode numbers come from a monotonically increasing counter unless the
    free list is non-empty, in which case the lowest freed number is
    reused first (eager recycling makes the cryogenic-sleep race easy to
    script deterministically).
    """

    def __init__(self, device=0, first_ino=2, clock=None):
        self.device = device
        self._next_ino = first_ino
        self._free = []  # sorted list of recycled numbers
        self._live = {}  # type: Dict[int, Inode]
        self._generation = {}  # ino -> times this number has been used
        self._clock = clock

    def _now(self):
        return self._clock.now() if self._clock is not None else 0

    def __len__(self):
        return len(self._live)

    def alloc(self, itype, uid=0, gid=0, mode=0o644, label="unlabeled_t"):
        """Create a new inode, reusing a freed number when available."""
        if self._free:
            ino = self._free.pop(0)
        else:
            ino = self._next_ino
            self._next_ino += 1
        gen = self._generation.get(ino, 0) + 1
        self._generation[ino] = gen
        inode = Inode(
            ino,
            itype,
            uid=uid,
            gid=gid,
            mode=mode,
            label=label,
            device=self.device,
            generation=gen,
            now=self._now(),
        )
        self._live[ino] = inode
        return inode

    def get(self, ino):
        """Look up a live inode by number, raising ``ENOENT`` if freed."""
        try:
            return self._live[ino]
        except KeyError:
            raise errors.ENOENT("stale inode {}".format(ino))

    def is_live(self, ino):
        return ino in self._live

    def link_added(self, inode):
        inode.nlink += 1

    def link_removed(self, inode):
        """Drop a directory entry reference; release if fully dead."""
        if inode.nlink <= 0:
            raise errors.EINVAL("nlink underflow on inode {}".format(inode.ino))
        inode.nlink -= 1
        self._maybe_release(inode)

    def opened(self, inode):
        inode.opens += 1

    def closed(self, inode):
        if inode.opens <= 0:
            raise errors.EINVAL("open-count underflow on inode {}".format(inode.ino))
        inode.opens -= 1
        self._maybe_release(inode)

    def _maybe_release(self, inode):
        """Free the inode number once no links and no opens remain.

        This is the recycling point: as long as any process holds the file
        open the number stays pinned, which is exactly the property the
        paper's ``open_race`` defence (extra ``lstat`` while holding the
        fd) depends on.
        """
        if inode.nlink == 0 and inode.opens == 0 and inode.ino in self._live:
            del self._live[inode.ino]
            self._free.append(inode.ino)
            self._free.sort()
