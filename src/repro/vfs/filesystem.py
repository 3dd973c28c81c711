"""The filesystem tree: directories, links, and namespace mutation.

All operations here work on *inodes*, not paths; path-to-inode translation
lives in :mod:`repro.vfs.namei`.  This split mirrors the kernel's
dentry/inode separation and keeps every namespace mutation a single,
atomic dictionary operation — races arise only from the *sequencing* of
syscalls, never from half-applied mutations, which is the property real
kernels provide.
"""

from __future__ import annotations

from repro import errors
from repro.vfs.inode import FileType, InodeTable


class FileSystem:
    """A single-device filesystem with a root directory."""

    def __init__(self, device=0, clock=None, root_label="root_t"):
        self.device = device
        self.inodes = InodeTable(device=device, clock=clock)
        self.root = self.inodes.alloc(FileType.DIR, uid=0, gid=0, mode=0o755, label=root_label)
        self.inodes.link_added(self.root)  # "/" references itself
        self._clock = clock
        #: Mount-table generation: bumped by every (re)mount-style
        #: namespace change.  Part of the walk-replay cache's stamp — a
        #: mount can place any object under new ancestry, so every
        #: cached resolution is suspect after one.
        self.mount_generation = 0
        #: Namespace generation: bumped only by :meth:`relabel`.  Part
        #: of the walk-replay cache's stamp (:mod:`repro.vfs.dcache`),
        #: so a relabel drops every cached walk.  Entry-level mutations
        #: (create / link / unlink / rmdir / rename / symlink) leave it
        #: alone: they report the changed directory through
        #: :meth:`_namespace_changed`, which drops only the cached
        #: walks that searched it.
        self.ns_gen = 0
        #: Optional :class:`repro.vfs.dcache.Dcache` receiving precise
        #: per-entry invalidations from the mutation paths below.
        self.dcache = None

    def attach_dcache(self, dcache):
        """Wire a :class:`repro.vfs.dcache.Dcache` into the mutation hooks.

        Every namespace mutation below then invalidates exactly the
        dentry entry it obsoletes and the cached walks that searched
        the changed directory (and the remount hook clears the caches
        wholesale).  Returns the dcache for chaining.
        """
        self.dcache = dcache
        return dcache

    def _namespace_changed(self, dir_inode, name):
        """One directory entry changed: drop its dentry and the walks
        that searched ``dir_inode``."""
        dcache = self.dcache
        if dcache is not None:
            dcache.entry_changed(dir_inode, name)

    # ------------------------------------------------------------------
    # directory-level primitives
    # ------------------------------------------------------------------

    def lookup(self, dir_inode, name):
        """Return the child inode of ``dir_inode`` named ``name``."""
        if not dir_inode.is_dir:
            raise errors.ENOTDIR("lookup in non-directory inode {}".format(dir_inode.ino))
        if name == ".":
            return dir_inode
        try:
            ino = dir_inode.children[name]
        except KeyError:
            raise errors.ENOENT("no entry {!r} in inode {}".format(name, dir_inode.ino))
        return self.inodes.get(ino)

    def exists(self, dir_inode, name):
        return dir_inode.is_dir and name in dir_inode.children

    def list_dir(self, dir_inode):
        """Return the entry names of a directory, sorted for determinism."""
        if not dir_inode.is_dir:
            raise errors.ENOTDIR("listdir on non-directory")
        return sorted(dir_inode.children)

    # ------------------------------------------------------------------
    # creation
    # ------------------------------------------------------------------

    def create(self, dir_inode, name, itype, uid=0, gid=0, mode=0o644, label=None, exclusive=True):
        """Create a child of ``dir_inode`` and return its inode.

        When ``label`` is omitted the child inherits the parent directory's
        label, approximating SELinux type inheritance for unconfined
        creates.
        """
        self._check_name(name)
        if not dir_inode.is_dir:
            raise errors.ENOTDIR("create in non-directory")
        if name in dir_inode.children:
            if exclusive:
                raise errors.EEXIST("entry {!r} already exists".format(name))
            return self.inodes.get(dir_inode.children[name])
        if label is None:
            label = dir_inode.label
        inode = self.inodes.alloc(itype, uid=uid, gid=gid, mode=mode, label=label)
        dir_inode.children[name] = inode.ino
        self._namespace_changed(dir_inode, name)
        self.inodes.link_added(inode)
        if itype is FileType.DIR:
            # "." and ".." are implicit; a directory's nlink starts at 2
            # in real filesystems but we only track entry references.
            pass
        self._touch(dir_inode)
        return inode

    def symlink(self, dir_inode, name, target, uid=0, gid=0, label=None):
        """Create a symbolic link whose body is the string ``target``."""
        inode = self.create(dir_inode, name, FileType.LNK, uid=uid, gid=gid, mode=0o777, label=label)
        inode.symlink_target = target
        return inode

    def hardlink(self, dir_inode, name, target_inode):
        """Create a second directory entry for an existing inode."""
        self._check_name(name)
        if not dir_inode.is_dir:
            raise errors.ENOTDIR("link in non-directory")
        if name in dir_inode.children:
            raise errors.EEXIST("entry {!r} already exists".format(name))
        if target_inode.is_dir:
            raise errors.EPERM("hard links to directories are not permitted")
        dir_inode.children[name] = target_inode.ino
        self._namespace_changed(dir_inode, name)
        self.inodes.link_added(target_inode)
        self._touch(dir_inode)
        return target_inode

    # ------------------------------------------------------------------
    # removal and rename
    # ------------------------------------------------------------------

    def unlink(self, dir_inode, name):
        """Remove a non-directory entry; the inode may be recycled."""
        child = self.lookup(dir_inode, name)
        if child.is_dir:
            raise errors.EISDIR("unlink on a directory; use rmdir")
        del dir_inode.children[name]
        self._namespace_changed(dir_inode, name)
        self.inodes.link_removed(child)
        self._touch(dir_inode)
        return child

    def rmdir(self, dir_inode, name):
        child = self.lookup(dir_inode, name)
        if not child.is_dir:
            raise errors.ENOTDIR("rmdir on a non-directory")
        if child.children:
            raise errors.ENOTEMPTY("directory {!r} not empty".format(name))
        del dir_inode.children[name]
        self._namespace_changed(dir_inode, name)
        self.inodes.link_removed(child)
        self._touch(dir_inode)
        return child

    def rename(self, src_dir, src_name, dst_dir, dst_name):
        """Atomically move an entry, replacing any existing target.

        Atomic replacement is what makes symlink-swap TOCTTOU attacks a
        single adversary step.  POSIX corner cases honoured: renaming an
        entry onto itself (or onto a hard link of the same inode) is a
        successful no-op, and a directory may not be moved into its own
        subtree.
        """
        self._check_name(dst_name)
        child = self.lookup(src_dir, src_name)
        if dst_name in dst_dir.children and dst_dir.children[dst_name] == child.ino:
            return child  # same object (same entry or a hard link): no-op
        if child.is_dir and self._in_subtree(child, dst_dir):
            raise errors.EINVAL("cannot move a directory into its own subtree")
        if dst_name in dst_dir.children:
            existing = self.inodes.get(dst_dir.children[dst_name])
            if existing.is_dir and existing.children:
                raise errors.ENOTEMPTY("rename target directory not empty")
            del dst_dir.children[dst_name]
            self.inodes.link_removed(existing)
        del src_dir.children[src_name]
        dst_dir.children[dst_name] = child.ino
        self._namespace_changed(src_dir, src_name)
        self._namespace_changed(dst_dir, dst_name)
        self._touch(src_dir)
        self._touch(dst_dir)
        return child

    def _in_subtree(self, root_inode, candidate):
        """True when ``candidate`` is ``root_inode`` or below it."""
        stack = [root_inode]
        seen = set()
        while stack:
            node = stack.pop()
            if node is candidate:
                return True
            if node.ino in seen or not node.is_dir:
                continue
            seen.add(node.ino)
            for ino in node.children.values():
                stack.append(self.inodes.get(ino))
        return False

    # ------------------------------------------------------------------
    # security-metadata mutation (setattr-style)
    # ------------------------------------------------------------------
    #
    # These are the canonical mutation points for inode security
    # metadata; the syscall layer and the kernel route through these.

    def chmod(self, inode, mode):
        """Replace the permission bits of ``inode`` (mode & 07777)."""
        inode.mode = (inode.mode & ~0o7777) | (mode & 0o7777)
        self._touch(inode)
        return inode

    def chown(self, inode, uid, gid=None):
        """Change the owner (and optionally group) of ``inode``."""
        inode.uid = uid
        if gid is not None:
            inode.gid = gid
        self._touch(inode)
        return inode

    def relabel(self, inode, label):
        """Replace the MAC label of ``inode`` (setfattr/restorecon).

        Also bumps :attr:`ns_gen`: a relabel cannot change what a name
        resolves *to*, but the walk-replay cache drops its memoized
        resolutions anyway — the conservative reading of "cache the
        walk, never the verdict" is that any security-metadata change
        forces the next resolution cold.  The MAC check of every walk
        step reads the live label either way, a walk holding a walk
        grant included (:meth:`repro.kernel.WalkGrant.admits`).
        """
        inode.label = label
        self.ns_gen += 1
        self._touch(inode)
        return inode

    def remount(self):
        """Record a mount-table change (mount/umount/bind).

        The reproduction has no true mount namespace; what matters for
        the engine is the *signal*: bumping ``mount_generation``
        invalidates every cached walk at once (and clears the
        dentry/walk caches — a mount can place any object under new
        ancestry).
        """
        self.mount_generation += 1
        if self.dcache is not None:
            self.dcache.clear()
        return self.mount_generation

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _check_name(name):
        if not name or name in (".", "..") or "/" in name:
            raise errors.EINVAL("invalid entry name {!r}".format(name))
        if len(name) > 255:
            raise errors.ENAMETOOLONG(name[:32] + "...")

    def _touch(self, inode):
        if self._clock is not None:
            inode.mtime = self._clock.now()
