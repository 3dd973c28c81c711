"""dup / dup2 / lseek / ftruncate / umask / mkfifo."""

import pytest

from repro import errors
from repro.vfs.file import OpenFlags
from repro.vfs.inode import FileType


@pytest.fixture
def sys(world):
    return world.sys


class TestDup:
    def test_dup_shares_offset(self, world, root, sys):
        fd = sys.open(root, "/etc/passwd")
        fd2 = sys.dup(root, fd)
        sys.read(root, fd, 4)
        # Shared description: the duplicate sees the advanced offset.
        assert root.get_fd(fd2).offset == 4

    def test_dup_survives_one_close(self, world, root, sys):
        fd = sys.open(root, "/etc/passwd")
        fd2 = sys.dup(root, fd)
        sys.close(root, fd)
        assert sys.read(root, fd2, 4) == b"root"

    def test_dup_bad_fd(self, root, sys):
        with pytest.raises(errors.EBADF):
            sys.dup(root, 99)

    def test_dup2_replaces_target(self, world, root, sys):
        fd_a = sys.open(root, "/etc/passwd")
        fd_b = sys.open(root, "/etc/ld.so.conf")
        inode_b = root.get_fd(fd_b).inode
        sys.dup2(root, fd_a, fd_b)
        assert root.get_fd(fd_b).inode is root.get_fd(fd_a).inode
        assert inode_b.opens == 0  # old description fully closed

    def test_dup2_same_fd_noop(self, world, root, sys):
        fd = sys.open(root, "/etc/passwd")
        assert sys.dup2(root, fd, fd) == fd
        assert sys.read(root, fd, 4) == b"root"


class TestLseek:
    def test_set_and_read(self, world, root, sys):
        world.add_file("/tmp/f", b"0123456789")
        fd = sys.open(root, "/tmp/f")
        sys.lseek(root, fd, 5)
        assert sys.read(root, fd) == b"56789"

    def test_cur_and_end(self, world, root, sys):
        world.add_file("/tmp/f", b"0123456789")
        fd = sys.open(root, "/tmp/f")
        sys.lseek(root, fd, 2)
        assert sys.lseek(root, fd, 2, whence="cur") == 4
        assert sys.lseek(root, fd, -3, whence="end") == 7

    def test_negative_rejected(self, world, root, sys):
        fd = sys.open(root, "/etc/passwd")
        with pytest.raises(errors.EINVAL):
            sys.lseek(root, fd, -1)

    def test_bad_whence(self, world, root, sys):
        fd = sys.open(root, "/etc/passwd")
        with pytest.raises(errors.EINVAL):
            sys.lseek(root, fd, 0, whence="sideways")


class TestFtruncate:
    def test_shrink(self, world, root, sys):
        world.add_file("/tmp/f", b"0123456789")
        fd = sys.open(root, "/tmp/f", flags=OpenFlags.O_RDWR)
        sys.ftruncate(root, fd, 4)
        assert world.lookup("/tmp/f").data == b"0123"

    def test_grow_zero_fills(self, world, root, sys):
        world.add_file("/tmp/f", b"ab")
        fd = sys.open(root, "/tmp/f", flags=OpenFlags.O_RDWR)
        sys.ftruncate(root, fd, 5)
        assert world.lookup("/tmp/f").data == b"ab\x00\x00\x00"

    def test_readonly_rejected(self, world, root, sys):
        fd = sys.open(root, "/etc/passwd")
        with pytest.raises(errors.EBADF):
            sys.ftruncate(root, fd, 0)

    def test_mediated_as_setattr(self, world, root, sys, firewall):
        firewall.install("pftables -A input -o FILE_SETATTR -j LOG")
        world.add_file("/tmp/f", b"x")
        fd = sys.open(root, "/tmp/f", flags=OpenFlags.O_RDWR)
        sys.ftruncate(root, fd, 0)
        assert any(r["op"] == "FILE_SETATTR" for r in firewall.audit.records(kind="log"))


class TestUmaskAndFifo:
    def test_umask_applied_to_creates(self, world, root, sys):
        assert sys.umask(root, 0o077) == 0o022
        sys.open(root, "/tmp/secretish", flags=OpenFlags.O_CREAT, mode=0o666)
        assert world.lookup("/tmp/secretish").mode & 0o777 == 0o600

    def test_mkfifo_creates_fifo(self, world, root, sys):
        inode = sys.mkfifo(root, "/tmp/pipe")
        assert inode.itype is FileType.FIFO

    def test_mkfifo_squat_eexist(self, world, root, adversary, sys):
        sys.mkfifo(adversary, "/tmp/pipe", mode=0o666)
        with pytest.raises(errors.EEXIST):
            sys.mkfifo(root, "/tmp/pipe")

    def test_fifo_squat_blocked_by_adversary_rule(self, world, root, adversary, sys, firewall):
        """A victim that opens an existing FIFO instead of failing can
        be protected by an adversary-accessibility rule."""
        firewall.install(
            "pftables -A input -o FILE_OPEN -m ADVERSARY --writable -j DROP"
        )
        sys.mkfifo(adversary, "/tmp/pipe", mode=0o666)
        with pytest.raises(errors.PFDenied):
            sys.open(root, "/tmp/pipe")
