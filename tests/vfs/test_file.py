"""Open file descriptions."""

import pytest

from repro import errors
from repro.vfs.file import OpenFile, OpenFlags, wants_read, wants_write
from repro.vfs.filesystem import FileSystem
from repro.vfs.inode import FileType


@pytest.fixture
def fs():
    return FileSystem()


def make_file(fs, data=b"hello world", flags=OpenFlags.O_RDWR):
    inode = fs.create(fs.root, "f", FileType.REG, exclusive=False)
    inode.data = data
    return OpenFile(inode, flags, "/f", fs.inodes)


class TestFlags:
    """Flags are plain ints; the access they grant is read off the
    access-mode bits."""

    def test_rdonly_reads(self):
        assert wants_read(OpenFlags.O_RDONLY)
        assert not wants_write(OpenFlags.O_RDONLY)

    def test_wronly(self):
        assert wants_write(OpenFlags.O_WRONLY)
        assert not wants_read(OpenFlags.O_WRONLY)

    def test_rdwr(self):
        flags = OpenFlags.O_RDWR
        assert wants_read(flags) and wants_write(flags)

    def test_combined_flags_preserved(self):
        flags = OpenFlags.O_CREAT | OpenFlags.O_WRONLY | OpenFlags.O_EXCL
        assert type(flags) is int
        assert flags & OpenFlags.O_CREAT
        assert wants_write(flags)

    def test_open_file_works_out_access_once(self, fs):
        f = make_file(fs, flags=OpenFlags.O_WRONLY | OpenFlags.O_APPEND)
        assert f.flags == 0x401
        assert (f.readable, f.writable) == (False, True)


class TestReadWrite:
    def test_read_all(self, fs):
        assert make_file(fs).read() == b"hello world"

    def test_read_sized_advances_offset(self, fs):
        f = make_file(fs)
        assert f.read(5) == b"hello"
        assert f.read(6) == b" world"

    def test_write_at_offset(self, fs):
        f = make_file(fs)
        f.write(b"HELLO")
        assert f.inode.data == b"HELLO world"

    def test_write_str_encodes(self, fs):
        f = make_file(fs, data=b"")
        f.write("text")
        assert f.inode.data == b"text"

    def test_append_mode(self, fs):
        f = make_file(fs, flags=OpenFlags.O_WRONLY | OpenFlags.O_APPEND)
        f.write(b"!")
        assert f.inode.data == b"hello world!"

    def test_write_extends(self, fs):
        f = make_file(fs, data=b"ab")
        f.read(2)
        f.write(b"cd")
        assert f.inode.data == b"abcd"

    def test_read_on_wronly_raises(self, fs):
        f = make_file(fs, flags=OpenFlags.O_WRONLY)
        with pytest.raises(errors.EBADF):
            f.read()

    def test_write_on_rdonly_raises(self, fs):
        f = make_file(fs, flags=OpenFlags.O_RDONLY)
        with pytest.raises(errors.EBADF):
            f.write(b"x")

    def test_read_directory_raises(self, fs):
        d = fs.create(fs.root, "d", FileType.DIR)
        f = OpenFile(d, OpenFlags.O_RDONLY, "/d", fs.inodes)
        with pytest.raises(errors.EISDIR):
            f.read()


class TestLifecycle:
    def test_open_increments_opens(self, fs):
        f = make_file(fs)
        assert f.inode.opens == 1

    def test_close_decrements(self, fs):
        f = make_file(fs)
        f.close()
        assert f.inode.opens == 0

    def test_double_close_harmless(self, fs):
        f = make_file(fs)
        f.close()
        f.close()
        assert f.inode.opens == 0

    def test_io_after_close_raises(self, fs):
        f = make_file(fs)
        f.close()
        with pytest.raises(errors.EBADF):
            f.read()
        with pytest.raises(errors.EBADF):
            f.write(b"x")

    def test_dup_needs_two_closes(self, fs):
        """Fork-inherited descriptors share the description."""
        f = make_file(fs)
        f.dup()
        f.close()
        assert not f.closed
        f.close()
        assert f.closed
        assert f.inode.opens == 0
