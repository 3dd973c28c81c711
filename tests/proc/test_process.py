"""Process model: credentials, descriptors, images."""

import pytest

from repro import errors
from repro.proc.process import Credentials, MAX_FDS, Process
from repro.proc.stack import BinaryImage


class TestCredentials:
    def test_defaults_effective_to_real(self):
        creds = Credentials(uid=5, gid=6)
        assert (creds.euid, creds.egid) == (5, 6)

    def test_setuid_detection(self):
        assert Credentials(uid=1000, euid=0).is_setuid
        assert not Credentials(uid=0).is_setuid

    def test_setgid_detection(self):
        assert Credentials(uid=1, gid=1000, egid=0).is_setuid

    def test_copy_is_independent(self):
        creds = Credentials(uid=5)
        clone = creds.copy()
        clone.euid = 0
        assert creds.euid == 5


class TestFdTable:
    def test_install_returns_increasing_fds(self):
        proc = Process(1, "t")
        assert proc.install_fd(object()) == 3
        assert proc.install_fd(object()) == 4

    def test_get_and_drop(self):
        proc = Process(1, "t")
        handle = object()
        fd = proc.install_fd(handle)
        assert proc.get_fd(fd) is handle
        assert proc.drop_fd(fd) is handle
        with pytest.raises(errors.EBADF):
            proc.get_fd(fd)

    def test_bad_fd_raises(self):
        with pytest.raises(errors.EBADF):
            Process(1, "t").get_fd(99)

    def test_table_limit(self):
        proc = Process(1, "t")
        proc._next_fd = 3
        for _ in range(MAX_FDS):
            proc.install_fd(object())
        with pytest.raises(errors.EMFILE):
            proc.install_fd(object())


class TestImages:
    def test_image_for_pc(self):
        proc = Process(1, "t", binary=BinaryImage("/bin/sh", base=0x400000, size=0x1000))
        lib = BinaryImage("/lib/libc.so.6", base=0x700000, size=0x1000)
        proc.map_image(lib)
        assert proc.image_for_pc(0x400010) is proc.binary
        assert proc.image_for_pc(0x700010) is lib
        assert proc.image_for_pc(0x1) is None

    def test_call_ret_discipline(self):
        image = BinaryImage("/bin/sh", base=0x400000, size=0x10000)
        proc = Process(1, "t", binary=image)
        proc.call(image, 0x100, function="f")
        assert proc.stack.depth == 1
        assert proc.stack.top().entrypoint() == ("/bin/sh", 0x100)
        proc.ret()
        assert proc.stack.depth == 0

    def test_pf_state_is_per_process(self):
        a = Process(1, "a")
        b = Process(2, "b")
        a.pf.state["k"] = 1
        assert "k" not in b.pf.state
