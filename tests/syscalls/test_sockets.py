"""UNIX-domain socket syscalls."""

import pytest

from repro import errors
from repro.vfs.inode import FileType


@pytest.fixture
def sys(world):
    return world.sys


class TestBind:
    def test_bind_creates_socket_inode(self, world, root, sys):
        inode = sys.bind(root, "/tmp/sock")
        assert inode.itype is FileType.SOCK
        assert inode.bound_socket == root.pid

    def test_bind_existing_name_eaddrinuse(self, world, root, adversary, sys):
        """Squatting manifests as EADDRINUSE for the late binder."""
        sys.bind(adversary, "/tmp/sock", mode=0o777)
        with pytest.raises(errors.EADDRINUSE):
            sys.bind(root, "/tmp/sock")

    def test_bind_requires_dir_write(self, adversary, sys):
        with pytest.raises(errors.EACCES):
            sys.bind(adversary, "/etc/sock")


class TestConnect:
    def test_connect_returns_listener(self, world, root, adversary, sys):
        sys.bind(root, "/tmp/sock", mode=0o777)
        assert sys.connect(adversary, "/tmp/sock") == root.pid

    def test_connect_missing_refused(self, root, sys):
        with pytest.raises(errors.ECONNREFUSED):
            sys.connect(root, "/tmp/none")

    def test_connect_to_regular_file_refused(self, world, root, sys):
        world.add_file("/tmp/file")
        with pytest.raises(errors.ECONNREFUSED):
            sys.connect(root, "/tmp/file")

    def test_connect_through_symlink(self, world, root, adversary, sys):
        """Socket path resolution follows links — the E3 channel."""
        sys.bind(adversary, "/tmp/realsock", mode=0o777)
        sys.symlink(adversary, "/tmp/realsock", "/tmp/alias")
        assert sys.connect(root, "/tmp/alias") == adversary.pid


class TestSocketChmod:
    def test_chmod_socket_uses_socket_setattr(self, world, root, sys, firewall):
        sys.bind(root, "/tmp/sock")
        firewall.install("pftables -A input -o SOCKET_SETATTR -j LOG")
        sys.chmod(root, "/tmp/sock", 0o666)
        assert any(r["op"] == "SOCKET_SETATTR" for r in firewall.audit.records(kind="log"))

    def test_chmod_file_uses_file_setattr(self, world, root, sys, firewall):
        world.add_file("/tmp/f", uid=0)
        firewall.install("pftables -A input -o FILE_SETATTR -j LOG")
        sys.chmod(root, "/tmp/f", 0o644)
        assert any(r["op"] == "FILE_SETATTR" for r in firewall.audit.records(kind="log"))
