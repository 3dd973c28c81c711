"""The open syscall: flags, creation, symlink semantics."""

import pytest

from repro import errors
from repro.api import Session
from repro.security.lsm import Op
from repro.service.core import record_mediations
from repro.vfs.file import OpenFlags
from repro.world import spawn_adversary, spawn_root_shell


@pytest.fixture
def sys(world):
    return world.sys


#: ``open(proc, "/tmp/f", flags)`` on an existing file, recorded when
#: ``OpenFlags`` was an ``enum.IntFlag`` and ``open`` coerced with
#: ``OpenFlags(flags)``: the flags ``syscallbegin`` sees, then the
#: opened description's ``flags`` or the errno.  ``None`` stands for a
#: ``ValueError`` raised before the syscall begins.
FLAG_COERCION = [
    (0, 0, 0),
    (1, 1, 1),
    (2, 2, 2),
    (0x41, 0x41, 0x41),
    (0x241, 0x241, 0x241),
    (0x441, 0x441, 0x441),
    (0xC1, 0xC1, "EEXIST"),
    (0x10000, 0x10000, "ENOTDIR"),
    (0x20000, 0x20000, 0x20000),
    (8, 8, 8),
    (1 << 40, 1 << 40, 1 << 40),
    (True, 1, 1),
    (False, 0, 0),
    (-1, 0x3FFFF, "EEXIST"),
    (-0x40000, 0, 0),
    (-0x40001, 0x3FFFF, "EEXIST"),
    (-(1 << 40), 1 << 40, 1 << 40),
    (-(1 << 40) - 1, (1 << 40) - 1, "EEXIST"),
    (OpenFlags.O_RDWR, 2, 2),
    (2.0, 2, 2),
    (0.0, 0, 0),
    ("1", None, None),
    (1.5, None, None),
    (None, None, None),
    (b"1", None, None),
    ([1], None, None),
]


@pytest.mark.parametrize("value,begun,outcome", FLAG_COERCION, ids=repr)
def test_flag_coercion_unchanged(value, begun, outcome):
    session = Session(engine="COMPILED")
    kernel = session.kernel
    kernel.add_file("/tmp/f", b"data")
    proc = kernel.spawn("p", uid=0)
    with record_mediations(session.firewall) as captured:
        if begun is None:
            with pytest.raises(ValueError):
                kernel.sys.open(proc, "/tmp/f", value)
        elif isinstance(outcome, str):
            with pytest.raises(errors.KernelError) as raised:
                kernel.sys.open(proc, "/tmp/f", value)
            assert raised.value.errno_name == outcome
        else:
            fd = kernel.sys.open(proc, "/tmp/f", value)
            flags = proc.get_fd(fd).flags
            assert type(flags) is int and flags == outcome
    begins = [op.args for op in captured if op.op is Op.SYSCALL_BEGIN]
    if begun is None:
        assert begins == []
    else:
        assert begins == [("open", "/tmp/f", begun)]
        assert type(begins[0][2]) is int


class TestBasicOpen:
    def test_open_read(self, world, root, sys):
        fd = sys.open(root, "/etc/passwd")
        assert b"root:" in sys.read(root, fd)

    def test_open_missing_raises(self, root, sys):
        with pytest.raises(errors.ENOENT):
            sys.open(root, "/etc/nothing")

    def test_open_write_requires_flag(self, root, sys):
        fd = sys.open(root, "/etc/passwd")
        with pytest.raises(errors.EBADF):
            sys.write(root, fd, b"x")

    def test_open_directory_read_ok(self, root, sys):
        fd = sys.open(root, "/etc", flags=OpenFlags.O_RDONLY | OpenFlags.O_DIRECTORY)
        assert fd >= 3

    def test_o_directory_on_file_raises(self, root, sys):
        with pytest.raises(errors.ENOTDIR):
            sys.open(root, "/etc/passwd", flags=OpenFlags.O_DIRECTORY)

    def test_write_open_on_directory_raises(self, root, sys):
        with pytest.raises(errors.EISDIR):
            sys.open(root, "/etc", flags=OpenFlags.O_WRONLY)

    def test_dac_denies_unreadable(self, world, adversary, sys):
        with pytest.raises(errors.EACCES):
            sys.open(adversary, "/etc/shadow")

    def test_close_releases_fd(self, root, sys):
        fd = sys.open(root, "/etc/passwd")
        sys.close(root, fd)
        with pytest.raises(errors.EBADF):
            sys.read(root, fd)


class TestCreate:
    def test_o_creat_creates(self, world, root, sys):
        fd = sys.open(root, "/tmp/new", flags=OpenFlags.O_CREAT | OpenFlags.O_WRONLY, mode=0o644)
        sys.write(root, fd, b"data")
        assert world.lookup("/tmp/new").data == b"data"

    def test_umask_applied(self, world, root, sys):
        sys.open(root, "/tmp/masked", flags=OpenFlags.O_CREAT, mode=0o666)
        assert world.lookup("/tmp/masked").mode & 0o777 == 0o644

    def test_owner_is_effective_uid(self, world, adversary, sys):
        sys.open(adversary, "/tmp/mine", flags=OpenFlags.O_CREAT)
        assert world.lookup("/tmp/mine").uid == adversary.creds.euid

    def test_label_inherited_from_directory(self, world, root, sys):
        sys.open(root, "/tmp/labelled", flags=OpenFlags.O_CREAT)
        assert world.lookup("/tmp/labelled").label == "tmp_t"

    def test_o_excl_refuses_existing(self, world, root, sys):
        world.add_file("/tmp/exists")
        with pytest.raises(errors.EEXIST):
            sys.open(root, "/tmp/exists", flags=OpenFlags.O_CREAT | OpenFlags.O_EXCL)

    def test_o_creat_reuses_existing(self, world, root, sys):
        existing = world.add_file("/tmp/exists", b"old")
        fd = sys.open(root, "/tmp/exists", flags=OpenFlags.O_CREAT | OpenFlags.O_RDONLY)
        assert sys.read(root, fd) == b"old"

    def test_o_trunc_clears(self, world, root, sys):
        world.add_file("/tmp/full", b"old-data")
        sys.open(root, "/tmp/full", flags=OpenFlags.O_WRONLY | OpenFlags.O_TRUNC)
        assert world.lookup("/tmp/full").data == b""

    def test_create_requires_dir_write(self, world, adversary, sys):
        with pytest.raises(errors.EACCES):
            sys.open(adversary, "/etc/evil", flags=OpenFlags.O_CREAT)


class TestSymlinkSemantics:
    def test_final_symlink_followed(self, world, root, adversary, sys):
        sys.symlink(adversary, "/etc/passwd", "/tmp/link")
        fd = sys.open(root, "/tmp/link")
        assert b"root:" in sys.read(root, fd)

    def test_o_nofollow_refuses_final_link(self, world, root, adversary, sys):
        sys.symlink(adversary, "/etc/passwd", "/tmp/link")
        with pytest.raises(errors.ELOOP):
            sys.open(root, "/tmp/link", flags=OpenFlags.O_NOFOLLOW)

    def test_o_creat_through_existing_link_opens_target(self, world, root, adversary, sys):
        """The /tmp squat: O_CREAT follows a planted link."""
        sys.symlink(adversary, "/etc/passwd", "/tmp/victim")
        fd = sys.open(root, "/tmp/victim", flags=OpenFlags.O_CREAT | OpenFlags.O_WRONLY)
        sys.write(root, fd, b"CLOBBERED")
        assert world.lookup("/etc/passwd").data.startswith(b"CLOBBERED")

    def test_o_creat_through_dangling_link_creates_target(self, world, root, adversary, sys):
        sys.symlink(adversary, "/tmp/target-spot", "/tmp/victim")
        sys.open(root, "/tmp/victim", flags=OpenFlags.O_CREAT | OpenFlags.O_WRONLY)
        assert world.lookup("/tmp/target-spot", follow=False) is not None

    def test_symlink_loop_eloop(self, world, root, sys):
        world.add_symlink("/tmp/a", "/tmp/b")
        world.add_symlink("/tmp/b", "/tmp/a")
        with pytest.raises(errors.ELOOP):
            sys.open(root, "/tmp/a")

    def test_relative_final_link(self, world, root, adversary, sys):
        sys.symlink(adversary, "../etc/passwd", "/tmp/rel")
        fd = sys.open(root, "/tmp/rel")
        assert b"root:" in sys.read(root, fd)


class TestMediationCounts:
    def test_dir_search_per_component(self, world, root, sys):
        before = world.stats.mediations
        sys.open(root, "/etc/passwd")
        # 2 DIR_SEARCH (etc, passwd lookups) + FILE_OPEN = 3.
        assert world.stats.mediations - before == 3

    def test_syscall_accounted(self, world, root, sys):
        sys.open(root, "/etc/passwd")
        assert world.stats.syscalls.get("open") == 1
