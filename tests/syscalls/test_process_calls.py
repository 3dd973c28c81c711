"""fork / execve / exit / setuid / mmap."""

import pytest

from repro import errors
from repro.vfs.file import OpenFlags


@pytest.fixture
def sys(world):
    return world.sys


class TestFork:
    def test_child_gets_new_pid(self, world, root, sys):
        child = sys.fork(root)
        assert child.pid != root.pid
        assert child.ppid == root.pid

    def test_child_shares_open_files(self, world, root, sys):
        fd = sys.open(root, "/etc/passwd")
        child = sys.fork(root)
        assert sys.read(child, fd) == sys.read(root, fd) or True  # offset shared
        # Closing in the child must not kill the parent's descriptor.
        sys.close(child, fd)
        assert sys.read(root, fd) is not None

    def test_child_copies_credentials(self, world, adversary, sys):
        child = sys.fork(adversary)
        assert child.creds.uid == adversary.creds.uid
        child.creds.euid = 0
        assert adversary.creds.euid == 1000

    def test_child_copies_stack(self, world, root, sys):
        root.stack.push(0x1)
        child = sys.fork(root)
        assert child.stack.depth == 1
        child.stack.pop()
        assert root.stack.depth == 1

    def test_child_registered(self, world, root, sys):
        child = sys.fork(root)
        assert world.get_process(child.pid) is child


class TestExecve:
    def test_execve_replaces_image(self, world, root, sys):
        old_base = root.binary.base
        sys.execve(root, "/usr/bin/php5")
        assert root.binary.path == "/usr/bin/php5"
        assert root.comm == "php5"

    def test_execve_clears_stack_and_state(self, world, root, sys):
        root.stack.push(0x1)
        root.pf.state["key"] = 1
        sys.execve(root, "/bin/sh")
        assert root.stack.depth == 0
        assert root.pf.state == {}

    def test_execve_setuid_binary_raises_euid(self, world, adversary, sys):
        world.add_file("/usr/bin/sudo-like", b"\x7fELF", uid=0, mode=0o4755, label="bin_t")
        sys.execve(adversary, "/usr/bin/sudo-like")
        assert adversary.creds.euid == 0
        assert adversary.creds.uid == 1000

    def test_execve_requires_x(self, world, adversary, sys):
        world.add_file("/tmp/noexec", b"x", uid=0, mode=0o644)
        with pytest.raises(errors.EACCES):
            sys.execve(adversary, "/tmp/noexec")

    def test_execve_missing_raises(self, root, sys):
        with pytest.raises(errors.ENOENT):
            sys.execve(root, "/bin/none")


class TestExit:
    def test_exit_reaps(self, world, root, sys):
        child = sys.fork(root)
        sys.exit(child, 3)
        assert not child.alive
        assert child.exit_code == 3
        with pytest.raises(errors.ESRCH):
            world.get_process(child.pid)

    def test_exit_closes_fds(self, world, root, sys):
        fd = sys.open(root, "/etc/passwd")
        inode = root.get_fd(fd).inode
        sys.exit(root, 0)
        assert inode.opens == 0


class TestSetuid:
    def test_root_sets_any(self, world, root, sys):
        sys.setuid(root, 1000)
        assert (root.creds.uid, root.creds.euid) == (1000, 1000)

    def test_nonroot_cannot_escalate(self, world, adversary, sys):
        with pytest.raises(errors.EPERM):
            sys.setuid(adversary, 0)

    def test_seteuid_drop_and_regain_semantics(self, world, sys):
        setuid_proc = world.spawn("tool", uid=1000, label="unconfined_t", binary_path="/bin/sh")
        setuid_proc.creds.euid = 0
        sys.seteuid(setuid_proc, 1000)  # drop
        assert setuid_proc.creds.euid == 1000

    def test_seteuid_other_denied(self, world, adversary, sys):
        with pytest.raises(errors.EPERM):
            sys.seteuid(adversary, 1234)


class TestMmap:
    def test_mmap_returns_data(self, world, root, sys):
        fd = sys.open(root, "/etc/passwd")
        assert b"root:" in sys.mmap(root, fd)

    def test_mmap_as_image_maps(self, world, root, sys):
        fd = sys.open(root, "/lib/libc.so.6")
        image = sys.mmap(root, fd, as_image=True)
        assert image.path == "/lib/libc.so.6"
        assert image in root.images


class TestForkExecInheritance:
    """fork(2)/execve(2) signal and umask semantics."""

    def test_fork_inherits_umask(self, world, root, sys):
        sys.umask(root, 0o077)
        child = sys.fork(root)
        sys.open(child, "/tmp/kidfile", flags=OpenFlags.O_CREAT, mode=0o666)
        assert world.lookup("/tmp/kidfile").mode & 0o777 == 0o600

    def test_fork_inherits_handlers_independently(self, world, root, sys):
        from repro.proc import signals as sig

        sys.sigaction(root, sig.SIGUSR1, handler_pc=0x100)
        child = sys.fork(root)
        assert child.signals.disposition(sig.SIGUSR1).is_handled
        # Child changes are isolated from the parent.
        sys.sigaction(child, sig.SIGUSR2, handler_pc=0x200)
        assert not root.signals.disposition(sig.SIGUSR2).is_handled

    def test_fork_inherits_blocked_set(self, world, root, sys):
        from repro.proc import signals as sig

        sys.sigprocmask(root, block=[sig.SIGTERM])
        child = sys.fork(root)
        assert child.signals.is_blocked(sig.SIGTERM)

    def test_execve_resets_handlers_keeps_mask(self, world, root, sys):
        from repro.proc import signals as sig

        sys.sigaction(root, sig.SIGUSR1, handler_pc=0x100)
        sys.sigprocmask(root, block=[sig.SIGTERM])
        sys.execve(root, "/bin/sh")
        assert not root.signals.disposition(sig.SIGUSR1).is_handled
        assert root.signals.is_blocked(sig.SIGTERM)

    def test_execve_clears_script_stack(self, world, root, sys):
        from repro.proc.interp import InterpreterStack

        root.script_stack = InterpreterStack("php")
        root.script_stack.push("/x.php", 1)
        sys.execve(root, "/bin/sh")
        assert root.script_stack is None
