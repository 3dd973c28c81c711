"""D-Bus daemon/client and sshd signal handling."""

import pytest

from repro import errors
from repro.proc import signals as sig
from repro.programs.dbus import DbusDaemon, LibDbusClient, SYSTEM_SOCKET
from repro.programs.sshd import Sshd
from repro.world import build_world, spawn_adversary


@pytest.fixture
def world():
    return build_world()


class TestDbusDaemon:
    @pytest.fixture
    def daemon(self, world):
        proc = world.spawn("dbus-daemon", uid=0, label="system_dbusd_t", binary_path="/bin/dbus-daemon")
        return DbusDaemon(world, proc)

    def test_setup_binds_and_chmods(self, world, daemon):
        daemon.setup()
        sock = world.lookup(SYSTEM_SOCKET, follow=False)
        assert sock.bound_socket == daemon.proc.pid
        assert sock.mode & 0o777 == 0o666

    def test_double_bind_raises(self, world, daemon):
        daemon.bind_socket()
        with pytest.raises(errors.EADDRINUSE):
            daemon.bind_socket()


class TestLibDbusClient:
    def test_default_address(self, world):
        proc = world.spawn("app", uid=0, label="unconfined_t", binary_path="/bin/sh")
        assert LibDbusClient(world, proc).bus_address() == SYSTEM_SOCKET

    def test_env_overrides_even_for_setuid(self, world):
        """The E3 bug: no scrubbing for setuid processes."""
        proc = world.spawn(
            "app", uid=1000, label="unconfined_t", binary_path="/bin/sh",
            env={"DBUS_SYSTEM_BUS_ADDRESS": "/tmp/other"},
        )
        proc.creds.euid = 0
        assert LibDbusClient(world, proc).bus_address() == "/tmp/other"

    def test_connect_reaches_daemon(self, world):
        daemon_proc = world.spawn("dbus-daemon", uid=0, label="system_dbusd_t", binary_path="/bin/dbus-daemon")
        DbusDaemon(world, daemon_proc).setup()
        client_proc = world.spawn("app", uid=0, label="unconfined_t", binary_path="/bin/sh")
        assert LibDbusClient(world, client_proc).connect() == daemon_proc.pid

    def test_connect_uses_library_entrypoint(self, world):
        from repro.firewall.engine import ProcessFirewall
        from repro.programs.dbus import EPT_CONNECT, LIBDBUS_PATH

        daemon_proc = world.spawn("dbus-daemon", uid=0, label="system_dbusd_t", binary_path="/bin/dbus-daemon")
        DbusDaemon(world, daemon_proc).setup()
        pf = ProcessFirewall()
        world.attach_firewall(pf)
        pf.install("pftables -A input -o UNIX_STREAM_SOCKET_CONNECT -j LOG")
        client_proc = world.spawn("app", uid=0, label="unconfined_t", binary_path="/bin/sh")
        LibDbusClient(world, client_proc).connect()
        record = [r for r in pf.audit.records(kind="log") if r["op"] == "UNIX_STREAM_SOCKET_CONNECT"][-1]
        assert tuple(record["entrypoint"]) == (LIBDBUS_PATH, EPT_CONNECT)


class TestSshd:
    @pytest.fixture
    def sshd(self, world):
        proc = world.spawn("sshd", uid=0, label="sshd_t", binary_path="/usr/sbin/sshd")
        daemon = Sshd(world, proc)
        daemon.install_handlers()
        return daemon

    def test_handlers_installed(self, sshd):
        assert sshd.proc.signals.disposition(sig.SIGALRM).is_handled
        assert sshd.proc.signals.disposition(sig.SIGTERM).is_handled

    def test_single_signal_no_corruption(self, world, sshd):
        world.sys.kill(sshd.proc, sshd.proc.pid, sig.SIGALRM)
        sshd.note_handler_entry()
        sshd.finish_handler()
        assert not sshd.corrupted
        assert sshd.handler_entries == 1

    def test_reentry_corrupts(self, world, sshd):
        world.sys.kill(sshd.proc, sshd.proc.pid, sig.SIGALRM)
        sshd.note_handler_entry()
        world.sys.kill(sshd.proc, sshd.proc.pid, sig.SIGTERM)
        sshd.note_handler_entry()
        assert sshd.corrupted
