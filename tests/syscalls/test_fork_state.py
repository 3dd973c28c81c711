"""Regressions: firewall state and signals across fork/execve.

The two bugs this file pins:

- ``fork()`` used to drop ``proc.pf.state`` entirely, so a STATE
  invariant recorded by the parent (the TOCTTOU template's check
  identity) silently stopped protecting forked workers — the missing
  key never matches, which reads as an allow;
- ``execve()`` used to rebuild ``proc.signals`` keeping only the
  blocked set, discarding pending signals, while POSIX keeps pending
  signals across exec (only caught dispositions reset).
"""

import pytest

from repro import errors
from repro.firewall.engine import EngineConfig, ProcessFirewall
from repro.proc import signals as sig
from repro.world import build_world, spawn_root_shell

#: The dbus TOCTTOU template: record the socket inode at bind, drop a
#: setattr whose current inode no longer matches the recorded one.
STATE_RULES = (
    "pftables -A input -o SOCKET_BIND -j STATE --set --key 0xbeef --value C_INO",
    "pftables -A input -o SOCKET_SETATTR -m STATE --key 0xbeef --cmp C_INO --nequal -j DROP",
)


def _state_world():
    kernel = build_world()
    firewall = ProcessFirewall(EngineConfig.compiled())
    kernel.attach_firewall(firewall)
    for text in STATE_RULES:
        firewall.install(text)
    return kernel, firewall


class TestForkStateInheritance:
    def test_state_rule_set_pre_fork_changes_child_verdict(self):
        """The regression: a STATE invariant recorded before fork must
        flip the *child's* verdict on the protected operation."""
        kernel, _ = _state_world()
        parent = kernel.sys.fork(spawn_root_shell(kernel))
        kernel.sys.bind(parent, "/tmp/decoy.sock")
        kernel.sys.bind(parent, "/tmp/real.sock")  # records real.sock's inode
        child = kernel.sys.fork(parent)
        # Without inheritance the key is absent, STATE never matches,
        # and this chmod of the wrong socket would be allowed.
        with pytest.raises(errors.PFDenied):
            kernel.sys.chmod(child, "/tmp/decoy.sock", 0o600)
        # The recorded socket itself still matches the invariant.
        kernel.sys.chmod(child, "/tmp/real.sock", 0o600)

    def test_child_write_does_not_leak_into_parent(self):
        kernel, _ = _state_world()
        parent = spawn_root_shell(kernel)
        kernel.sys.bind(parent, "/tmp/parent.sock")
        recorded = dict(parent.pf.state)
        child = kernel.sys.fork(parent)
        kernel.sys.bind(child, "/tmp/child.sock")  # child's STATE write
        assert dict(parent.pf.state) == recorded
        # And the parent's invariant still drops the now-mismatched
        # chmod in the *child*, while the parent remains consistent.
        with pytest.raises(errors.PFDenied):
            kernel.sys.chmod(child, "/tmp/parent.sock", 0o600)
        kernel.sys.chmod(parent, "/tmp/parent.sock", 0o600)

    def test_parent_write_after_fork_does_not_leak_into_child(self):
        kernel, _ = _state_world()
        parent = spawn_root_shell(kernel)
        kernel.sys.bind(parent, "/tmp/old.sock")
        child = kernel.sys.fork(parent)
        kernel.sys.bind(parent, "/tmp/new.sock")  # parent moves on
        # The child still holds the pre-fork snapshot: old.sock matches.
        kernel.sys.chmod(child, "/tmp/old.sock", 0o600)
        with pytest.raises(errors.PFDenied):
            kernel.sys.chmod(child, "/tmp/new.sock", 0o600)

    def test_execve_clears_inherited_state(self, world):
        root = spawn_root_shell(world)
        root.pf.state["k"] = 1
        child = world.sys.fork(root)
        world.sys.execve(child, "/bin/sh")
        assert dict(child.pf.state) == {}
        assert dict(root.pf.state) == {"k": 1}


class TestDecisionCacheDivergence:
    def _warm_world(self):
        kernel, firewall = _state_world()
        # An entrypoint rule so FILE_GETATTR memoizes head sets.
        firewall.install("pftables -A input -i 0x2d637 -p /bin/sh -o FILE_GETATTR -j DROP")
        proc = spawn_root_shell(kernel)
        for _ in range(2):
            kernel.sys.stat(proc, "/etc/passwd")
        assert proc.pf.decision_cache is not None
        return kernel, proc

    def test_parent_and_child_caches_diverge_independently(self):
        kernel, parent = self._warm_world()
        child = kernel.sys.fork(parent)
        assert child.pf.decision_cache[1] == parent.pf.decision_cache[1]
        assert child.pf.decision_cache[1] is not parent.pf.decision_cache[1]
        # Child memoizes a new entrypoint head into its own entries.
        child.call(child.binary, 0x1)
        kernel.sys.stat(child, "/etc/passwd")
        child_entries = child.pf.decision_cache[1]
        parent_entries = parent.pf.decision_cache[1]
        assert child_entries is not parent_entries
        child_heads = next(v for v in child_entries.values() if v is not True)
        parent_heads = next(v for v in parent_entries.values() if v is not True)
        assert ("/bin/sh", 0x1) in child_heads
        assert ("/bin/sh", 0x1) not in parent_heads
        # Divergence is symmetric: the parent keeps memoizing into its
        # own entries without touching the child's.
        parent.call(parent.binary, 0x2)
        kernel.sys.stat(parent, "/etc/passwd")
        assert ("/bin/sh", 0x2) in parent_heads or ("/bin/sh", 0x2) in next(
            v for v in parent.pf.decision_cache[1].values() if v is not True
        )
        assert ("/bin/sh", 0x2) not in child_heads

    def test_state_target_in_child_invalidates_only_child(self):
        kernel, parent = self._warm_world()
        child = kernel.sys.fork(parent)
        kernel.sys.bind(child, "/tmp/c.sock")  # STATE target fires in child
        assert child.pf.decision_cache is None
        assert parent.pf.decision_cache is not None


class TestExecvePendingSignals:
    def test_pending_blocked_signal_survives_exec(self, world, root):
        """The regression: a blocked-then-raised signal must still be
        pending after execve, not silently discarded."""
        sys = world.sys
        other = world.sys.fork(root)
        sys.sigprocmask(root, block=[sig.SIGTERM])
        sys.kill(other, root.pid, sig.SIGTERM)
        assert (other.pid, sig.SIGTERM) in root.signals.pending
        sys.execve(root, "/bin/sh")
        assert (other.pid, sig.SIGTERM) in root.signals.pending
        assert root.signals.is_blocked(sig.SIGTERM)

    def test_caught_disposition_still_resets(self, world, root):
        sys = world.sys
        sys.sigaction(root, sig.SIGUSR1, handler_pc=0x100)
        sys.sigprocmask(root, block=[sig.SIGUSR1])
        sys.kill(root, root.pid, sig.SIGUSR1)
        sys.execve(root, "/bin/sh")
        # Pending survives, but the handler registration does not.
        assert any(signum == sig.SIGUSR1 for _, signum in root.signals.pending)
        assert not root.signals.disposition(sig.SIGUSR1).is_handled


def test_fork_allocates_one_state_bundle(monkeypatch):
    """A fork hands the child its copy of the parent's bundle through
    ``Process(pf=...)``: over 100 fork+exit pairs on a root shell no
    ``ProcState()`` is built and thrown away (before, each fork built
    one that the copy then replaced), and each child holds a bundle
    of its own."""
    from repro.firewall.procstate import ProcState

    kernel, _ = _state_world()
    shell = spawn_root_shell(kernel)
    built = []
    original = ProcState.__init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(ProcState, "__init__", counting)
    for _ in range(100):
        child = kernel.sys.fork(shell)
        assert child.pf is not shell.pf
        kernel.sys.exit(child, 0)
    assert built == []
