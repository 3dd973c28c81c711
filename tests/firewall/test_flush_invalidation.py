"""flush() must leave no stale decision state behind.

The regression pinned here: ``flush()`` replaces the rule base and
zeroes counters, but the engine also keeps derived decision state —
the per-op chain memo and per-process negative-decision caches.  If
either survived a flush and was consulted against the *new* rule base,
a verdict memoized under the old rules could leak through (a stale
default-allow after stricter rules were installed is a security hole,
not just a stats bug).
"""

import pytest

from repro import errors
from repro.firewall.engine import EngineConfig, ProcessFirewall
from repro.world import build_world, spawn_root_shell


def _world(config=None):
    world = build_world()
    firewall = ProcessFirewall(config or EngineConfig.optimized())
    world.attach_firewall(firewall)
    shell = spawn_root_shell(world)
    return world, firewall, shell


class TestVerdictsAfterFlush:
    def test_flush_disarms_old_rules(self):
        world, firewall, shell = _world()
        firewall.install("pftables -A input -o FILE_OPEN -d shadow_t -j DROP")
        with pytest.raises(errors.PFDenied):
            world.sys.open(shell, "/etc/shadow")
        firewall.flush()
        fd = world.sys.open(shell, "/etc/shadow")
        world.sys.close(shell, fd)

    def test_no_stale_decision_cache_after_flush(self):
        """The critical direction: a memoized default-allow must not
        survive a flush + stricter reinstall."""
        world, firewall, shell = _world(EngineConfig.compiled())
        # Subject-only rule that misses for the shell: the allow
        # verdict is memoized in the per-process decision cache.
        firewall.install("pftables -A input -o FILE_OPEN -s sshd_t -j DROP")
        for _ in range(3):
            fd = world.sys.open(shell, "/etc/passwd")
            world.sys.close(shell, fd)
        assert firewall.stats.decision_cache_hits > 0
        assert shell.pf.decision_cache is not None
        firewall.flush()
        # Stricter rules: the same access must now be denied even
        # though the process still carries the old cache tuple.
        firewall.install(
            "pftables -A input -o FILE_OPEN -s unconfined_t -j DROP")
        with pytest.raises(errors.PFDenied):
            world.sys.open(shell, "/etc/passwd")

    def test_no_stale_chain_memo_after_flush(self):
        world, firewall, shell = _world()
        # No FILE_OPEN rules: the op-index memo learns "no relevant
        # chains" for FILE_OPEN (fast path).
        firewall.install("pftables -A input -o FILE_READ -d shadow_t -j DROP")
        fd = world.sys.open(shell, "/etc/passwd")
        world.sys.close(shell, fd)
        firewall.flush()
        assert firewall._chain_memo == {}
        assert firewall._chain_memo_stamp is None
        firewall.install("pftables -A input -o FILE_OPEN -d etc_t -j DROP")
        with pytest.raises(errors.PFDenied):
            world.sys.open(shell, "/etc/passwd")


class TestHistoryAfterFlush:
    def test_flush_clears_audit_metrics_and_traces(self):
        world, firewall, shell = _world()
        firewall.install(
            "pftables -A input -o FILE_OPEN -d shadow_t -j LOG --prefix s")
        firewall.install("pftables -A input -o FILE_OPEN -d shadow_t -j DROP")
        firewall.metrics.enable()
        tracer = firewall.enable_tracing()
        with pytest.raises(errors.PFDenied):
            world.sys.open(shell, "/etc/shadow")
        assert firewall.audit.records(kind="log") and firewall.metrics.counters() and len(tracer)
        firewall.flush()
        assert firewall.audit.records(kind="log") == []
        assert len(firewall.audit) == 0
        assert firewall.metrics.counters() == []
        assert firewall.metrics.phases() == {}
        assert len(tracer) == 0
        # The registry's enabled flag and the tracer itself survive:
        # flush resets history, not instrumentation choices.
        assert firewall.metrics.enabled is True
        assert firewall.tracer is tracer

    def test_stats_reset_alone_never_changes_decisions(self):
        """EngineStats.reset() is pure bookkeeping: verdicts before and
        after must be identical (the reset()/flush() asymmetry)."""
        world, firewall, shell = _world(EngineConfig.compiled())
        firewall.install("pftables -A input -o FILE_OPEN -d shadow_t -j DROP")
        with pytest.raises(errors.PFDenied):
            world.sys.open(shell, "/etc/shadow")
        firewall.stats.reset()
        assert firewall.stats.invocations == 0
        with pytest.raises(errors.PFDenied):
            world.sys.open(shell, "/etc/shadow")
        fd = world.sys.open(shell, "/etc/passwd")
        world.sys.close(shell, fd)
