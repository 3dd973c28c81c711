"""MetricsRegistry: counters, phases, and the JSON/Prometheus exports."""

import json

import pytest

from repro import errors
from repro.firewall.engine import EngineConfig, ProcessFirewall
from repro.obs import MetricsRegistry, parse_prometheus, registry_from_prometheus
from repro.obs.metrics import PHASE_CACHE_PROBE, PHASE_CHAIN_WALK, PHASE_CONTEXT
from repro.world import build_world, spawn_root_shell


class TestRegistry:
    def test_disabled_by_default(self):
        assert MetricsRegistry().enabled is False
        assert ProcessFirewall().metrics.enabled is False

    def test_inc_and_value(self):
        m = MetricsRegistry()
        m.inc("pf_mediations_total", {"op": "FILE_OPEN"})
        m.inc("pf_mediations_total", {"op": "FILE_OPEN"}, value=2)
        m.inc("pf_mediations_total", {"op": "FILE_READ"})
        m.inc("pf_fast_path_total")
        assert m.value("pf_mediations_total", {"op": "FILE_OPEN"}) == 3
        assert m.value("pf_mediations_total", {"op": "FILE_READ"}) == 1
        assert m.value("pf_fast_path_total") == 1
        assert m.value("pf_never_touched_total") == 0

    def test_label_order_is_irrelevant(self):
        m = MetricsRegistry()
        m.inc("x_total", {"a": "1", "b": "2"})
        assert m.value("x_total", {"b": "2", "a": "1"}) == 1

    def test_observe_phase_accumulates(self):
        m = MetricsRegistry()
        m.observe_phase(PHASE_CONTEXT, 0.25)
        m.observe_phase(PHASE_CONTEXT, 0.75)
        phases = m.phases()
        assert phases[PHASE_CONTEXT]["entries"] == 2
        assert phases[PHASE_CONTEXT]["seconds"] == pytest.approx(1.0)

    def test_reset_drops_values_keeps_enabled(self):
        m = MetricsRegistry(enabled=True)
        m.inc("x_total")
        m.observe_phase(PHASE_CHAIN_WALK, 1.0)
        m.reset()
        assert m.enabled is True
        assert m.counters() == []
        assert m.phases() == {}


class TestExports:
    def _populated(self):
        m = MetricsRegistry()
        m.inc("pf_mediations_total", {"op": "FILE_OPEN"}, value=7)
        m.inc("pf_rule_hits_total", {
            "table": "filter", "chain": "input",
            "rule": 'pftables -A input -s "evil label" -j DROP'})
        m.inc("pf_fast_path_total", value=3)
        m.observe_phase(PHASE_CONTEXT, 0.5)
        m.observe_phase(PHASE_CACHE_PROBE, 0.125)
        return m

    def test_json_export_is_valid_and_complete(self):
        m = self._populated()
        data = json.loads(m.to_json())
        names = {row["name"] for row in data["counters"]}
        assert names == {"pf_mediations_total", "pf_rule_hits_total", "pf_fast_path_total"}
        assert data["phases"][PHASE_CONTEXT]["entries"] == 1

    def test_prometheus_round_trip(self):
        m = self._populated()
        text = m.to_prometheus()
        assert "# TYPE pf_mediations_total counter" in text
        rebuilt = registry_from_prometheus(text)
        assert rebuilt.to_prometheus() == text
        assert rebuilt.as_dict() == m.as_dict()

    def test_round_trip_escapes_label_values(self):
        m = MetricsRegistry()
        m.inc("x_total", {"rule": 'has "quotes" and \\slashes\\ and\nnewlines'})
        parsed = parse_prometheus(m.to_prometheus())
        ((_, labels),) = list(parsed)
        assert dict(labels)["rule"] == 'has "quotes" and \\slashes\\ and\nnewlines'

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_prometheus("this is not a metric line\n")


def _run_sensitive_workload(config=None):
    world = build_world()
    firewall = ProcessFirewall(config or EngineConfig.optimized())
    world.attach_firewall(firewall)
    firewall.install("pftables -A input -o FILE_OPEN -d shadow_t -j DROP")
    firewall.metrics.enable()
    shell = spawn_root_shell(world)
    fd = world.sys.open(shell, "/etc/passwd")
    world.sys.close(shell, fd)
    with pytest.raises(errors.PFDenied):
        world.sys.open(shell, "/etc/shadow")
    return firewall


class TestEngineIntegration:
    def test_engine_populates_expected_series(self):
        firewall = _run_sensitive_workload()
        m = firewall.metrics
        stats = firewall.stats
        # Aggregates agree with EngineStats.
        total_mediations = sum(
            v for name, _k, v in m.counters() if name == "pf_mediations_total")
        assert total_mediations == stats.invocations
        assert m.value("pf_verdicts_total", {"verdict": "drop"}) == stats.drops
        assert m.value("pf_verdicts_total", {"verdict": "allow"}) == stats.accepts
        drop_rule = "pftables -A input -o FILE_OPEN -d shadow_t -j DROP"
        labels = {"table": "filter", "chain": "input", "rule": drop_rule}
        assert m.value("pf_rule_hits_total", labels) == 1
        assert m.value("pf_rule_drops_total", labels) == 1
        assert m.value("pf_chain_traversals_total",
                       {"table": "filter", "chain": "input"}) >= 1
        phases = m.phases()
        assert phases[PHASE_CHAIN_WALK]["entries"] >= 1
        assert phases[PHASE_CONTEXT]["entries"] >= 1

    @pytest.mark.parametrize("preset", ["FULL", "CONCACHE", "LAZYCON", "EPTSPC", "COMPILED"])
    def test_every_exit_books_its_verdict(self, preset):
        """Every exit of ``mediate`` (fast path, subject- and
        entrypoint-keyed decision-cache hits, walk allow, walk drop)
        books its verdict with both observers on, with the stages
        docs/INTERNALS.md lists for it."""
        world = build_world()
        firewall = ProcessFirewall(EngineConfig.preset(preset))
        world.attach_firewall(firewall)
        firewall.install_all([
            "pftables -A input -o FILE_OPEN -d shadow_t -j DROP",
            "pftables -A input -o FILE_GETATTR -s sshd_t -j DROP",
            "pftables -A input -p /bin/nowhere -i 0x10 -o DIR_SEARCH -j DROP",
        ])
        firewall.metrics.enable()
        tracer = firewall.enable_tracing(capacity=100000)
        shell = spawn_root_shell(world)
        for _ in range(3):
            world.sys.stat(shell, "/etc/passwd")
            world.sys.close(shell, world.sys.open(shell, "/etc/passwd"))
            with pytest.raises(errors.PFDenied):
                world.sys.open(shell, "/etc/shadow")
        m, stats = firewall.metrics, firewall.stats
        mediations = sum(v for name, _k, v in m.counters() if name == "pf_mediations_total")
        assert mediations == stats.invocations == stats.accepts + stats.drops
        assert m.value("pf_verdicts_total", {"verdict": "allow"}) == stats.accepts
        assert m.value("pf_verdicts_total", {"verdict": "drop"}) == stats.drops == 3
        assert tracer._next_seq == stats.invocations == len(tracer)
        exits = set()
        for trace in tracer:
            if trace.stages[0] == "fast_path":
                assert trace.stages == ["fast_path", "verdict"]
                exits.add("fast_path")
            elif trace.decision_cache.startswith("hit"):
                assert trace.stages in (["decision_cache", "verdict"],
                                        ["decision_cache", "context", "verdict"])
                exits.add(trace.decision_cache)
            else:
                assert trace.stages[-1] == "verdict" and "fast_path" not in trace.stages
                exits.add(trace.verdict)
            assert trace.verdict in ("ALLOW", "DROP")
        expected = {"ALLOW", "DROP"}
        if preset in ("EPTSPC", "COMPILED"):
            expected.add("fast_path")
        if preset == "COMPILED":
            expected |= {"hit", "hit-entrypoint"}
            assert m.value("pf_decision_cache_total", {"result": "hit"}) == stats.decision_cache_hits
        assert exits == expected
        assert m.value("pf_fast_path_total") == sum(
            1 for t in tracer if t.stages[0] == "fast_path")

    def test_compiled_config_reports_cache_probe_phase(self):
        world = build_world()
        firewall = ProcessFirewall(EngineConfig.compiled())
        world.attach_firewall(firewall)
        # A subject-only rule: misses consult nothing resource-
        # dependent, so the default-allow verdict is memoizable.
        firewall.install("pftables -A input -o FILE_OPEN -s sshd_t -j DROP")
        firewall.metrics.enable()
        shell = spawn_root_shell(world)
        for _ in range(3):
            fd = world.sys.open(shell, "/etc/passwd")
            world.sys.close(shell, fd)
        m = firewall.metrics
        hits = m.value("pf_decision_cache_total", {"result": "hit"})
        assert hits == firewall.stats.decision_cache_hits
        assert hits > 0
        assert m.phases()[PHASE_CACHE_PROBE]["entries"] >= 1

    def test_disabled_registry_collects_nothing(self):
        world = build_world()
        firewall = ProcessFirewall()
        world.attach_firewall(firewall)
        firewall.install("pftables -A input -o FILE_OPEN -d shadow_t -j DROP")
        shell = spawn_root_shell(world)
        fd = world.sys.open(shell, "/etc/passwd")
        world.sys.close(shell, fd)
        assert firewall.metrics.counters() == []
        assert firewall.metrics.phases() == {}

    def test_cli_counters_listing_round_trips_through_export(self):
        firewall = _run_sensitive_workload()
        rebuilt = registry_from_prometheus(firewall.metrics.to_prometheus())
        assert rebuilt.as_dict() == firewall.metrics.as_dict()
