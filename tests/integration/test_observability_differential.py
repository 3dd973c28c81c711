"""Differential harness: observability on vs off must be invisible.

Tracing and metrics are pure recorders; enabling them may not change a
single verdict, counter, log record, or audit entry.  Mirrors the
compiled-engine differential harness:

1. Every Table 4 exploit (E1–E9) runs attack + benign twice — bare vs
   fully instrumented (tracing + metrics) — and every observable the
   bare run produces must be byte-identical.
2. A recorded macro workload replays under both — same story.
3. Positive direction: with tracing on, every DROP the exploit suite
   produces yields a trace naming the matching rule and the context
   fields the walk consumed.
"""

import pytest

from repro.attacks.exploits import EXPLOITS
from repro.firewall.engine import EngineConfig, ProcessFirewall
from repro.rulesets.generated import install_full_rulebase
from repro.workloads.replay import record_syscalls, replay
from repro.world import build_world, spawn_root_shell


def _instrument(firewall):
    firewall.enable_tracing(capacity=4096)
    firewall.metrics.enable()


def _strip_time(records):
    return [{k: v for k, v in rec.items() if k != "time"} for rec in records]


def _stats_tuple(stats):
    return stats.as_dict()


def _scenario_observables(scenario_cls, config, instrument):
    out = {}
    scenario = scenario_cls()
    result = scenario.run(with_firewall=True, config=config(), instrument=instrument)
    out["attack"] = (result.succeeded, result.blocked, result.denied, result.detail)
    out["attack_stats"] = _stats_tuple(scenario.firewall.stats)
    out["attack_logs"] = _strip_time(scenario.firewall.audit.records(kind="log"))
    out["attack_drops"] = _strip_time(scenario.firewall.audit.records(kind="drop"))
    benign = scenario_cls()
    out["benign"] = benign.run_benign(with_firewall=True, config=config(),
                                      instrument=instrument)
    out["benign_stats"] = _stats_tuple(benign.firewall.stats)
    out["benign_logs"] = _strip_time(benign.firewall.audit.records(kind="log"))
    return out


@pytest.mark.parametrize("config_name,config",
                         [("EPTSPC", EngineConfig.optimized),
                          ("COMPILED", EngineConfig.compiled)])
@pytest.mark.parametrize("eid", sorted(EXPLOITS))
def test_exploits_identical_with_observability_on(eid, config_name, config):
    bare = _scenario_observables(EXPLOITS[eid], config, instrument=None)
    instrumented = _scenario_observables(EXPLOITS[eid], config, _instrument)
    assert instrumented == bare


@pytest.mark.parametrize("eid", sorted(EXPLOITS))
def test_every_drop_yields_an_explaining_trace(eid):
    """Positive direction: each drop is explained by a trace naming the
    matching rule and the context fields the walk consumed."""
    scenario = EXPLOITS[eid]()
    holder = {}

    def instrument(firewall):
        holder["firewall"] = firewall
        _instrument(firewall)

    scenario.run(with_firewall=True, instrument=instrument)
    firewall = holder["firewall"]
    drop_traces = firewall.tracer.drops()
    assert len(drop_traces) == firewall.stats.drops
    installed = {rule.text
                 for table in firewall.rules.tables.values()
                 for chain in table.chains.values()
                 for rule in chain}
    for trace in drop_traces:
        assert trace.verdict == "DROP"
        assert trace.rule, "a drop trace must name its rule"
        assert trace.rule in installed
        # The matched rule appears in the chain walk with a DROP verdict.
        matched = [ev for visit in trace.chains for ev in visit.rules
                   if ev.result == "matched" and ev.verdict == "DROP"]
        assert matched and matched[-1].rule == trace.rule
        # Consumed context fields are attributed (a drop can only come
        # from a matched rule, which consulted at least the fields of
        # its match modules — ENTRYPOINT-only rules included).
        assert trace.consumed_fields() or trace.op == "SYSCALL_BEGIN"
        # Drop audit record and trace agree.
    drops = firewall.audit.records(kind="drop")
    assert sorted(r["rule"] for r in drops) == sorted(t.rule for t in drop_traces)


def _macro_workload(world, shell):
    sys = world.sys
    for _ in range(8):
        sys.stat(shell, "/etc/passwd")
        fd = sys.open(shell, "/etc/passwd")
        sys.read(shell, fd, 32)
        sys.close(shell, fd)
    for _ in range(4):
        sys.stat(shell, "/lib/libc.so.6")
        sys.getpid(shell)
    child = sys.fork(shell)
    sys.execve(child, "/bin/sh", argv=["/bin/sh", "-c", "true"])
    sys.stat(child, "/bin/sh")
    sys.exit(child, 0)


def _record_trace():
    world = build_world()
    shell = spawn_root_shell(world)
    with record_syscalls(world) as trace:
        _macro_workload(world, shell)
    return trace, shell.pid


def _replay_observables(trace, recorded_pid, instrument):
    world = build_world()
    firewall = ProcessFirewall(EngineConfig.compiled())
    world.attach_firewall(firewall)
    install_full_rulebase(firewall)
    if instrument is not None:
        instrument(firewall)
    shell = spawn_root_shell(world)
    result = replay(world, trace, {recorded_pid: shell})
    return {
        "executed": result.executed,
        "failures": [(method, errno) for _i, method, errno in result.failures],
        "stats": _stats_tuple(firewall.stats),
        "logs": _strip_time(firewall.audit.records(kind="log")),
    }


def test_recorded_workload_identical_with_observability_on():
    trace, recorded_pid = _record_trace()
    bare = _replay_observables(trace, recorded_pid, None)
    instrumented = _replay_observables(trace, recorded_pid, _instrument)
    assert instrumented == bare
    assert bare["executed"] > 20
    assert bare["stats"]["invocations"] > 0
