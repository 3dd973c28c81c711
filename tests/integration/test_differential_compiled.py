"""Differential harness: optimized() vs compiled() must be invisible.

The COMPILED rung (compiled dispatch + negative-decision cache) is an
engine-internal optimization; nothing observable may change.  Two
probes:

1. Every Table 4 exploit (E1–E9) runs attack + benign under both
   configurations — identical outcomes, drop counts, and log records.
2. A recorded macro-style workload (file tree walking, builds, forks,
   execs) replays against two fresh full-rulebase worlds — identical
   executed/failure streams, verdict counters, and log records.
"""

import pytest

from repro.attacks.exploits import EXPLOITS
from repro.firewall.engine import EngineConfig, ProcessFirewall
from repro.rulesets.generated import install_full_rulebase
from repro.workloads.replay import record_syscalls, replay
from repro.world import build_world, spawn_root_shell

CONFIGS = {"EPTSPC": EngineConfig.optimized, "COMPILED": EngineConfig.compiled}


def _strip_time(records):
    """Log records minus the wall-clock field (worlds tick alike, but
    keep the comparison about content, not clock plumbing)."""
    return [{k: v for k, v in rec.items() if k != "time"} for rec in records]


def _scenario_observables(scenario_cls, config):
    """Run one exploit scenario end-to-end; collect everything visible."""
    out = {}
    scenario = scenario_cls()
    result = scenario.run(with_firewall=True, config=config())
    out["attack"] = (result.succeeded, result.blocked, result.denied)
    stats = scenario.firewall.stats
    out["attack_stats"] = (stats.invocations, stats.accepts, stats.drops)
    out["attack_logs"] = _strip_time(scenario.firewall.audit.records(kind="log"))
    benign = scenario_cls()
    out["benign"] = benign.run_benign(with_firewall=True)
    benign_stats = benign.firewall.stats
    out["benign_stats"] = (benign_stats.invocations, benign_stats.accepts, benign_stats.drops)
    out["benign_logs"] = _strip_time(benign.firewall.audit.records(kind="log"))
    return out


@pytest.mark.parametrize("eid", sorted(EXPLOITS))
def test_exploits_identical_under_compiled_engine(eid):
    reference = _scenario_observables(EXPLOITS[eid], CONFIGS["EPTSPC"])
    compiled = _scenario_observables(EXPLOITS[eid], CONFIGS["COMPILED"])
    assert compiled == reference


def _macro_workload(world, shell):
    """A small macro workload: tree walks, builds, forks, and execs."""
    sys = world.sys
    for i in range(8):
        sys.stat(shell, "/etc/passwd")
        fd = sys.open(shell, "/etc/passwd")
        sys.read(shell, fd, 32)
        sys.close(shell, fd)
    for i in range(4):
        sys.stat(shell, "/lib/libc.so.6")
        sys.getpid(shell)
    child = sys.fork(shell)
    sys.execve(child, "/bin/sh", argv=["/bin/sh", "-c", "true"])
    sys.stat(child, "/bin/sh")
    sys.exit(child, 0)
    worker = sys.fork(shell)
    for i in range(4):
        sys.stat(worker, "/etc/passwd")
    sys.exit(worker, 0)


def _record_trace():
    world = build_world()
    shell = spawn_root_shell(world)
    with record_syscalls(world) as trace:
        _macro_workload(world, shell)
    return trace, shell.pid


def _replay_observables(trace, recorded_pid, config):
    world = build_world()
    firewall = ProcessFirewall(config())
    world.attach_firewall(firewall)
    install_full_rulebase(firewall)
    shell = spawn_root_shell(world)
    result = replay(world, trace, {recorded_pid: shell})
    return {
        "executed": result.executed,
        "failures": [(method, errno) for _index, method, errno in result.failures],
        "stats": (firewall.stats.invocations, firewall.stats.accepts, firewall.stats.drops),
        "logs": _strip_time(firewall.audit.records(kind="log")),
    }


def test_recorded_workload_replays_identically():
    trace, recorded_pid = _record_trace()
    assert len(trace) > 20
    reference = _replay_observables(trace, recorded_pid, CONFIGS["EPTSPC"])
    compiled = _replay_observables(trace, recorded_pid, CONFIGS["COMPILED"])
    assert compiled == reference
    # The comparison is meaningful only if the replay actually ran.
    assert reference["executed"] > 20
    assert reference["stats"][0] > 0


def test_compiled_short_circuits_during_replay():
    """Sanity: the equivalence above is not vacuous — the compiled
    engine really does take the cached path during the replay."""
    trace, recorded_pid = _record_trace()
    world = build_world()
    firewall = ProcessFirewall(EngineConfig.compiled())
    world.attach_firewall(firewall)
    install_full_rulebase(firewall)
    shell = spawn_root_shell(world)
    replay(world, trace, {recorded_pid: shell})
    assert firewall.stats.decision_cache_hits > 0
