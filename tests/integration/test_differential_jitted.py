"""Differential harness: the retired "JITTED" preset spelling.

Per-rule codegen is gone; the spelling "JITTED" survives only as an
alias to COMPILED (``repro.firewall.engine.PRESET_ALIASES``) because
the repo benchmark still passes it.  Whatever a caller asks for under
that name must behave exactly like the rungs it sits beside:

1. Every Table 4 exploit (E1–E9) runs attack + benign under EPTSPC and
   the "JITTED" preset — identical outcomes, verdict counters and log
   records.
2. A recorded macro workload replays under EPTSPC, COMPILED and
   "JITTED" — identical against EPTSPC, and pinned to COMPILED down to
   the walk-shape counters, since the alias must build that very
   configuration.
"""

import pytest

from repro.attacks.exploits import EXPLOITS
from repro.firewall.engine import EngineConfig, ProcessFirewall
from repro.rulesets.generated import install_full_rulebase
from repro.workloads.replay import record_syscalls, replay
from repro.world import build_world, spawn_root_shell

CONFIGS = {
    "EPTSPC": EngineConfig.optimized,
    "COMPILED": EngineConfig.compiled,
    "JITTED": lambda: EngineConfig.preset("JITTED"),
}


def _strip_time(records):
    return [{k: v for k, v in rec.items() if k != "time"} for rec in records]


def _loose_stats(stats):
    """Counters comparable across *any* two engine rungs."""
    return (stats.invocations, stats.accepts, stats.drops)


def _pinned_stats(stats):
    """Counters comparable between two builds of one configuration:
    the same rules walked in the same order, hitting the same caches."""
    return _loose_stats(stats) + (
        stats.rules_evaluated,
        stats.cache_hits,
        stats.decision_cache_hits,
        stats.context_collections,
    )


def _scenario_observables(scenario_cls, config, stats_fn):
    out = {}
    scenario = scenario_cls()
    result = scenario.run(with_firewall=True, config=config())
    out["attack"] = (result.succeeded, result.blocked, result.denied)
    out["attack_stats"] = stats_fn(scenario.firewall.stats)
    out["attack_logs"] = _strip_time(scenario.firewall.audit.records(kind="log"))
    benign = scenario_cls()
    out["benign"] = benign.run_benign(with_firewall=True, config=config())
    out["benign_stats"] = stats_fn(benign.firewall.stats)
    out["benign_logs"] = _strip_time(benign.firewall.audit.records(kind="log"))
    return out


@pytest.mark.parametrize("eid", sorted(EXPLOITS))
def test_exploits_identical_under_jitted_engine(eid):
    reference = _scenario_observables(EXPLOITS[eid], CONFIGS["EPTSPC"], _loose_stats)
    jitted = _scenario_observables(EXPLOITS[eid], CONFIGS["JITTED"], _loose_stats)
    assert jitted == reference


# ---------------------------------------------------------------------------
# macro replay
# ---------------------------------------------------------------------------


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


def _replay_observables(trace, recorded_pid, config, stats_fn):
    world = build_world()
    firewall = ProcessFirewall(config())
    world.attach_firewall(firewall)
    install_full_rulebase(firewall)
    shell = spawn_root_shell(world)
    result = replay(world, trace, {recorded_pid: shell})
    return {
        "executed": result.executed,
        "failures": [(method, errno) for _i, method, errno in result.failures],
        "stats": stats_fn(firewall.stats),
        "logs": _strip_time(firewall.audit.records(kind="log")),
    }, firewall


def test_recorded_workload_identical_and_pinned():
    trace, recorded_pid = _record_trace()
    reference, _ = _replay_observables(trace, recorded_pid, CONFIGS["EPTSPC"], _loose_stats)
    jitted_loose, _ = _replay_observables(trace, recorded_pid, CONFIGS["JITTED"], _loose_stats)
    assert jitted_loose == reference
    compiled, _ = _replay_observables(trace, recorded_pid, CONFIGS["COMPILED"], _pinned_stats)
    jitted, firewall = _replay_observables(trace, recorded_pid, CONFIGS["JITTED"], _pinned_stats)
    assert jitted == compiled
    assert reference["executed"] > 20
    assert reference["stats"][0] > 0
    # Not vacuous: the alias really built the COMPILED configuration.
    assert firewall.config.compiled_dispatch and firewall.config.decision_cache
    assert firewall.stats.decision_cache_hits > 0
