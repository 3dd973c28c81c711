"""Differential harness: the name-resolution fast path must be invisible.

The dentry/walk caches (:mod:`repro.vfs.dcache`) sit *under* the
mediation pipeline — on a walk-cache hit the recorded steps are
replayed to the observer, so DAC, MAC, and firewall verdicts re-run
live.  Nothing observable may change versus a cold walker:

1. Every Table 4 exploit (E1–E9) runs attack + benign with the cache
   on (the kernel default) and forced off — identical outcomes,
   verdict counters (down to rules_evaluated / cache_hits /
   decision_cache_hits: replay drives the *same* mediation stream
   through the *same* engine), log records, and kernel audit trails
   (logical timestamps included: the clock ticks per syscall, not per
   directory probe, so even time is pinned).
2. A recorded macro workload (stat/open/read loops, fork + execve)
   replays under both — same story.
3. The service generators: a fixed-seed session stream through the
   inline service runner with worker dcaches on vs off — identical
   verdict streams, audit, and drop counts.
4. The cache must not *break the attacks*: the symlink-race exploits
   (E9 is the corpus's direct symlink clobber; E5's setuid race also
   pivots on path state) still succeed without a firewall while the
   cache serves their victim's repeated resolutions — stamp-precise
   invalidation means the adversary's rename/symlink flips the cached
   answer exactly as it flips the namespace.
"""

import pytest

from repro.attacks.exploits import EXPLOITS
from repro.firewall.engine import EngineConfig
from repro.firewall.persist import save_rules
from repro.rulesets.generated import install_full_rulebase
from repro.service import run_service
from repro.workloads.generators import generate_stream, service_rules_text
from repro.workloads.replay import record_syscalls, replay
from repro.world import build_world, spawn_root_shell


def _dcache_off(firewall):
    firewall.kernel.dcache.enabled = False


def _strip_time(records):
    return [{k: v for k, v in rec.items() if k != "time"} for rec in records]


def _pinned_stats(stats):
    """Same engine, same rule walk — everything is pinned, including
    the engine-internal cache counters: replay feeds the engine an
    identical mediation stream."""
    return (
        stats.invocations,
        stats.accepts,
        stats.drops,
        stats.rules_evaluated,
        stats.cache_hits,
        stats.decision_cache_hits,
    )


def _kernel_audit(kernel):
    return [
        (r.time, r.pid, r.comm, r.op, r.path, r.decision, r.detail)
        for r in kernel.audit
    ]


def _scenario_observables(scenario_cls, instrument):
    out = {}
    scenario = scenario_cls()
    result = scenario.run(
        with_firewall=True, config=EngineConfig.compiled(), instrument=instrument
    )
    out["attack"] = (result.succeeded, result.blocked, result.denied)
    out["attack_stats"] = _pinned_stats(scenario.firewall.stats)
    out["attack_logs"] = _strip_time(
        scenario.firewall.audit.records(kind="log"))
    out["attack_audit"] = _kernel_audit(scenario.kernel)
    benign = scenario_cls()
    out["benign"] = benign.run_benign(
        with_firewall=True, config=EngineConfig.compiled(), instrument=instrument
    )
    out["benign_stats"] = _pinned_stats(benign.firewall.stats)
    out["benign_audit"] = _kernel_audit(benign.kernel)
    return out


@pytest.mark.parametrize("eid", sorted(EXPLOITS))
def test_exploits_identical_with_and_without_dcache(eid):
    cold = _scenario_observables(EXPLOITS[eid], _dcache_off)
    cached = _scenario_observables(EXPLOITS[eid], None)
    assert cached == cold


def test_dcache_actually_engaged_in_scenarios():
    """Guard against vacuity: the cached side of the differential
    really serves warm resolutions during at least one scenario."""
    hits = 0
    for eid in sorted(EXPLOITS):
        scenario = EXPLOITS[eid]()
        scenario.run(with_firewall=True, config=EngineConfig.compiled())
        dc = scenario.kernel.dcache
        assert dc.enabled
        hits += dc.walks.hits + dc.dentries.hits
    assert hits > 0


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


def _replay_observables(dcache_on):
    world = build_world()
    shell = spawn_root_shell(world)
    with record_syscalls(world) as trace:
        _macro_workload(world, shell)
    target = build_world()
    target.dcache.enabled = dcache_on
    from repro.firewall.engine import ProcessFirewall

    firewall = ProcessFirewall(EngineConfig.compiled())
    target.attach_firewall(firewall)
    install_full_rulebase(firewall)
    target_shell = spawn_root_shell(target)
    result = replay(target, trace, {shell.pid: target_shell})
    return {
        "executed": result.executed,
        "failures": [(m, errno) for _i, m, errno in result.failures],
        "stats": _pinned_stats(firewall.stats),
        "audit": _kernel_audit(target),
        "logs": _strip_time(firewall.audit.records(kind="log")),
    }, target


def test_macro_replay_identical_with_and_without_dcache():
    cold, _ = _replay_observables(dcache_on=False)
    cached, kernel = _replay_observables(dcache_on=True)
    assert cached == cold
    assert cold["executed"] > 20
    # Not vacuous: the cached replay served warm walks.
    assert kernel.dcache.walks.hits > 0


# ---------------------------------------------------------------------------
# service generators
# ---------------------------------------------------------------------------


def _service_observables(dcache):
    result = run_service(
        generate_stream(16, seed=0xDCAC),
        service_rules_text(),
        workers=1,
        processes=False,
        dcache=dcache,
    )
    return {
        "verdicts": result["verdicts"],
        "audit": [
            {k: v for k, v in row.items() if k != "worker"}
            for row in result["audit"]
        ],
        "drops": result["drops"],
        "completed": result["counters"]["completed"],
        "stats": {
            k: v for k, v in result["stats"].items()
            if k in ("invocations", "accepts", "drops", "rules_evaluated")
        },
    }


def test_service_generators_identical_with_and_without_dcache():
    cold = _service_observables(dcache=False)
    cached = _service_observables(dcache=True)
    assert cached == cold
    assert cold["completed"] == 16
    assert cold["drops"] > 0  # trap steps fire either way


# ---------------------------------------------------------------------------
# the attacks still fire *under* the cache
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("eid", ["E5", "E9"])
def test_race_exploits_still_fire_under_cache(eid):
    """Stamp-precise invalidation is the whole point: with no firewall,
    the adversary's namespace flip mid-race retargets the victim's
    *cached* resolution, so the attack lands exactly as it does cold."""
    cached = EXPLOITS[eid]()
    result = cached.run(with_firewall=False)
    assert cached.kernel.dcache.enabled
    assert result.succeeded and not result.blocked

    cold_scenario = EXPLOITS[eid]()
    cold_scenario.build(False)
    cold_scenario.kernel.dcache.enabled = False
    cold = cold_scenario._attack()
    assert bool(cold) == result.succeeded


def test_save_rules_roundtrip_unaffected_by_dcache():
    """Sanity: rule persistence (pure string plumbing) sees no kernel
    state; pinned here because the service differential ships rules
    text through it on both sides."""
    world = build_world()
    from repro.firewall.engine import ProcessFirewall

    firewall = ProcessFirewall(EngineConfig.compiled())
    world.attach_firewall(firewall)
    install_full_rulebase(firewall)
    text = save_rules(firewall)
    world.dcache.enabled = False
    assert save_rules(firewall) == text
