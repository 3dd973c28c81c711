"""Differential harness: the JITTED engine must be invisible (S3).

Per-rule codegen plus the resource-context cache are engine-internal
optimizations; nothing observable may change versus the interpreted
rungs.  Three probes:

1. Every Table 4 exploit (E1–E9) runs attack + benign under EPTSPC,
   COMPILED and JITTED — identical outcomes, verdict counters, and log
   records.  Against COMPILED the bar is higher: the generated code
   walks the same rules in the same order, so ``rules_evaluated``,
   ``cache_hits`` and ``decision_cache_hits`` are pinned too.
2. A recorded macro workload replays under all three — same story.
3. Randomized rule bases (seeded, spanning label / entrypoint /
   adversary / syscall-arg matches) drive a fixed probe workload under
   all three configurations — identical verdict streams.
"""

import random

import pytest

from repro import errors
from repro.attacks.exploits import EXPLOITS
from repro.firewall.engine import EngineConfig, ProcessFirewall
from repro.rulesets.generated import install_full_rulebase
from repro.workloads.replay import record_syscalls, replay
from repro.world import build_world, spawn_root_shell

CONFIGS = {
    "EPTSPC": EngineConfig.optimized,
    "COMPILED": EngineConfig.compiled,
    "JITTED": EngineConfig.jitted,
}


def _strip_time(records):
    return [{k: v for k, v in rec.items() if k != "time"} for rec in records]


def _loose_stats(stats):
    """Counters comparable across *any* two engine rungs."""
    return (stats.invocations, stats.accepts, stats.drops)


def _pinned_stats(stats):
    """Counters comparable between COMPILED and JITTED: the generated
    code must walk the same rules in the same order and hit the same
    per-frame/decision caches as the interpreted compiled-dispatch
    walker.  ``context_collections`` is deliberately absent — avoiding
    repeat collections is the resource-context cache's entire job, so
    that counter legitimately *shrinks* under JITTED."""
    return _loose_stats(stats) + (
        stats.rules_evaluated,
        stats.cache_hits,
        stats.decision_cache_hits,
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


@pytest.mark.parametrize("eid", sorted(EXPLOITS))
def test_exploits_pin_jitted_to_compiled(eid):
    reference = _scenario_observables(EXPLOITS[eid], CONFIGS["COMPILED"], _pinned_stats)
    jitted = _scenario_observables(EXPLOITS[eid], CONFIGS["JITTED"], _pinned_stats)
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
    # Not vacuous: the replay really ran through generated code.
    assert firewall._jit is not None and firewall._jit.sources


# ---------------------------------------------------------------------------
# randomized rule bases
# ---------------------------------------------------------------------------

_LABELS = ["etc_t", "tmp_t", "lib_t", "shadow_t", "var_t"]
_OPS = ["FILE_OPEN", "FILE_READ", "FILE_GETATTR", "DIR_SEARCH"]
_OFFSETS = [0x10, 0x20, 0x30]
_SYSCALLS = ["stat", "open", "getpid", "read"]
_PROBE_PATHS = [
    "/etc/passwd",
    "/etc/shadow",
    "/lib/libc.so.6",
    "/tmp/world-writable",
    "/tmp/private",
]


def _random_rules(rng):
    """A deny-only rule base spanning every jittable match module."""
    rules = []
    for _ in range(rng.randint(2, 8)):
        kind = rng.choice(("label", "entry", "adversary", "sysarg"))
        if kind == "sysarg":
            rules.append(
                "pftables -A syscallbegin -m SYSCALL_ARGS --arg 0 --equal NR_{} "
                "-j DROP".format(rng.choice(_SYSCALLS))
            )
            continue
        parts = ["pftables -A input"]
        if rng.random() < 0.8:
            parts.append("-o {}".format(rng.choice(_OPS)))
        if kind == "entry":
            parts.append("-i {:#x} -p /bin/sh".format(rng.choice(_OFFSETS)))
        if kind == "adversary":
            parts.append("-m ADVERSARY --{}".format(rng.choice(("writable", "readable"))))
        else:
            label = rng.choice(_LABELS)
            negate = rng.random() < 0.3
            parts.append("-d {}{}".format("~" if negate else "",
                                          "{" + label + "}" if negate else label))
        parts.append("-j DROP")
        rules.append(" ".join(parts))
    return rules


def _verdict_stream(rules, config):
    """Build a world with adversary-accessible files, install ``rules``
    and record the verdict of every probe access."""
    world = build_world()
    firewall = ProcessFirewall(config())
    world.attach_firewall(firewall)
    firewall.install_all(rules)
    proc = world.spawn("sh", uid=0, label="unconfined_t", binary_path="/bin/sh")
    world.add_file("/tmp/world-writable", b"x", uid=1000, mode=0o666, label="tmp_t")
    world.add_file("/tmp/private", b"x", uid=0, mode=0o600, label="tmp_t")
    for offset in _OFFSETS[:2]:
        proc.call(proc.binary, offset)
    stream = []
    for _round in range(2):  # second round exercises every cache
        for path in _PROBE_PATHS:
            for syscall in ("stat", "open"):
                try:
                    if syscall == "stat":
                        world.sys.stat(proc, path)
                    else:
                        fd = world.sys.open(proc, path)
                        world.sys.close(proc, fd)
                    stream.append((syscall, path, "allow"))
                except errors.PFDenied:
                    stream.append((syscall, path, "drop"))
                except errors.KernelError as exc:
                    stream.append((syscall, path, type(exc).__name__))
    return stream, _pinned_stats(firewall.stats), _strip_time(firewall.audit.records(kind="log"))


@pytest.mark.parametrize("seed", range(12))
def test_randomized_rule_bases_agree(seed):
    rules = _random_rules(random.Random(seed))
    eptspc = _verdict_stream(rules, CONFIGS["EPTSPC"])
    compiled = _verdict_stream(rules, CONFIGS["COMPILED"])
    jitted = _verdict_stream(rules, CONFIGS["JITTED"])
    # Verdict streams and logs agree across all three rungs.
    assert compiled[0] == eptspc[0] and jitted[0] == eptspc[0]
    assert compiled[2] == eptspc[2] and jitted[2] == eptspc[2]
    # COMPILED vs JITTED additionally pins the walk-shape counters.
    assert jitted[1] == compiled[1]
