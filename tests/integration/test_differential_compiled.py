"""Differential harness: optimized() vs compiled() must be invisible.

The COMPILED rung (compiled dispatch + negative-decision cache) is an
engine-internal optimization; nothing observable may change.  Three
probes:

1. Every Table 4 exploit (E1–E9) runs attack + benign under both
   configurations — identical outcomes, drop counts, and log records.
2. A recorded macro-style workload (file tree walking, builds, forks,
   execs) replays against two fresh full-rulebase worlds — identical
   executed/failure streams, verdict counters, and log records.
3. Randomized rule bases (seeded, spanning label / entrypoint /
   adversary matches and every ``syscallbegin`` shape the syscall
   index must classify, plus a mangle/filter pair in which one
   ``syscallbegin`` chain is narrowed and the other is not) drive a
   fixed probe workload under LAZYCON, EPTSPC and COMPILED — identical
   verdict streams, verdict counters and log records.  LAZYCON has no entrypoint chains, so it consults
   neither the op index nor the syscall index: it is the reference.
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
    "LAZYCON": EngineConfig.lazycon,
    "EPTSPC": EngineConfig.optimized,
    "COMPILED": EngineConfig.compiled,
}


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


# ---------------------------------------------------------------------------
# randomized rule bases
# ---------------------------------------------------------------------------

_LABELS = ["etc_t", "tmp_t", "lib_t", "shadow_t", "var_t"]
_OPS = ["FILE_OPEN", "FILE_READ", "FILE_GETATTR", "DIR_SEARCH"]
_OFFSETS = [0x10, 0x20, 0x30]
_SYSCALLS = ["stat", "open", "close", "getpid", "read"]
_PROBE_PATHS = [
    "/etc/passwd",
    "/etc/shadow",
    "/lib/libc.so.6",
    "/tmp/world-writable",
    "/tmp/private",
]

#: Every ``syscallbegin`` rule shape: only ``equal`` gives the chain a
#: syscall index entry; every other shape makes the index a wildcard.
SYSCALLBEGIN_SHAPES = ("equal", "nequal", "arg1", "atom", "no_args", "mangle_state", "jump")


def _syscallbegin_rules(rng, shape):
    """The rule lines of one ``syscallbegin`` shape."""
    nr = rng.choice(_SYSCALLS)
    target = rng.choice(("DROP", "LOG --prefix sb", "LOG --prefix sb"))
    if shape == "equal":
        return ["pftables -A syscallbegin -m SYSCALL_ARGS --arg 0 --equal NR_{} -j {}".format(
            nr, target)]
    if shape == "nequal":
        return ["pftables -A syscallbegin -m SYSCALL_ARGS --arg 0 --nequal NR_{} -j {}".format(
            nr, target)]
    if shape == "arg1":
        return ["pftables -A syscallbegin -m SYSCALL_ARGS --arg 1 --equal {} -j {}".format(
            rng.choice(_PROBE_PATHS), target)]
    if shape == "atom":
        return ["pftables -A syscallbegin -m SYSCALL_ARGS --arg 0 --{} C_SUBJECT -j {}".format(
            rng.choice(("equal", "nequal")), target)]
    if shape == "no_args":
        return ["pftables -A syscallbegin -s {} -j {}".format(
            rng.choice(("unconfined_t", "etc_t")), target)]
    if shape == "mangle_state":
        # The mangle chain marks; a filter input rule reads the mark,
        # so a syscall the filter syscallbegin chain never names still
        # changes later verdicts.
        return [
            "pftables -t mangle -A syscallbegin -m SYSCALL_ARGS --arg 0 --equal NR_{} "
            "-j STATE --set --key 'seen' --value 1".format(nr),
            "pftables -A input -o FILE_OPEN -m STATE --key 'seen' --cmp 1 -j DROP",
        ]
    return [
        "pftables -A syscallbegin -m SYSCALL_ARGS --arg 0 --equal NR_{} -j sb_drop".format(nr),
        "pftables -A sb_drop -j DROP",
    ]


def _cross_table_pair(rng):
    """One ``syscallbegin`` chain the syscall index narrows and, in the
    other table, one it cannot: every mediation walks the wide chain
    and only the named syscall walks the narrow one, so a verdict
    memoized for one syscall must not stand in for another."""
    nr = rng.choice(_SYSCALLS)
    if rng.random() < 0.5:
        return [
            "pftables -t mangle -A syscallbegin -s {} -j LOG --prefix wide".format(
                rng.choice(("unconfined_t", "etc_t"))),
            "pftables -A syscallbegin -m SYSCALL_ARGS --arg 0 --equal NR_{} -j {}".format(
                nr, rng.choice(("DROP", "LOG --prefix narrow"))),
        ]
    return [
        "pftables -A syscallbegin -s etc_t -j DROP",
        "pftables -t mangle -A syscallbegin -m SYSCALL_ARGS --arg 0 --equal NR_{} "
        "-j STATE --set --key 'pair' --value 1".format(nr),
        "pftables -A input -o FILE_OPEN -m STATE --key 'pair' --cmp 1 -j DROP",
    ]


def _random_rules(rng, shape):
    """A deny-only rule base: input rules over every default match and
    the path argument, a :func:`_cross_table_pair` and, unless
    ``shape`` is ``None``, more ``syscallbegin`` rules, one of them of
    ``shape``.  Without them the pair is all the ``syscallbegin``
    chains hold, so no other rule keeps its walks out of the
    decision cache."""
    rules = _cross_table_pair(rng)
    kinds = ["label", "entry", "adversary", "path"]
    if shape is not None:
        rules += _syscallbegin_rules(rng, shape)
        kinds.append("syscallbegin")
    for _ in range(rng.randint(2, 8)):
        kind = rng.choice(kinds)
        if kind == "syscallbegin":
            rules.extend(_syscallbegin_rules(rng, rng.choice(SYSCALLBEGIN_SHAPES)))
            continue
        if kind == "path":
            # A resource operation's args[0] is its path: the input
            # chain's syscall index must never narrow it.
            rules.append("pftables -A input -m SYSCALL_ARGS --arg 0 --equal {} -j DROP".format(
                rng.choice(_PROBE_PATHS)))
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


def _probe(world, proc, syscall, path):
    if syscall == "getpid":
        world.sys.getpid(proc)
    elif syscall == "stat":
        world.sys.stat(proc, path)
    else:
        fd = world.sys.open(proc, path)
        world.sys.close(proc, fd)


def _verdict_stream(rules, config):
    """Build a world with adversary-accessible files, install ``rules``
    and record the verdict of every probe syscall."""
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
            for syscall in ("stat", "getpid", "open"):
                try:
                    _probe(world, proc, syscall, path)
                    stream.append((syscall, path, "allow"))
                except errors.PFDenied:
                    stream.append((syscall, path, "drop"))
                except errors.KernelError as exc:
                    stream.append((syscall, path, type(exc).__name__))
    stats = firewall.stats
    return (
        stream,
        (stats.invocations, stats.accepts, stats.drops),
        _strip_time(firewall.audit.records(kind="log")),
    )


#: Each case pairs a ``syscallbegin`` chain the syscall index narrows
#: with one in the other table that it cannot narrow, then runs a
#: syscall the narrow chain skips before one it names.
_CROSS_TABLE_CASES = {
    "filter_names_getuid": (
        [
            "pftables -t mangle -A syscallbegin -s etc_t -j LOG --prefix m",
            "pftables -A syscallbegin -m SYSCALL_ARGS --arg 0 --equal NR_getuid -j DROP",
        ],
        lambda sys, proc: sys.getuid(proc),
    ),
    "mangle_names_sigreturn": (
        [
            "pftables -A syscallbegin -s etc_t -j DROP",
            "pftables -t mangle -A syscallbegin -m SYSCALL_ARGS --arg 0 --equal NR_sigreturn "
            "-j STATE --set --key 'sig' --value 1",
            "pftables -A input -o FILE_OPEN -m STATE --key 'sig' --cmp 1 -j DROP",
        ],
        lambda sys, proc: (sys.sigreturn(proc), sys.open(proc, "/etc/passwd")),
    ),
}


@pytest.mark.parametrize("case", sorted(_CROSS_TABLE_CASES))
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_skipped_chain_never_widens_a_cached_allow(case, name):
    """``getpid`` walks only the wide chain and, on COMPILED, memoizes
    an allow; the syscall the narrow chain names must still drop."""
    rules, then = _CROSS_TABLE_CASES[case]
    world = build_world()
    firewall = ProcessFirewall(CONFIGS[name]())
    world.attach_firewall(firewall)
    firewall.install_all(rules)
    proc = world.spawn("sh", uid=0, label="unconfined_t", binary_path="/bin/sh")
    for _ in range(2):
        world.sys.getpid(proc)
    with pytest.raises(errors.PFDenied):
        then(world.sys, proc)
    assert firewall.stats.drops == 1


@pytest.mark.parametrize("seed", range(12))
def test_randomized_rule_bases_agree(seed):
    # Seed n always draws shape n mod 7, so every shape is covered.
    rng = random.Random(seed)
    for shape in (SYSCALLBEGIN_SHAPES[seed % len(SYSCALLBEGIN_SHAPES)], None):
        rules = _random_rules(rng, shape)
        reference = _verdict_stream(rules, CONFIGS["LAZYCON"])
        for name in ("EPTSPC", "COMPILED"):
            assert _verdict_stream(rules, CONFIGS[name]) == reference, (name, rules)
