"""The differential matrix: every engine rung, cache and observer
against one reference, over one corpus.

**Columns** (:data:`COLUMNS`) are ``run(config, instrument) ->
(result, firewall, kernel)`` items, most from ``tools/observables.py``
(E1–E9 attack and benign, the same after a fork storm, the lmbench mix
with the stack intact and corrupted, the compile jobs, the ``STATE``
fork replay), plus a recorded macro replay, the 24-session lmbench and
build runs of ``tests/plumbing_workloads.py`` (``long/*``), two rule
bases for each of 12 seeds, two cross-table cases, a walk that meets a
closed directory mid-path and 10 seeded mutation streams.
:data:`SERVICE` is the seeded service stream of ``run_service``.

**Rows** (:data:`ROWS`) are one rung plus at most one toggle.  Every
cell is compared *loosely* to :data:`REFERENCE` (FULL, cold dcache,
untraced, serial): the result, each syscall's verdict with its errno
message, ``(invocations, accepts, drops)`` and the log and drop
records without ``time``.  Equality is transitive, so any two rungs
agree.  A toggle row is also compared *pinned* to its base, its rung
with the toggle off, on :func:`pinned_observables`.
``tests/test_observables.py`` holds the plain rungs' runs of the
golden corpus to ``tests/golden/observables.json``.  Every run asserts
that the firewall built the row's configuration (:data:`CONFIGS`), and
each row's guard that its mechanism ran.  Adding or deleting a rung or
a cache is adding or deleting one row.
"""

import contextlib
import functools
import itertools
import json
import os
import random
import sys
from collections import Counter, namedtuple

import pytest

from repro import errors
from repro.attacks.exploits import EXPLOITS
from repro.firewall.engine import EngineConfig, ProcessFirewall, WalkAnswer, record_mutates
from repro.parallel.merge import strip_volatile
from repro.rulesets.generated import install_full_rulebase
from repro.service import run_service
from repro.service.core import record_mediations
from repro.vfs.file import OpenFlags
from repro.workloads.generators import generate_stream
from repro.world import build_world, spawn_root_shell
from tests.mediation_replay import replay_mediations, reset_mediation_state
from tests.plumbing_workloads import run_build, run_lmbench

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "tools"))
try:
    import observables
finally:
    sys.path.pop(0)

EIDS = sorted(EXPLOITS)

#: The ``EngineConfig`` constructor each rung name must build; DISABLED
#: and BASE are Table 6 columns of the lmbench item.
CONFIGS = dict(DISABLED="disabled", BASE="optimized", FULL="unoptimized", CONCACHE="concache",
               LAZYCON="lazycon", EPTSPC="optimized", COMPILED="compiled", JITTED="compiled")

#: ``rung`` run with ``knobs`` on the columns of ``groups``; ``base``
#: is the ``(rung, knobs)`` it is pinned to, or ``None``; ``guard`` is
#: ``(side, tally, minimum)``: summed over the row's cells, ``tally``
#: of its own runs (``side`` 0) or of its base's (1) reaches
#: ``minimum``.
Row = namedtuple("Row", "rung knobs base groups guard")

#: Items under the full rule base cost 35 ms to set up, so they run
#: under the rows that claim something about them, not under every row;
#: the fork storms run under the rungs, whose state is copied at fork.
CHEAP = ("exploit", "cross", "walk")
RUNG = CHEAP + ("fork",)
SERVICE = "service"


def _toggle(rung, on, groups, guard, off=None):
    return Row(rung, on, (rung, off or {}), groups, guard)


#: Knobs of :func:`observe`: ``dcache``, ``trace``, ``meter``,
#: ``audit`` (the kernel audit trail), ``grants`` (walk grants),
#: ``replay`` (capture the stream and re-mediate it ``"per-call"`` or
#: ``"batched"``) and, for :data:`SERVICE` only, ``workers``, ``spawn``
#: and ``step_batch``.
ROWS = {
    "FULL": Row("FULL", {}, None, RUNG + ("lmbench",), (0, "walk_hits", 1)),
    "CONCACHE": Row("CONCACHE", {}, None, RUNG + ("lmbench",), None),
    "LAZYCON": Row("LAZYCON", {}, None, RUNG + ("rules", "lmbench", SERVICE), None),
    "EPTSPC": Row("EPTSPC", {}, None, RUNG + ("rules", "lmbench", "macro", SERVICE), None),
    "COMPILED": Row("COMPILED", {}, None, RUNG + (
        "rules", "lmbench", "build", "macro", "fork-replay", SERVICE),
        (0, "decision_cache_hits", 1)),
    # The retired spelling must build COMPILED itself.
    "JITTED": Row("JITTED", {}, ("COMPILED", {}), RUNG + ("macro", SERVICE),
                  (0, "decision_cache_hits", 1)),
    "dcache-off": _toggle("COMPILED", {"dcache": False}, CHEAP + ("macro", SERVICE),
                          (1, "walk_hits", 1)),
    # ``long/build`` runs the build item's 16 jobs and 8 more; the
    # observed row keeps the build item, whose cell the golden corpus
    # reads.
    "traced": _toggle("COMPILED", {"trace": True}, CHEAP + ("lmbench", "long"),
                      (0, "traces", 1)),
    "metered": _toggle("COMPILED", {"meter": True}, CHEAP + ("lmbench", "long", SERVICE),
                       (0, "verdicts_metered", 1)),
    "observed": _toggle("COMPILED", {"trace": True, "meter": True},
                        CHEAP + ("lmbench", "build", "long", "macro"), (0, "traces", 1)),
    "EPTSPC-observed": _toggle("EPTSPC", {"trace": True, "meter": True}, CHEAP + ("lmbench",),
                               (0, "traces", 1)),
    "batch": _toggle("COMPILED", {"replay": "batched"}, ("exploit", "fork", "mutation"),
                     (0, "amortized", 1), {"replay": "per-call"}),
    # Walk grants need the kernel audit trail off, on both sides.
    "grant-refused": _toggle("COMPILED", {"audit": False, "grants": False},
                             CHEAP + ("lmbench", "long", SERVICE), (1, "granted", 1),
                             {"audit": False}),
    "EPTSPC-grant-refused": _toggle("EPTSPC", {"audit": False, "grants": False},
                                    CHEAP + ("lmbench", SERVICE), (1, "granted", 1),
                                    {"audit": False}),
    "inline-2": _toggle("COMPILED", {"workers": 2}, (SERVICE,), (0, "busy_workers", 2)),
    "inline-3": _toggle("COMPILED", {"workers": 3}, (SERVICE,), (0, "busy_workers", 3)),
    "spawn-2": _toggle("COMPILED", {"workers": 2, "spawn": True}, (SERVICE,),
                       (0, "busy_workers", 2)),
    "step-batch-off": _toggle("COMPILED", {"step_batch": False}, (SERVICE,),
                              (1, "replayed_steps", 1)),
}

#: The reference of the loose comparisons.  The mutation streams and
#: the ``long/*`` runs have none: under FULL the ten 150-step streams
#: cost 2.5 s and the 24 compile jobs 1.2 s, their claims (batched ==
#: per call; observers and grants change nothing) are pinned, and the
#: golden lmbench and build items hold the same operations to FULL.
REFERENCE = ("FULL", {"dcache": False})
NO_REFERENCE = ("mutation", "long")

SERVICE_SPECS = generate_stream(observables.SERVICE_SESSIONS, seed=observables.SERVICE_SEED)


def group(column):
    """The column's name up to its first ``/``, with ``E1/attack`` an
    ``"exploit"`` and ``fork-E1/attack`` a ``"fork"``."""
    head = column.split("/")[0]
    return "exploit" if head[0] == "E" else "fork" if head.startswith("fork-E") else head


# ---------------------------------------------------------------------------
# extractors
# ---------------------------------------------------------------------------


def record_verdicts(kernel):
    """Record every syscall's outcome, ``(name, "ok")`` or ``(name,
    error class, message)``, by wrapping the public methods of
    ``kernel.sys``; nested calls record too, in call order."""
    verdicts = []
    sys_ = kernel.sys
    for name in dir(type(sys_)):
        method = getattr(sys_, name)
        if name.startswith("_") or not callable(method):
            continue

        def wrapped(*args, _method=method, _name=name, **kwargs):
            try:
                result = _method(*args, **kwargs)
            except errors.KernelError as exc:
                verdicts.append((_name, type(exc).__name__, exc.message))
                raise
            verdicts.append((_name, "ok"))
            return result

        setattr(sys_, name, wrapped)
    return verdicts


def audit_entries(firewall):
    """Every firewall audit entry: ``(kind, severity, record)``."""
    return [(entry.kind, entry.severity, entry.record) for entry in firewall.audit.entries()]


def pinned_observables(kernel, firewall, verdicts):
    """Everything two runs of one configuration must share."""
    stats = kernel.stats
    return {
        "verdicts": list(verdicts),
        "engine": firewall.stats.as_dict() if firewall is not None else None,
        "kernel": (dict(stats.syscalls), stats.mediations, stats.pf_drops),
        "lsm": kernel.lsm.invocations,
        "selinux": list(kernel.selinux.denials),
        "audit": audit_entries(firewall) if firewall is not None else None,
        "kernel_audit": [(r.time, r.pid, r.comm, r.op, r.path, r.decision, r.detail)
                         for r in kernel.audit],
    }


def loose_observables(firewall, verdicts):
    """Everything any two rungs must share."""
    stats = firewall.stats
    return {
        "verdicts": list(verdicts),
        "stats": (stats.invocations, stats.accepts, stats.drops),
        "records": [(entry.kind, strip_volatile(entry.record, ("time",)))
                    for entry in firewall.audit.entries() if entry.kind in ("log", "drop")],
    }


@contextlib.contextmanager
def walk_grants(on, granted):
    """Walk grants as the kernel gives them, each granted step appended
    to ``granted``; with ``on`` false, ``answer_walk`` refuses every
    grant, which forces each step through the per-component path."""
    with pytest.MonkeyPatch.context() as patch:
        if on:
            accept = WalkAnswer.accept

            def counting(self):
                granted.append(None)
                accept(self)

            patch.setattr(WalkAnswer, "accept", counting)
        else:
            patch.setattr(ProcessFirewall, "answer_walk", lambda self, proc, seq: None)
        yield


def grant_differential(workload):
    """Assert ``workload()`` returns the same with walk grants and with
    every grant refused; returns the number of granted steps."""
    granted, refused = [], []
    with walk_grants(True, granted):
        with_grants = workload()
    with walk_grants(False, refused):
        assert workload() == with_grants
    return len(granted)


# ---------------------------------------------------------------------------
# the cells
# ---------------------------------------------------------------------------


_CELLS = {}


def observe(column, rung, **knobs):
    """``{"loose", "pinned", "tally"}`` of ``column`` under ``rung`` and
    ``knobs``, plus what ``tools/observables.py`` books of a bare run
    (``"golden"``) or a traced and metered one (``"observed"``); each
    distinct run happens once per pytest run."""
    if column == SERVICE:
        # The service world keeps the kernel audit trail off already.
        assert knobs.pop("audit", False) is False
    key = (column, rung, tuple(sorted(knobs.items())))
    if key in _CELLS:
        return _CELLS[key]
    if "replay" in knobs:
        # One captured stream serves both replays.
        for how, cell in _observe_run(column, rung, **knobs).items():
            _CELLS[column, rung, tuple(sorted(dict(knobs, replay=how).items()))] = cell
    else:
        _CELLS[key] = (_observe_service if column == SERVICE else _observe_run)(
            column, rung, **knobs)
    return _CELLS[key]


@functools.lru_cache(maxsize=None)
def golden_document():
    """``tests/golden/observables.json``."""
    with open(os.path.join(ROOT, observables.GOLDEN)) as handle:
        return json.load(handle)


def golden_twice(name, config):
    """``twice`` of :func:`observables.collect`, from the matrix's runs."""
    return dict(observe(name, config)["golden"],
                observed=observe(name, config, trace=True, meter=True)["observed"])


def golden_service(engine, metered):
    """``run`` of :func:`observables.service_runs`, from the matrix's runs."""
    return observe(SERVICE, engine, meter=metered)["run"]


def _slots(config):
    return [getattr(config, name) for name in EngineConfig.__slots__]


def _observe_run(column, rung, dcache=True, trace=False, meter=False, audit=None,
                 grants=True, replay=None):
    box = {}
    granted = []
    with contextlib.ExitStack() as stack:
        def instrument(firewall):
            kernel = firewall.kernel
            box["verdicts"] = record_verdicts(kernel)
            box["before"] = firewall.stats.invocations
            kernel.dcache.enabled = dcache
            if audit is not None:
                kernel.audit_enabled = audit
            if trace:
                firewall.enable_tracing(capacity=1 << 20)
            if meter:
                firewall.metrics.enable()
            if replay:
                box["operations"] = stack.enter_context(record_mediations(firewall))

        stack.enter_context(walk_grants(grants, granted))
        result, firewall, kernel = COLUMNS[column](rung, instrument)
    assert _slots(firewall.config) == _slots(getattr(EngineConfig, CONFIGS[rung])()), rung
    stats = firewall.stats
    tally = Counter(decision_cache_hits=stats.decision_cache_hits,
                    walk_hits=kernel.dcache.walks.hits, granted=len(granted))
    # Mediations since instrument(): one trace and one metered verdict each.
    mediations = stats.invocations - box["before"]
    if trace:
        assert len(firewall.tracer) == mediations
        tally["traces"] = mediations
    if meter:
        assert sum(firewall.metrics.value("pf_verdicts_total", {"verdict": verdict})
                   for verdict in ("allow", "drop")) == mediations
        tally["verdicts_metered"] = mediations
    verdicts = box["verdicts"]
    out = {
        "loose": dict(loose_observables(firewall, verdicts), result=result),
        "pinned": dict(pinned_observables(kernel, firewall, verdicts), result=result),
        "tally": tally,
    }
    plain = dcache and audit is None and grants and not replay
    if plain and not trace and not meter:
        out["golden"] = observables.bare_observables(firewall, kernel, result)
    elif plain and trace and meter:
        out["observed"] = observables.observed_observables(firewall)
    if replay:
        cells = {}
        for how in ("per-call", "batched"):
            counted = Counter(tally)
            cells[how] = dict(out, tally=counted, pinned=dict(
                out["pinned"], replay=_replay(firewall, box["operations"], how, counted)))
        return cells
    return out


def _replay(firewall, operations, how, tally):
    """Re-mediate the captured ``operations`` per call or batched, from
    reset stats and caches; tallies the records the batch amortized."""
    reset_mediation_state(firewall)
    calls = []
    mediate = firewall.mediate
    firewall.mediate = lambda operation: calls.append(None) or mediate(operation)
    try:
        verdicts = replay_mediations(firewall, operations, batched=how == "batched")
    finally:
        del firewall.mediate
    tally.update(replayed=len(operations), amortized=len(operations) - len(calls),
                 mutating=sum(map(record_mutates, operations)))
    return verdicts, firewall.stats.as_dict(), audit_entries(firewall)


def _observe_service(column, rung, dcache=True, meter=False, grants=True, workers=1,
                     spawn=False, step_batch=True):
    granted, batches = [], []
    batch = ProcessFirewall.mediate_batch
    with walk_grants(grants, granted), pytest.MonkeyPatch.context() as patch:
        # Counts the step loop's replays in this process (inline workers).
        patch.setattr(ProcessFirewall, "mediate_batch",
                      lambda self, operations: batches.append(None) or batch(self, operations))
        run = run_service(SERVICE_SPECS, engine=rung, workers=workers, processes=spawn,
                          step_batch=step_batch, dcache=dcache, metered=meter)
    stats = run["stats"]
    assert run["counters"]["completed"] == len(SERVICE_SPECS)
    loose = {
        "result": run["drops"],
        "verdicts": run["verdicts"],
        "stats": (stats["invocations"], stats["accepts"], stats["drops"]),
        "records": [{k: v for k, v in row.items() if k != "worker"} for row in run["audit"]],
    }
    return {
        "loose": loose,
        "pinned": dict(loose, engine=stats),
        "tally": Counter(decision_cache_hits=stats["decision_cache_hits"], granted=len(granted),
                         busy_workers=sum(row["sessions"] > 0 for row in run["workers"]),
                         replayed_steps=len(batches)),
        "run": run,
    }


def columns_of(row):
    """The columns ``row`` runs on."""
    return [column for column in COLUMNS if group(column) in ROWS[row].groups]


def check(row, *columns):
    """Assert ``row``'s cells on ``columns``: loosely equal to the
    reference and, for a toggle row, pinned to its base; a failure
    names each ``"column loose|pinned: key"`` that differs."""
    spec = ROWS[row]
    found = []
    for column in columns:
        assert group(column) in spec.groups, (row, column)
        cell = observe(column, spec.rung, **spec.knobs)
        sides = [] if group(column) in NO_REFERENCE else [("loose", REFERENCE)]
        sides += [("pinned", spec.base)] if spec.base else []
        for how, (rung, knobs) in sides:
            mine, other = cell[how], observe(column, rung, **knobs)[how]
            found += ["{} {}: {}".format(column, how, key)
                      for key in sorted(set(mine) | set(other)) if mine.get(key) != other.get(key)]
    assert not found, (row, found)


def tally(row, key, columns=None, side=0):
    """``key`` summed over ``row``'s runs (``side`` 0) or its base's (1)
    on ``columns`` (default: all of the row's)."""
    spec = ROWS[row]
    rung, knobs = (spec.rung, spec.knobs) if side == 0 else spec.base
    return sum(observe(column, rung, **knobs)["tally"][key]
               for column in columns or columns_of(row))


# ---------------------------------------------------------------------------
# the corpus items only a differential needs
# ---------------------------------------------------------------------------


def macro_workload(kernel, shell):
    """Tree walks, reads, a fork that execs and a forked worker."""
    sys_ = kernel.sys
    for _ in range(8):
        sys_.stat(shell, "/etc/passwd")
        fd = sys_.open(shell, "/etc/passwd")
        sys_.read(shell, fd, 32)
        sys_.close(shell, fd)
    for _ in range(4):
        sys_.stat(shell, "/lib/libc.so.6")
        sys_.getpid(shell)
    child = sys_.fork(shell)
    sys_.execve(child, "/bin/sh", argv=["/bin/sh", "-c", "true"])
    sys_.stat(child, "/bin/sh")
    sys_.exit(child, 0)
    worker = sys_.fork(shell)
    for _ in range(4):
        sys_.stat(worker, "/etc/passwd")
    sys_.exit(worker, 0)


def _world(config, rules, instrument):
    """A world with a root shell under ``config`` and ``rules``."""
    kernel = build_world()
    firewall = kernel.attach_firewall(ProcessFirewall(EngineConfig.preset(config)))
    firewall.install_all(rules)
    instrument(firewall)
    return kernel, firewall, kernel.spawn("sh", uid=0, label="unconfined_t",
                                          binary_path="/bin/sh")


_LABELS = ["etc_t", "tmp_t", "lib_t", "shadow_t", "var_t"]
_OPS = ["FILE_OPEN", "FILE_READ", "FILE_GETATTR", "DIR_SEARCH"]
_OFFSETS = [0x10, 0x20, 0x30]
_SYSCALLS = ["stat", "open", "close", "getpid", "read"]
_PROBE_PATHS = ["/etc/passwd", "/etc/shadow", "/lib/libc.so.6", "/tmp/world-writable",
                "/tmp/private"]

#: Every ``syscallbegin`` rule shape: only ``equal`` gives the chain a
#: syscall index entry; every other shape makes the index a wildcard.
SYSCALLBEGIN_SHAPES = ("equal", "nequal", "arg1", "atom", "no_args", "mangle_state", "jump")


def _syscallbegin_rules(rng, shape):
    nr = rng.choice(_SYSCALLS)
    target = rng.choice(("DROP", "LOG --prefix sb", "LOG --prefix sb"))
    head = "pftables -A syscallbegin -m SYSCALL_ARGS --arg "
    if shape in ("equal", "nequal"):
        return [head + "0 --{} NR_{} -j {}".format(shape, nr, target)]
    if shape == "arg1":
        return [head + "1 --equal {} -j {}".format(rng.choice(_PROBE_PATHS), target)]
    if shape == "atom":
        return [head + "0 --{} C_SUBJECT -j {}".format(rng.choice(("equal", "nequal")), target)]
    if shape == "no_args":
        return ["pftables -A syscallbegin -s {} -j {}".format(
            rng.choice(("unconfined_t", "etc_t")), target)]
    if shape == "mangle_state":
        # A filter input rule reads the mangle chain's mark, so a
        # syscall the filter syscallbegin chain never names still
        # changes later verdicts.
        return [
            "pftables -t mangle -A syscallbegin -m SYSCALL_ARGS --arg 0 --equal NR_{} "
            "-j STATE --set --key 'seen' --value 1".format(nr),
            "pftables -A input -o FILE_OPEN -m STATE --key 'seen' --cmp 1 -j DROP",
        ]
    return [head + "0 --equal NR_{} -j sb_drop".format(nr), "pftables -A sb_drop -j DROP"]


def _cross_table_pair(rng):
    """A ``syscallbegin`` chain the syscall index narrows beside one in
    the other table it cannot narrow."""
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
    """A deny-only rule base: a :func:`_cross_table_pair`, input rules
    over every default match and the path argument and, unless
    ``shape`` is ``None``, ``syscallbegin`` rules, one of ``shape``."""
    rules = _cross_table_pair(rng)
    kinds = ["label", "entry", "adversary", "path"]
    if shape is not None:
        rules += _syscallbegin_rules(rng, shape)
        kinds.append("syscallbegin")
    for _ in range(rng.randint(2, 8)):
        kind = rng.choice(kinds)
        if kind == "syscallbegin":
            rules.extend(_syscallbegin_rules(rng, rng.choice(SYSCALLBEGIN_SHAPES)))
        elif kind == "path":
            # A resource operation's args[0] is its path: the input
            # chain's syscall index must never narrow it.
            rules.append("pftables -A input -m SYSCALL_ARGS --arg 0 --equal {} -j DROP".format(
                rng.choice(_PROBE_PATHS)))
        else:
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
            rules.append(" ".join(parts + ["-j DROP"]))
    return rules


def rules_item(seed, which):
    """Probe syscalls, twice over so the second round runs on warm
    caches, under seed ``seed``'s rule base ``which``: 0 has a
    ``syscallbegin`` rule of shape ``seed`` mod 7 (12 seeds cover
    every shape), 1 has none."""
    def run(config, instrument):
        rng = random.Random(seed)
        bases = [_random_rules(rng, shape) for shape in (
            SYSCALLBEGIN_SHAPES[seed % len(SYSCALLBEGIN_SHAPES)], None)]
        kernel, firewall, proc = _world(config, bases[which], instrument)
        kernel.add_file("/tmp/world-writable", b"x", uid=1000, mode=0o666, label="tmp_t")
        kernel.add_file("/tmp/private", b"x", uid=0, mode=0o600, label="tmp_t")
        for offset in _OFFSETS[:2]:
            proc.call(proc.binary, offset)
        sys_ = kernel.sys
        for _round, path in itertools.product(range(2), _PROBE_PATHS):
            for probe in (lambda: sys_.stat(proc, path), lambda: sys_.getpid(proc),
                          lambda: sys_.close(proc, sys_.open(proc, path))):
                with contextlib.suppress(errors.KernelError):
                    probe()
        return None, firewall, kernel

    return run


#: ``syscallbegin`` chains the syscall index narrows, each beside one in
#: the other table it cannot narrow, and the syscall the narrow chain
#: names, run after ``getpid`` memoized an allow.
CROSS_TABLE_CASES = {
    "filter_names_getuid": (
        [
            "pftables -t mangle -A syscallbegin -s etc_t -j LOG --prefix m",
            "pftables -A syscallbegin -m SYSCALL_ARGS --arg 0 --equal NR_getuid -j DROP",
        ],
        lambda sys_, proc: sys_.getuid(proc),
    ),
    "mangle_names_sigreturn": (
        [
            "pftables -A syscallbegin -s etc_t -j DROP",
            "pftables -t mangle -A syscallbegin -m SYSCALL_ARGS --arg 0 --equal NR_sigreturn "
            "-j STATE --set --key 'sig' --value 1",
            "pftables -A input -o FILE_OPEN -m STATE --key 'sig' --cmp 1 -j DROP",
        ],
        lambda sys_, proc: (sys_.sigreturn(proc), sys_.open(proc, "/etc/passwd")),
    ),
}


def cross_table_item(case):
    """A skipped chain never widens a cached allow: the named syscall
    drops, on every row."""
    def run(config, instrument):
        rules, then = CROSS_TABLE_CASES[case]
        kernel, firewall, proc = _world(config, rules, instrument)
        for _ in range(2):
            kernel.sys.getpid(proc)
        with pytest.raises(errors.PFDenied):
            then(kernel.sys, proc)
        assert firewall.stats.drops == 1
        return True, firewall, kernel

    return run


def walk_item(config, instrument):
    """A user process warms its walk through ``/srv/a/b`` with no rules
    (so EPTSPC and COMPILED grant its walks), then meets ``b`` closed
    to it, mid-path: DAC must refuse that step, grant or not."""
    kernel, firewall, shell = _world(config, [], instrument)
    kernel.mkdirs("/srv/a/b", label="usr_t")
    kernel.add_file("/srv/a/b/f", b"x", label="usr_t")
    user = kernel.spawn("cc", uid=1000, label="user_t", binary_path="/bin/sh")
    for mode in (0o755, 0o700):
        kernel.sys.chmod(shell, "/srv/a/b", mode)
        for _ in range(3):
            with contextlib.suppress(errors.KernelError):
                kernel.sys.stat(user, "/srv/a/b/f")
    return None, firewall, kernel


def long_lmbench(config, instrument):
    """24 rounds of the lmbench mix, where the golden item runs 12."""
    suite = run_lmbench(config, setup=instrument)
    return None, suite.firewall, suite.kernel


def long_build(config, instrument):
    """24 seeded compile jobs, 6 of them traps: the golden item's 16 and
    8 more, 2 of those traps."""
    tree = run_build(setup=instrument, engine=config)
    return tree.drops, tree.firewall, tree.kernel


def mutation_item(seed):
    """150 seeded reads with create, chmod, rename and unlink mixed in
    at random, by a root shell under the full rule base with the kernel
    audit trail off."""
    def run(config, instrument):
        kernel = build_world()
        kernel.audit_enabled = False
        firewall = kernel.attach_firewall(ProcessFirewall(EngineConfig.preset(config)))
        install_full_rulebase(firewall)
        instrument(firewall)
        proc, rng, sys_, created = spawn_root_shell(kernel), random.Random(seed), kernel.sys, []
        serial = itertools.count()

        def create():
            path = "/tmp/mut{}".format(next(serial))
            fd = sys_.open(proc, path, flags=OpenFlags.O_CREAT | OpenFlags.O_WRONLY)
            sys_.write(proc, fd, b"x")
            sys_.close(proc, fd)
            created.append(path)

        def rename():
            sys_.rename(proc, created[-1], created[-1] + ".r")
            created[-1] += ".r"

        actions = [
            lambda: sys_.stat(proc, "/etc/passwd"),
            lambda: sys_.access(proc, "/etc/passwd"),
            lambda: sys_.getpid(proc),
            create,
            lambda: created and sys_.chmod(proc, rng.choice(created), 0o640),
            lambda: created and rename(),
            lambda: created and sys_.unlink(proc, created.pop()),
        ]
        for _ in range(150):
            with contextlib.suppress(errors.KernelError):
                rng.choices(actions, weights=[5, 3, 3, 2, 1, 1, 1])[0]()
        return None, firewall, kernel

    return run


COLUMNS = dict(observables.items(), macro=observables.replay_item(macro_workload), walk=walk_item)
COLUMNS.update({"long/lmbench": long_lmbench, "long/build": long_build})
for _seed in range(12):
    COLUMNS["rules/{}".format(_seed)] = rules_item(_seed, 0)
    COLUMNS["rules/{}/plain".format(_seed)] = rules_item(_seed, 1)
for _case in sorted(CROSS_TABLE_CASES):
    COLUMNS["cross/" + _case] = cross_table_item(_case)
for _seed in range(10):
    COLUMNS["mutation/{}".format(_seed)] = mutation_item(_seed)
COLUMNS[SERVICE] = None
