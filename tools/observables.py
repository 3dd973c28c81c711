#!/usr/bin/env python
"""Golden observables: what the engine lets a caller see, over a fixed corpus.

Runs a fixed, deterministic corpus and prints one canonical JSON
document (sorted keys) of everything it observed.  The corpus:

- every Table 4 exploit (E1–E9), attack and benign run, under each
  engine rung of :data:`RUNGS`;
- the lmbench mix of ``tests/plumbing_workloads.py`` under each
  Table 6 column of :data:`COLUMNS`, with the process stack intact and
  with it corrupted (``EFAULT`` below frame :data:`CORRUPT_BELOW`);
- :data:`BUILD_JOBS` compile jobs of the plumbing build tree;
- :data:`SERVICE_SESSIONS` seeded service sessions, run inline, under
  each rung of :data:`SERVICE_ENGINES`;
- under COMPILED, E1–E9 again with a fork+execve storm
  (:func:`fork_storm`) between set-up and the attack or benign
  workload, and the replay of a recorded fork/exec workload that
  carries live ``STATE`` rule state across fork
  (:func:`fork_state_workload`).

Every firewall item is a ``run(config, instrument)`` callable that
returns ``(result, firewall, kernel)``: ``config`` is an
:meth:`~repro.firewall.engine.EngineConfig.preset` name and
``instrument(firewall)``, when given, runs once the firewall is
attached.  ``tests/differential.py`` runs the same items under every
row of the differential matrix.

Each item runs twice from a fresh world.  The *bare* run has no tracer
and metrics off, so the engine's unobserved short paths run; it books
``EngineStats.as_dict()``, ``kernel.stats``, a tally of the kernel
audit trail, and every firewall audit record through
:func:`repro.parallel.merge.strip_volatile`.  The *observed* run has a
tracer and metrics on; it books the ``pf_*`` counters and a tally of
the trace shapes (op, stages, decision-cache outcome, verdict).

``tests/golden/observables.json`` holds the document, and
``tests/test_observables.py`` fails when a run stops matching it.  A
change that moves an observable on purpose regenerates the file and
names the moved fields.  Run from the repository root::

    PYTHONPATH=src python tools/observables.py [OUT]

It writes ``OUT`` (default: stdout), and with ``--diff OLD NEW``
prints the paths at which two such documents differ.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter

#: An exploit's two runs, and the lmbench mix's two stacks.
ARMS = ("attack", "benign")
STACKS = ("intact", "corrupt")

#: Engine rungs the exploits run under (DISABLED mediates nothing).
RUNGS = ("FULL", "CONCACHE", "LAZYCON", "EPTSPC", "COMPILED")

#: Table 6 columns the lmbench mix runs under.
COLUMNS = ("DISABLED", "BASE", "FULL", "CONCACHE", "LAZYCON", "EPTSPC", "COMPILED")

#: lmbench rounds per column, and the stack depth at which the
#: corrupted-stack runs raise ``EFAULT``.
LMBENCH_ROUNDS = 12
CORRUPT_BELOW = 3

BUILD_JOBS = 16

SERVICE_SESSIONS = 24
SERVICE_SEED = 0xB1FF
SERVICE_ENGINES = ("EPTSPC", "COMPILED")

#: Where the checked-in document lives, relative to the repository root.
GOLDEN = os.path.join("tests", "golden", "observables.json")


def _observe(firewall):
    """Turn the tracer and the metrics registry on."""
    firewall.enable_tracing(capacity=1 << 20)
    firewall.metrics.enable()


def _label_key(name, labels):
    """``name{k=v,...}``: one flat JSON key per counter series."""
    if not labels:
        return name
    return "{}{{{}}}".format(name, ",".join("{}={}".format(k, v) for k, v in labels))


def bare_observables(firewall, kernel, result):
    """Result, counters and audit records of an unobserved run."""
    from repro.parallel.merge import strip_volatile

    out = {
        "kernel": {
            name: dict(value) if isinstance(value, dict) else value
            for name, value in vars(kernel.stats).items()
        },
        "kernel_audit": dict(Counter(
            "{} {}".format(record.op, record.decision) for record in kernel.audit)),
        "result": result,
    }
    if firewall is not None:
        out["stats"] = firewall.stats.as_dict()
        out["audit"] = [
            {"kind": entry.kind, "severity": entry.severity,
             "record": strip_volatile(entry.record)}
            for entry in firewall.audit.entries()
        ]
    return out


def observed_observables(firewall):
    """``pf_*`` counters and trace shapes of an observed run."""
    if firewall is None:
        return None
    tracer = firewall.tracer
    return {
        "pf": {
            _label_key(name, labels): value
            for name, labels, value in firewall.metrics.counters()
            if name.startswith("pf_")
        },
        "traces_begun": tracer._next_seq,
        "traces": dict(Counter(
            "{} {} {} {}".format(t.op, ">".join(t.stages), t.decision_cache, t.verdict)
            for t in tracer)),
    }


def _twice(run, config):
    """Item ``run`` under ``config``, bare and observed."""
    result, firewall, kernel = run(config, None)
    out = bare_observables(firewall, kernel, result)
    _, firewall, _ = run(config, _observe)
    out["observed"] = observed_observables(firewall)
    return out


def exploit_item(eid, arm, storm=False):
    """Exploit ``eid``'s ``"attack"`` or ``"benign"`` arm, with a
    :func:`fork_storm` between set-up and the workload if ``storm``;
    an attack's result is ``[succeeded, blocked, denied]``."""
    from repro.attacks.exploits import EXPLOITS
    from repro.firewall.engine import EngineConfig

    def run(config, instrument):
        scenario = EXPLOITS[eid]()
        if storm:
            setup = scenario._setup
            scenario._setup = lambda kernel: (setup(kernel), fork_storm(kernel))
        config = EngineConfig.preset(config)
        if arm == "benign":
            result = scenario.run_benign(
                with_firewall=True, config=config, instrument=instrument)
            return result, scenario.firewall, scenario.kernel
        result = scenario.run(with_firewall=True, config=config, instrument=instrument)
        return [result.succeeded, result.blocked, result.denied], scenario.firewall, scenario.kernel

    return run


def lmbench_item(stack):
    """:data:`LMBENCH_ROUNDS` rounds of the lmbench mix, the stack
    ``"intact"`` or ``"corrupt"``."""
    from repro.workloads.lmbench import LmbenchSuite
    from tests.plumbing_workloads import lmbench_round

    def run(config, instrument):
        suite = LmbenchSuite(config)
        if instrument is not None:
            instrument(suite.firewall)
        if stack == "corrupt":
            suite.proc.stack.corrupt_below = CORRUPT_BELOW
        for _ in range(LMBENCH_ROUNDS):
            lmbench_round(suite)
        return None, suite.firewall, suite.kernel

    return run


def build_item(config, instrument):
    """:data:`BUILD_JOBS` compile jobs on the plumbing build tree."""
    from tests.plumbing_workloads import run_build

    tree = run_build(sessions=BUILD_JOBS, setup=instrument, engine=config)
    return tree.drops, tree.firewall, tree.kernel


def service_runs(run=None):
    """Seeded service sessions through one inline worker, per engine;
    ``run(engine, metered)`` gives ``run_service``'s result, by default
    by calling it."""
    from repro.obs.metrics import parse_prometheus
    from repro.service import run_service
    from repro.workloads.generators import generate_stream

    if run is None:
        specs = generate_stream(SERVICE_SESSIONS, seed=SERVICE_SEED)

        def run(engine, metered):
            return run_service(specs, engine=engine, workers=1, processes=False, metered=metered)

    out = {}
    for engine in SERVICE_ENGINES:
        bare, metered = run(engine, False), run(engine, True)
        out[engine] = {
            "verdicts": [" ".join(map(str, row)) for row in bare["verdicts"]],
            "stats": bare["stats"],
            "drops": bare["drops"],
            "audit": [{k: v for k, v in row.items() if k != "worker"} for row in bare["audit"]],
            "observed": {"pf": {
                _label_key(name, labels): value
                for (name, labels), value in parse_prometheus(metered["metrics_prom"]).items()
                if name.startswith("pf_") and not name.endswith("_seconds_total")
            }},
        }
    return out


def fork_storm(kernel):
    """Every live process forks a worker that execs ``/bin/sh`` and
    exits, then a bystander that stays alive holding the inherited
    firewall state: a fork that leaked state between relatives shows
    in the run that follows."""
    from repro import errors

    for pid in sorted(kernel.processes):
        proc = kernel.processes[pid]
        try:
            worker = kernel.sys.fork(proc)
            kernel.sys.execve(worker, "/bin/sh", argv=["/bin/sh", "-c", "true"])
            kernel.sys.exit(worker, 0)
            kernel.sys.fork(proc)
        except errors.KernelError:
            # A process without exec rights keeps the storm going for
            # the others.
            continue


def fork_state_workload(kernel, shell):
    """fork/execve traffic with live ``STATE`` rule state: the shell
    binds (recording an invariant), and each worker inherits it, holds
    it for the parent's socket, re-records it with its own bind, trips
    it (the TOCTTOU drop), forks a child that execs, and exits."""
    from repro import errors

    sys_ = kernel.sys
    sys_.bind(shell, "/var/run/main.sock")
    sys_.chmod(shell, "/var/run/main.sock", 0o660)
    for i in range(3):
        worker = sys_.fork(shell)
        sys_.stat(worker, "/etc/passwd")
        sys_.chmod(worker, "/var/run/main.sock", 0o600)
        sys_.bind(worker, "/var/run/w{}.sock".format(i))
        try:
            sys_.chmod(worker, "/var/run/main.sock", 0o640)
        except errors.KernelError:
            pass
        grand = sys_.fork(worker)
        sys_.execve(grand, "/bin/sh", argv=["/bin/sh", "-c", "true"])
        sys_.stat(grand, "/bin/sh")
        sys_.exit(grand, 0)
        sys_.exit(worker, 0)
    for _ in range(4):
        sys_.stat(shell, "/etc/passwd")


#: Unconditioned forms of the dbus TOCTTOU template (the full base's
#: ``STATE`` rules fire only for dbus-daemon), so the replayed binds
#: and chmods of :func:`fork_state_workload` carry live state.
FORK_STATE_RULES = (
    "pftables -A input -o SOCKET_BIND -j STATE --set --key 0xbeef --value C_INO",
    "pftables -A input -o SOCKET_SETATTR -m STATE --key 0xbeef --cmp C_INO --nequal -j DROP",
)


def replay_item(workload, rules=()):
    """Replay of ``workload(kernel, shell)``, recorded once on a world
    without a firewall, into a full-rule-base world with ``rules``
    added; the result is ``[executed, [[method, errno], ...]]``."""
    from repro.firewall.engine import EngineConfig, ProcessFirewall
    from repro.rulesets.generated import install_full_rulebase
    from repro.workloads.replay import record_syscalls, replay
    from repro.world import build_world, spawn_root_shell

    recorded = []

    def run(config, instrument):
        if not recorded:
            world = build_world()
            shell = spawn_root_shell(world)
            with record_syscalls(world) as trace:
                workload(world, shell)
            recorded[:] = [trace, shell.pid]
        trace, pid = recorded
        world = build_world()
        firewall = ProcessFirewall(EngineConfig.preset(config))
        world.attach_firewall(firewall)
        install_full_rulebase(firewall)
        firewall.install_all(list(rules))
        if instrument is not None:
            instrument(firewall)
        result = replay(world, trace, {pid: spawn_root_shell(world)})
        failures = [[method, errno] for _index, method, errno in result.failures]
        return [result.executed, failures], firewall, world

    return run


def items():
    """Every firewall item by name: ``"E1/attack"`` … ``"E9/benign"``,
    ``"fork-E1/attack"`` … ``"fork-E9/benign"``, ``"lmbench/intact"``,
    ``"lmbench/corrupt"``, ``"build"`` and ``"fork-replay"``."""
    from repro.attacks.exploits import EXPLOITS

    out = {}
    for eid in sorted(EXPLOITS):
        for arm in ARMS:
            out["{}/{}".format(eid, arm)] = exploit_item(eid, arm)
            out["fork-{}/{}".format(eid, arm)] = exploit_item(eid, arm, storm=True)
    for stack in STACKS:
        out["lmbench/" + stack] = lmbench_item(stack)
    out["build"] = build_item
    out["fork-replay"] = replay_item(fork_state_workload, FORK_STATE_RULES)
    return out


def collect(twice=None, service=None):
    """The whole corpus as one JSON-ready dict.  ``twice(name, config)``
    gives item ``name`` under ``config`` bare and observed, by default
    by running it twice; ``service`` is :func:`service_runs`'s ``run``."""
    from repro.attacks.exploits import EXPLOITS

    if twice is None:
        corpus = items()

        def twice(name, config):
            return _twice(corpus[name], config)

    eids = sorted(EXPLOITS)
    return {
        "exploits": {
            eid: {rung: {arm: twice("{}/{}".format(eid, arm), rung) for arm in ARMS}
                  for rung in RUNGS}
            for eid in eids
        },
        "lmbench": {
            "{}/{}".format(column, stack): twice("lmbench/" + stack, column)
            for column in COLUMNS for stack in STACKS
        },
        "build": twice("build", "COMPILED"),
        "service": service_runs(service),
        "fork": {eid: {arm: twice("fork-{}/{}".format(eid, arm), "COMPILED") for arm in ARMS}
                 for eid in eids},
        "fork_replay": twice("fork-replay", "COMPILED"),
    }


def dumps(document):
    """The canonical text of a document: sorted keys, one line per value."""
    return json.dumps(document, sort_keys=True, indent=0) + "\n"


def diff(old, new, path=""):
    """Paths (``a/b/c``) at which two documents differ."""
    if isinstance(old, dict) and isinstance(new, dict):
        out = []
        for key in sorted(set(old) | set(new)):
            where = "{}/{}".format(path, key)
            if key not in old or key not in new:
                out.append(where)
            else:
                out.extend(diff(old[key], new[key], where))
        return out
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        out = []
        for index, (a, b) in enumerate(zip(old, new)):
            out.extend(diff(a, b, "{}/{}".format(path, index)))
        return out
    return [] if old == new else [path]


def main(argv):
    if argv[:1] == ["--diff"]:
        with open(argv[1]) as a, open(argv[2]) as b:
            moved = diff(json.load(a), json.load(b))
        print("\n".join(moved))
        return 1 if moved else 0
    text = dumps(collect())
    if argv:
        with open(argv[0], "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
    sys.exit(main(sys.argv[1:]))
