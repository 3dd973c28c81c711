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
  each rung of :data:`SERVICE_ENGINES`.

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


def bare_observables(firewall, kernel):
    """Counters and audit records of an unobserved run."""
    from repro.parallel.merge import strip_volatile

    out = {
        "kernel": {
            name: dict(value) if isinstance(value, dict) else value
            for name, value in vars(kernel.stats).items()
        },
        "kernel_audit": dict(Counter(
            "{} {}".format(record.op, record.decision) for record in kernel.audit)),
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


def _twice(run):
    """``run(instrument)`` bare and observed; ``run`` returns
    ``(result, firewall, kernel)``."""
    result, firewall, kernel = run(None)
    out = bare_observables(firewall, kernel)
    out["result"] = result
    _, firewall, _ = run(_observe)
    out["observed"] = observed_observables(firewall)
    return out


def exploit_runs():
    """E1–E9, attack and benign, per rung."""
    from repro.attacks.exploits import EXPLOITS
    from repro.firewall.engine import EngineConfig

    out = {}
    for eid in sorted(EXPLOITS):
        per_rung = out[eid] = {}
        for rung in RUNGS:
            def attack(instrument):
                scenario = EXPLOITS[eid]()
                result = scenario.run(
                    with_firewall=True, config=EngineConfig.preset(rung), instrument=instrument)
                return ([result.succeeded, result.blocked, result.denied],
                        scenario.firewall, scenario.kernel)

            def benign(instrument):
                scenario = EXPLOITS[eid]()
                result = scenario.run_benign(
                    with_firewall=True, config=EngineConfig.preset(rung), instrument=instrument)
                return result, scenario.firewall, scenario.kernel

            per_rung[rung] = {"attack": _twice(attack), "benign": _twice(benign)}
    return out


def lmbench_runs():
    """The lmbench mix per column, stack intact and corrupted."""
    from repro.workloads.lmbench import LmbenchSuite
    from tests.plumbing_workloads import lmbench_round

    out = {}
    for column in COLUMNS:
        for stack in ("intact", "corrupt"):
            def run(instrument):
                suite = LmbenchSuite(column)
                if instrument is not None:
                    instrument(suite.firewall)
                if stack == "corrupt":
                    suite.proc.stack.corrupt_below = CORRUPT_BELOW
                for _ in range(LMBENCH_ROUNDS):
                    lmbench_round(suite)
                return None, suite.firewall, suite.kernel

            out["{}/{}".format(column, stack)] = _twice(run)
    return out


def build_runs():
    """:data:`BUILD_JOBS` compile jobs on the plumbing build tree."""
    from tests.plumbing_workloads import run_build

    def run(instrument):
        tree = run_build(sessions=BUILD_JOBS, setup=instrument)
        return tree.drops, tree.firewall, tree.kernel

    return _twice(run)


def service_runs():
    """Seeded service sessions through one inline worker, per engine."""
    from repro.obs.metrics import parse_prometheus
    from repro.service import run_service
    from repro.workloads.generators import generate_stream

    specs = generate_stream(SERVICE_SESSIONS, seed=SERVICE_SEED)
    out = {}
    for engine in SERVICE_ENGINES:
        bare = run_service(specs, engine=engine, workers=1, processes=False)
        metered = run_service(specs, engine=engine, workers=1, processes=False, metered=True)
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


def collect():
    """The whole corpus as one JSON-ready dict."""
    return {
        "exploits": exploit_runs(),
        "lmbench": lmbench_runs(),
        "build": build_runs(),
        "service": service_runs(),
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
