"""Table 6: per-syscall microbenchmarks across engine configurations.

Columns: DISABLED (baseline), BASE (enabled, empty rules), FULL (1218
rules, no optimizations), CONCACHE (+context caching), LAZYCON (+lazy
retrieval), EPTSPC (+entrypoint chains), COMPILED (+compiled dispatch
and the negative-decision cache), TRACED (COMPILED with the full
observability layer on: decision tracing + metrics registry — its
distance from COMPILED is the published tracing-overhead number, and
COMPILED itself must stay within noise of its pre-observability
numbers, pinning the disabled path).  Shape expectations follow the
paper: BASE ≈ DISABLED, FULL is the blow-up (worst on ``stat``/
``open``), each optimization column recovers cost with EPTSPC landing
within a few percent on most rows — COMPILED must never lose to
EPTSPC, winning outright on the path-walking rows the decision cache
short-circuits.

``PF_TABLE6_ITERS`` overrides the grid's iteration count; small values
(< 200, e.g. the CI smoke run) skip the timing-shape assertions, which
need steady-state numbers to be meaningful.
"""

import os

import pytest

from repro.analysis.tables import format_table, overhead_pct
from repro.workloads.lmbench import LMBENCH_OPS, LmbenchSuite, run_table6

COLUMNS = ["DISABLED", "BASE", "FULL", "CONCACHE", "LAZYCON", "EPTSPC", "COMPILED", "TRACED"]

#: Timing-noise allowance for the "COMPILED never loses to EPTSPC"
#: sweep: rows where both configurations do the same work should tie,
#: and a tie under a noisy scheduler can wobble either way.
NOISE_TOLERANCE = 1.25


def _grid_iterations(default=1500):
    return int(os.environ.get("PF_TABLE6_ITERS", default))


@pytest.mark.parametrize("column", COLUMNS)
def test_stat_per_column(benchmark, column):
    suite = LmbenchSuite(column)
    benchmark(suite.op_stat)


@pytest.mark.parametrize("column", ["DISABLED", "BASE", "EPTSPC", "COMPILED"])
def test_open_close_per_column(benchmark, column):
    suite = LmbenchSuite(column)
    benchmark(suite.op_open_close)


def test_table6_grid(run_once, emit):
    iterations = _grid_iterations()
    results = run_once(run_table6, iterations=iterations)
    rows = []
    for op in LMBENCH_OPS:
        base = results[op]["DISABLED"]
        row = [op] + [
            "{:.2f} ({:+.1f}%)".format(results[op][c], overhead_pct(base, results[op][c]))
            for c in COLUMNS
        ]
        rows.append(tuple(row))
    emit(
        format_table(
            ["syscall"] + COLUMNS,
            rows,
            title="Table 6: lmbench-style microbenchmarks (us, % vs DISABLED)",
        )
    )

    if iterations < 200:
        pytest.skip("PF_TABLE6_ITERS too small for stable timing-shape assertions")

    stat = {c: results["stat"][c] for c in COLUMNS}
    null = {c: results["null"][c] for c in COLUMNS}
    # FULL is the outlier; the optimizations claw the cost back.  In
    # our Python engine rule *scanning* dominates on path-walking
    # syscalls (so EPTSPC is the decisive column there), while context
    # *collection* dominates on null (so LAZYCON shows there) — the
    # paper's C engine had collection dominating everywhere.
    assert stat["FULL"] > stat["BASE"]
    assert stat["EPTSPC"] < stat["FULL"]
    assert null["LAZYCON"] < null["FULL"]
    assert null["EPTSPC"] < null["FULL"]
    # Resource syscalls are hit harder than null in FULL (asserted on
    # absolute added cost; our simulated null's ~1µs baseline inflates
    # relative numbers).
    stat_added = results["stat"]["FULL"] - results["stat"]["DISABLED"]
    null_added = results["null"]["FULL"] - results["null"]["DISABLED"]
    assert stat_added > 3 * null_added

    # COMPILED extends the ladder: never worse than EPTSPC anywhere
    # (modulo timing noise on rows where both configurations do the
    # same work), and strictly faster on the path-walking rows whose
    # traversals the negative-decision cache short-circuits.
    for op in LMBENCH_OPS:
        assert results[op]["COMPILED"] <= results[op]["EPTSPC"] * NOISE_TOLERANCE, (
            "COMPILED regressed on {}: {:.2f}us vs EPTSPC {:.2f}us".format(
                op, results[op]["COMPILED"], results[op]["EPTSPC"]
            )
        )
    assert results["stat"]["COMPILED"] < results["stat"]["EPTSPC"]
    assert results["open+close"]["COMPILED"] < results["open+close"]["EPTSPC"]
