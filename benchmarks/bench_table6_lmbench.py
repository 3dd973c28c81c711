"""Table 6: per-syscall microbenchmarks across engine configurations.

Columns: DISABLED (baseline), BASE (enabled, empty rules), FULL (1218
rules, no optimizations), CONCACHE (+context caching), LAZYCON (+lazy
retrieval), EPTSPC (+entrypoint chains), COMPILED (+compiled dispatch
and the negative-decision cache), JITTED (COMPILED + per-rule codegen),
TRACED (COMPILED with the full
observability layer on: decision tracing + metrics registry — its
distance from COMPILED is the published tracing-overhead number, and
COMPILED itself must stay within noise of its pre-observability
numbers, pinning the disabled path).  Shape expectations follow the paper: BASE ≈ DISABLED, FULL is
the blow-up (worst on ``stat``/``open``), each optimization column
recovers cost with EPTSPC landing within a few percent on most rows —
COMPILED must never lose to EPTSPC, winning outright on the
path-walking rows the decision cache short-circuits, JITTED must never
lose to COMPILED with a sub-1.0 geomean.

``PF_TABLE6_ITERS`` overrides the grid's iteration count; small values
(< 200, e.g. the CI smoke run) skip the timing-shape assertions, which
need steady-state numbers to be meaningful.  ``test_jitted_perf_smoke``
is the CI perf gate: a quick COMPILED-vs-JITTED run (iteration budget
``PF_PERF_SMOKE_ITERS``) that fails when JITTED regresses beyond
tolerance on the ``null``/``read``/``stat`` rows.
"""

import os

import pytest

from repro.analysis.tables import format_table, overhead_pct
from repro.workloads.lmbench import LMBENCH_OPS, LmbenchSuite, run_table6

COLUMNS = ["DISABLED", "BASE", "FULL", "CONCACHE", "LAZYCON", "EPTSPC", "COMPILED", "JITTED", "TRACED"]

#: Timing-noise allowance for the "COMPILED never loses to EPTSPC" and
#: "JITTED never loses to COMPILED" sweeps: rows where two
#: configurations do the same work should tie, and a tie under a noisy
#: scheduler can wobble either way.
NOISE_TOLERANCE = 1.25

#: Perf-smoke gate tolerance: looser than the steady-state sweep
#: because the smoke budget is deliberately small.
SMOKE_TOLERANCE = 1.35

#: Rows the CI perf-smoke gate checks (the acceptance rows).
SMOKE_ROWS = ("null", "read", "stat")


def _grid_iterations(default=1500):
    return int(os.environ.get("PF_TABLE6_ITERS", default))


def _geomean(values):
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))


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

    # JITTED extends the ladder once more: per-rule codegen flattens
    # every chain into one generated function, so no row may regress
    # past noise and the geomean across all nine rows must show a net
    # win.  Strict wins are demanded where the per-syscall walk cost
    # the codegen removes dominates the row (`null`: nothing but the
    # syscallbegin walk; `stat`: path-walk mediation fan-out); the
    # fork rows are process construction, not mediation, so they only
    # get the tolerance bound.
    ratios = []
    for op in LMBENCH_OPS:
        jitted = results[op]["JITTED"]
        compiled = results[op]["COMPILED"]
        ratios.append(jitted / compiled)
        assert jitted <= compiled * NOISE_TOLERANCE, (
            "JITTED regressed on {}: {:.2f}us vs COMPILED {:.2f}us".format(op, jitted, compiled)
        )
    assert _geomean(ratios) < 1.0, "JITTED geomean vs COMPILED: {:.3f}".format(_geomean(ratios))
    assert results["null"]["JITTED"] < results["null"]["COMPILED"]
    assert results["stat"]["JITTED"] < results["stat"]["COMPILED"]


def test_jitted_perf_smoke(emit):
    """CI perf gate: JITTED must not lose to COMPILED on the hot rows.

    Runs only the two columns over a small iteration budget
    (``PF_PERF_SMOKE_ITERS``, default 400) so it is cheap enough for
    every CI run, and uses the looser :data:`SMOKE_TOLERANCE` to absorb
    short-run scheduler noise on the checked ``null``/``read``/``stat``
    rows.
    """
    iterations = int(os.environ.get("PF_PERF_SMOKE_ITERS", 400))
    results = run_table6(iterations=iterations, columns=["COMPILED", "JITTED"])
    for op in SMOKE_ROWS:
        jitted = results[op]["JITTED"]
        compiled = results[op]["COMPILED"]
        emit(
            "perf-smoke {}: COMPILED {:.2f}us JITTED {:.2f}us (ratio {:.3f})".format(
                op, compiled, jitted, jitted / compiled if compiled else float("nan")
            )
        )
        assert jitted <= compiled * SMOKE_TOLERANCE, (
            "JITTED perf-smoke regression on {}: {:.2f}us vs COMPILED {:.2f}us "
            "(tolerance x{})".format(op, jitted, compiled, SMOKE_TOLERANCE)
        )
