"""The per-syscall short paths change nothing observability sees.

``ProcessFirewall.begin_syscall`` skips building the ``SYSCALL_BEGIN``
operation when the syscall index proves the allow, and an
entrypoint-keyed decision-cache hit reads the head without a context
frame.  Still every ``SYSCALL_BEGIN`` yields one ``fast_path`` trace,
the fast-path metrics keep their values, verdicts and counters match
with tracing and metrics on and off (the ``traced``, ``metered`` and
``observed`` rows of ``tests/differential.py`` on the 24-session
``long/lmbench`` and ``long/build`` columns), a corrupted stack
yields the head ``()``, and ``record_mediations`` captures every
``SYSCALL_BEGIN``."""

import pytest

from repro.firewall.context import ContextField
from repro.service.core import record_mediations
from repro.workloads.lmbench import LmbenchSuite
from tests.differential import check, observe
from tests.plumbing_workloads import lmbench_round, run_build, run_lmbench


def _trace(firewall):
    firewall.enable_tracing(capacity=100000)


def _meter(firewall):
    firewall.metrics.enable()


def test_every_syscall_begin_yields_one_fast_path_trace():
    suite = run_lmbench(sessions=4, setup=_trace)
    firewall, kernel = suite.firewall, suite.kernel
    firewall.tracer.clear()
    before = kernel.stats.total_syscalls
    lmbench_round(suite)
    begins = [t for t in firewall.tracer if t.op == "SYSCALL_BEGIN"]
    assert len(begins) == kernel.stats.total_syscalls - before == 9
    assert [t.syscall for t in begins] == [
        "stat", "open", "close", "lseek", "read", "lseek", "write", "fstat", "getpid"]
    for trace in begins:
        assert trace.stages == ["fast_path", "verdict"]
        assert trace.verdict == "ALLOW"


#: ``(pf_fast_path_total, pf_context_cache_hits_total{ENTRYPOINT})``
#: with metrics on from set-up, as produced before the short paths.
PINNED_METRICS = {"lmbench": (240, 96), "build": (588, 1056)}


@pytest.mark.parametrize("workload", ["lmbench", "build"])
def test_metrics_counters_pinned(workload):
    run = run_lmbench if workload == "lmbench" else run_build
    metrics = run(setup=_meter).firewall.metrics
    assert (
        metrics.value("pf_fast_path_total"),
        metrics.value("pf_context_cache_hits_total", {"field": "ENTRYPOINT"}),
    ) == PINNED_METRICS[workload]


@pytest.mark.parametrize("row", ["traced", "metered", "observed"], ids=["traced", "metered", "both"])
def test_observability_changes_no_verdict_or_counter(row):
    check(row, "long/lmbench", "long/build")
    assert observe("long/build", "COMPILED")["loose"]["result"] > 0


def test_efault_stack_on_entrypoint_keyed_probe_misses_with_empty_head():
    suite = LmbenchSuite("COMPILED")
    firewall, proc = suite.firewall, suite.proc
    for _ in range(3):
        suite.op_stat()
    known = proc.pf.decision_probe(firewall.rules.stamp)
    keys = [k for k, v in known.items() if v is not True]
    assert keys and all(() not in known[k] for k in keys)
    proc.stack.corrupt_below = 3
    _trace(firewall)
    collections = firewall.stats.context_collections["ENTRYPOINT"]
    suite.op_stat()
    resource = [t for t in firewall.tracer if t.op != "SYSCALL_BEGIN"]
    assert [t.op for t in resource] == ["DIR_SEARCH", "DIR_SEARCH", "FILE_GETATTR"]
    # Each op kind's first probe misses and memoizes the head ``()``,
    # which the second DIR_SEARCH of the walk then hits.
    assert [t.decision_cache for t in resource] == ["miss", "hit-entrypoint", "miss"]
    # One collection per syscall: the first probe collects, the rest of
    # the syscall reads the per-process context cache.
    assert [t.context["ENTRYPOINT"] for t in resource] == ["collected", "cached", "cached"]
    assert firewall.stats.context_collections["ENTRYPOINT"] == collections + 1
    assert proc.pf.context_cache[1][ContextField.ENTRYPOINT] == ()
    known = proc.pf.decision_probe(firewall.rules.stamp)
    assert all(() in known[k] for k in keys if k[0].value in ("DIR_SEARCH", "FILE_GETATTR"))


@pytest.mark.parametrize("column", ["COMPILED", "EPTSPC", "LAZYCON"])
def test_record_mediations_captures_every_syscall_begin(column):
    suite = LmbenchSuite(column)
    firewall = suite.firewall
    with record_mediations(firewall) as operations:
        lmbench_round(suite)
    assert "begin_syscall" not in vars(firewall)
    assert [op.syscall for op in operations if op.op.value == "SYSCALL_BEGIN"] == [
        "stat", "open", "close", "lseek", "read", "lseek", "write", "fstat", "getpid"]
    for operation in operations:
        assert operation.seq is not None


def test_short_path_counts_like_the_fast_path():
    """Short path (EPTSPC) and built operation (LAZYCON: no entrypoint
    chains, so no index) count the same; a disabled engine counts
    nothing."""
    counts = {}
    for column in ("EPTSPC", "LAZYCON"):
        suite = LmbenchSuite(column)
        stats = suite.firewall.stats
        stats.reset()
        suite.op_null()
        counts[column] = (stats.invocations, stats.accepts, stats.drops)
    assert counts["EPTSPC"] == counts["LAZYCON"] == (1, 1, 0)
    disabled = LmbenchSuite("DISABLED")
    disabled.op_null()
    assert disabled.firewall.stats.invocations == 0
