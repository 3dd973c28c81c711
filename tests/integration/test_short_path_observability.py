"""Observability differentials for the per-syscall short paths.

``ProcessFirewall.begin_syscall`` skips building the ``SYSCALL_BEGIN``
operation when the syscall index proves the allow, and an
entrypoint-keyed decision-cache hit reads the head without a context
frame.  Neither may change what observability sees:

1. with tracing on, every ``SYSCALL_BEGIN`` still yields one trace,
   staged ``fast_path``;
2. with metrics on, ``pf_fast_path_total`` and
   ``pf_context_cache_hits_total{field="ENTRYPOINT"}`` keep the values
   they had before the short paths existed;
3. verdicts and counters are equal with tracing and metrics on and off;
4. a corrupted stack (``EFAULT``) on an entrypoint-keyed probe still
   yields the head ``()`` and a decision-cache miss;
5. ``record_mediations`` still captures every ``SYSCALL_BEGIN``.
"""

import pytest

from repro.firewall.context import ContextField
from repro.service.core import record_mediations
from repro.workloads.lmbench import LmbenchSuite
from tests.plumbing_workloads import lmbench_round, run_build, run_lmbench


def _trace(firewall):
    firewall.enable_tracing(capacity=100000)


def _meter(firewall):
    firewall.metrics.enable()


def _instrument(firewall):
    _trace(firewall)
    _meter(firewall)


def _observables(firewall):
    return (
        firewall.stats.as_dict(),
        [dict(r, time=None) for r in firewall.audit.records(kind="log")],
        [dict(r, time=None) for r in firewall.audit.records(kind="drop")],
    )


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


@pytest.mark.parametrize("setup", [_trace, _meter, _instrument], ids=["traced", "metered", "both"])
def test_observability_changes_no_verdict_or_counter(setup):
    assert _observables(run_lmbench(setup=setup).firewall) == _observables(
        run_lmbench().firewall)
    bare, observed = run_build(), run_build(setup=setup)
    assert observed.drops == bare.drops > 0
    assert _observables(observed.firewall) == _observables(bare.firewall)


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
