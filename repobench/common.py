"""Shared measurement helpers: sliced closed loops, medians, counters.

Every timing the benchmark reports is a median over slices of one run,
so a burst of interference on a shared host moves one slice, not the
reported figure.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time

from repro.obs.service import percentile

#: Slices one timed phase is cut into; each reported figure is the
#: median of the per-slice figures.
SLICES = 5


def closed_loop(run_session, seconds, start=0):
    """Run ``run_session(index, op_latencies)`` back to back for ``seconds``.

    Session indexes count up from ``start``.  The wall time is cut into
    :data:`SLICES` equal slices; each slice reports ops/s, sessions/s and
    op and session latency percentiles, and the phase reports the
    median of each over the slices.  A session is one call of
    ``run_session``; an op is one latency it appends.  Returns
    ``(figures, sessions_run)``.
    """
    rows = []
    index = start
    for _ in range(SLICES):
        op_lat = []
        session_lat = []
        begin = time.perf_counter()
        deadline = begin + seconds / SLICES
        now = begin
        while now < deadline:
            run_session(index, op_lat)
            index += 1
            finished = time.perf_counter()
            session_lat.append(finished - now)
            now = finished
        elapsed = now - begin
        row = slice_figures(op_lat, session_lat, len(op_lat) / elapsed,
                            len(session_lat) / elapsed)
        row["wall_s"] = elapsed
        rows.append(row)
    return merge_rows(rows), index - start


def slice_figures(op_lat, session_lat, ops_per_s, sessions_per_s):
    """The end-to-end figures of one slice (latencies in seconds)."""
    return {
        "ops_per_s": ops_per_s,
        "op_p50_us": percentile(op_lat, 50) * 1e6,
        "op_p99_us": percentile(op_lat, 99) * 1e6,
        "capacity_sessions_per_s": sessions_per_s,
        "session_p50_ms": percentile(session_lat, 50) * 1e3,
        "session_p99_ms": percentile(session_lat, 99) * 1e3,
        "op_samples": len(op_lat),
        "session_samples": len(session_lat),
    }


#: Figure-row keys that add up over rows instead of being averaged.
SUMMED = ("op_samples", "session_samples", "wall_s")


def merge_rows(rows, average=statistics.median):
    """Per-key ``average`` over figure rows; :data:`SUMMED` keys are summed."""
    return {
        key: (sum if key in SUMMED else average)([row[key] for row in rows])
        for key in rows[0]
    }


def median_setup(build, release, count):
    """Build ``count`` times; returns ``(median seconds, last result)``.

    Each earlier result is handed to ``release`` and dropped before the
    next build, outside the timed region, so peak memory reflects one
    set-up, not ``count`` of them.
    """
    times = []
    result = None
    for _ in range(count):
        if result is not None:
            release(result)
        result = None
        gc.collect()
        start = time.perf_counter()
        result = build()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def peak_rss_mb(children=False):
    """Peak resident set size in MiB (of the waited-for children too)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def kernel_counters(kernel):
    """Public counters of one kernel and its firewall, for deltas."""
    firewall = kernel.firewall
    stats = firewall.stats
    dcache = kernel.dcache.counters()
    return {
        "syscalls": kernel.stats.total_syscalls,
        "mediations": kernel.stats.mediations,
        "invocations": stats.invocations,
        "rules_evaluated": stats.rules_evaluated,
        "decision_cache_hits": stats.decision_cache_hits,
        "rescache_hits": stats.rescache_hits,
        "rescache_misses": stats.rescache_misses,
        "drops": stats.drops,
        "audit_records": firewall.audit.next_seq(),
        "walk_hit": dcache[("walk", "hit")],
        "walk_miss": dcache[("walk", "miss")],
        "dentry_hit": dcache[("dentry", "hit")] + dcache[("dentry", "negative_hit")],
        "dentry_miss": dcache[("dentry", "miss")],
        "invalidations": dcache[("walk", "invalidate")] + dcache[("dentry", "invalidate")],
    }


def ratio(num, den):
    """``num / den``, or 0.0 when nothing was attempted."""
    return num / den if den else 0.0
