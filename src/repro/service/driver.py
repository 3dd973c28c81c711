"""Admission control, load generation, and the service-result merge.

:func:`run_service` is the single entry point for running a generated
session stream through a :class:`~repro.service.pool.ServicePool`.
Two admission modes:

- **closed loop** (``mode="closed"``) — a bounded population: the next
  session is admitted when a slot frees up.  Offered load always
  matches capacity, nothing is rejected; this is the reproducible mode
  the differential tests use.
- **open loop** (``mode="open"``) — arrivals are paced by wall clock
  at ``offered_rate`` sessions/second (the memoryless-arrival model;
  :func:`repro.workloads.generators.poisson_offsets` exists for
  explicit schedules).  Arrivals land in a bounded pending queue;
  when the queue is full, further arrivals are **rejected and
  counted** — graceful backpressure past saturation (throughput
  must plateau, not collapse).

Admission is **batched**: each loop iteration hands the pool every
pending session its free window can take in one
:meth:`~repro.service.pool.ServicePool.submit_many` call, so wire
frame sizes (:mod:`repro.service.wire`) track queue depth adaptively — an idle service ships single-session frames
at minimum latency, a backlogged one coalesces up to a full window per
worker into each pipe write.

Results merge back to one serial-shaped dict: per-session verdict
streams sort by ``sid``, audit records by ``(sid, sub)``, worker engine stats fold via
``EngineStats.merge``, and throughput is reported on both the
wall-clock and worker-CPU-time bases (the latter is the honest scaling
measure on core-starved CI runners).  The merged dict also carries a
``wire`` section — driver- and worker-endpoint frame/byte/codec
tallies plus bytes-per-session and sessions-per-frame.
"""

from __future__ import annotations

import math
import time

from repro.firewall.engine import EngineStats
from repro.obs.metrics import registry_from_prometheus
from repro.obs.service import ServiceCounters, WireCounters
from repro.service import wire
from repro.service.pool import DEFAULT_WORKER_WINDOW, ServicePool
from repro.workloads.generators import service_rules_text

#: Default bound of the open-loop pending (arrival) queue, in sessions.
DEFAULT_MAX_PENDING = 64

#: Poll granularity of the admission loop, seconds.
_POLL_S = 0.02


def run_service(
    specs,
    rules_text=None,
    engine="JITTED",
    workers=2,
    processes=True,
    mode="closed",
    offered_rate=None,
    max_pending=DEFAULT_MAX_PENDING,
    window=DEFAULT_WORKER_WINDOW,
    metered=False,
    collect_audit=True,
    step_batch=True,
    dcache=None,
):
    """Run ``specs`` through a service pool; returns the merged result.

    ``rules_text`` defaults to the service rule base
    (:func:`~repro.workloads.generators.service_rules_text`).
    ``engine`` is any :func:`repro.api.resolve_engine` spelling; the
    default, the retired spelling ``"JITTED"``, builds COMPILED through
    :data:`repro.firewall.engine.PRESET_ALIASES` and matches the worker
    init the repo benchmark (``repobench/``) passes.
    ``processes=False`` runs inline (the serial reference when
    ``workers=1``).  ``mode="open"`` requires ``offered_rate``, a finite
    rate above zero (sessions/s; anything else is a ``ValueError``); see
    the module docstring for the two admission disciplines.  The
    stream's spec templates and the shared audit string table are
    interned once (:meth:`~repro.service.wire.SpecCodec.from_specs` /
    :func:`~repro.service.wire.audit_strings`) and shipped in the
    worker init payload.  ``step_batch`` picks the runner's step loop:
    the default ``True`` is the capture-and-replay batched loop,
    ``False`` the plain per-call loop — the reference the differential
    tests compare the batched loop against.

    The returned dict: ``verdicts`` ``[(sid, step, op, status), ...]``
    in serial order, ``audit`` (tagged, normalized, serial order),
    ``stats`` (merged ``EngineStats`` as dict), ``metrics_prom``,
    ``counters`` (:meth:`ServiceCounters.as_dict`), ``latency``
    (p50/p99 seconds over the retained window), ``throughput``
    (sessions/s and mediations/s on wall and CPU bases), ``rejected``
    (sids refused at admission), ``workers`` (per-worker rows),
    ``drops`` (total denied operations), and ``wire`` (the data-plane
    tallies described in the module docstring).
    """
    if mode not in ("closed", "open"):
        raise ValueError("mode must be 'closed' or 'open', not {!r}".format(mode))
    if mode == "open" and offered_rate is None:
        raise ValueError("open-loop mode requires offered_rate")
    if offered_rate is not None and not (
            math.isfinite(offered_rate) and offered_rate > 0):
        raise ValueError(
            "offered_rate must be a finite positive rate, not {!r}".format(offered_rate))
    if rules_text is None:
        rules_text = service_rules_text()
    specs = list(specs)
    init = {
        "engine": engine,
        "rules_text": rules_text,
        "world": "service",
        "metered": metered,
        "collect_audit": collect_audit,
        "wire_protocol": wire.PROTOCOL,
        "step_batch": step_batch,
        "wire_templates": wire.SpecCodec.from_specs(specs).templates,
        "wire_strings": wire.audit_strings(rules_text),
    }
    if dcache is not None:
        # Worker kernels keep their default (dcache on) unless forced;
        # the dcache differential suite pins on == off.
        init["dcache"] = bool(dcache)
    pool = ServicePool(workers, init, processes=processes, window=window)
    counters = ServiceCounters()
    results = []
    rejected = []
    try:
        wall_start = time.perf_counter()
        if mode == "closed":
            _pump_closed(pool, specs, counters, results)
        else:
            _pump_open(
                pool, specs, counters, results, rejected,
                offered_rate, max_pending, wall_start,
            )
        wall_s = time.perf_counter() - wall_start
        snapshots = pool.close()
    except BaseException:
        if pool.processes and not pool._closed:
            pool._reap_processes()
        raise
    return _merge(
        results, snapshots, counters, rejected, wall_s, mode, offered_rate,
        workers, pool,
    )


def _collect(pool, counters, results, timeout):
    """Drain completions into ``results``, folding latency samples."""
    done = pool.poll(timeout=timeout)
    for result in done:
        counters.completed += 1
        counters.observe_latencies(result["latencies"])
        results.append(result)
    return len(done)


def _admit(pool, batch, counters):
    """Hand ``batch`` to the pool in one batched dispatch."""
    pool.submit_many(batch)
    counters.admitted += len(batch)
    counters.observe_inflight(pool.inflight)


def _pump_closed(pool, specs, counters, results):
    """Bounded-population admission: completions admit the next batch.

    Each iteration admits ``min(queued, pool.capacity())`` sessions in
    one :meth:`~repro.service.pool.ServicePool.submit_many` — the
    adaptive frame sizing: the emptier the windows, the bigger the
    batch that refills them.
    """
    pending = list(reversed(specs))
    while pending or pool.inflight:
        take = min(len(pending), pool.capacity())
        if take:
            _admit(pool, [pending.pop() for _ in range(take)], counters)
        _collect(pool, counters, results, _POLL_S if pool.inflight else 0)


def _pump_open(pool, specs, counters, results, rejected, rate, max_pending, start):
    """Wall-clock-paced admission with a bounded queue and rejection.

    ``target(t) = rate * t`` sessions should have arrived by elapsed
    ``t``; each loop iteration releases the arrivals the clock owes,
    queues them up to ``max_pending``, and rejects the overflow.  Once
    the stream is exhausted the loop drains the queue and the pool.
    """
    arrivals = list(reversed(specs))
    pending = []
    released = 0
    total = len(specs)
    while arrivals or pending or pool.inflight:
        if arrivals:
            owed = min(total, int(rate * (time.perf_counter() - start))) - released
            for _ in range(owed):
                if not arrivals:
                    break
                spec = arrivals.pop()
                released += 1
                if len(pending) >= max_pending:
                    counters.rejected += 1
                    rejected.append(spec["sid"])
                else:
                    pending.append(spec)
            counters.observe_queue(len(pending))
        take = min(len(pending), pool.capacity())
        if take:
            batch = pending[:take]
            del pending[:take]
            _admit(pool, batch, counters)
        if pool.inflight:
            _collect(pool, counters, results, _POLL_S)
        else:
            _collect(pool, counters, results, 0)
            if arrivals:
                # Ahead of the arrival clock: idle until more is owed.
                time.sleep(min(_POLL_S, 1.0 / rate))


def _wire_summary(pool, snapshots, completed):
    """The merged result's ``wire`` section.

    Driver-endpoint tallies straight off the pool, worker-endpoint
    tallies folded across snapshots, and the two derived figures
    ``bytes_per_session`` (driver tx+rx over
    completed sessions) and ``sessions_per_frame`` (sessions carried
    per driver-sent run frame, up to a full worker window).  Inline pools move no
    bytes; their summary is all zeros with ``None`` derived figures.
    """
    driver = pool.wire
    worker_tallies = WireCounters()
    for snap in snapshots:
        if snap.get("wire"):
            worker_tallies.merge(snap["wire"])
    total_bytes = driver.bytes["tx"] + driver.bytes["rx"]
    run_frames = driver.frames["tx"].get("run", 0)
    return {
        "driver": driver.as_dict(),
        "workers": worker_tallies.as_dict(),
        "bytes_per_session": (total_bytes / completed) if completed and total_bytes else None,
        "sessions_per_frame": (driver.sessions["tx"] / run_frames) if run_frames else None,
        "codec_s": {
            "driver_encode": driver.encode_s,
            "driver_decode": driver.decode_s,
            "worker_encode": worker_tallies.encode_s,
            "worker_decode": worker_tallies.decode_s,
        },
    }


def _merge(results, snapshots, counters, rejected, wall_s, mode, rate, workers, pool):
    """Fold per-session results + worker snapshots to the serial shape."""
    results.sort(key=lambda r: r["sid"])
    verdicts = [
        (r["sid"], idx, op, status)
        for r in results
        for (idx, op, status) in r["verdicts"]
    ]
    audit = [row for r in results for row in r["audit"]]
    audit.sort(key=lambda row: (row["lclock"], row["sub"]))
    stats = EngineStats()
    metrics = None
    worker_rows = []
    for snap in sorted(snapshots, key=lambda s: s["worker_id"]):
        stats.merge(snap["stats"])
        if snap.get("metrics_prom"):
            registry = registry_from_prometheus(snap["metrics_prom"])
            if metrics is None:
                metrics = registry
            else:
                metrics.merge(registry)
        worker_rows.append({
            "worker_id": snap["worker_id"],
            "sessions": snap["sessions"],
            "cpu_s": snap["cpu_s"],
            "live_pids": snap["live_pids"],
            "baseline_pids": snap["baseline_pids"],
        })
    if metrics is not None:
        pool.wire.to_metrics(metrics, "driver")
    mediations = sum(r["mediations"] for r in results)
    drops = sum(r["drops"] for r in results)
    # CPU-basis rate: each worker's mediation count over its busy CPU
    # time, summed — stable on core-starved hosts where wall-clock
    # parallelism is a lie.
    throughput_cpu = 0.0
    for snap in sorted(snapshots, key=lambda s: s["worker_id"]):
        if snap["cpu_s"] > 0:
            throughput_cpu += snap["stats"]["invocations"] / snap["cpu_s"]
    return {
        "mode": mode,
        "offered_rate": rate,
        "workers": worker_rows,
        "n_workers": workers,
        "verdicts": verdicts,
        "audit": audit,
        "stats": stats.as_dict(),
        "metrics_prom": metrics.to_prometheus() if metrics is not None else None,
        "counters": counters.as_dict(),
        "latency": counters.latency_percentiles(),
        "rejected": sorted(rejected),
        "drops": drops,
        "wire": _wire_summary(pool, snapshots, len(results)),
        "throughput": {
            "wall_s": wall_s,
            "sessions": len(results),
            "mediations": mediations,
            "sessions_per_s": len(results) / wall_s if wall_s > 0 else 0.0,
            "mediations_per_s": mediations / wall_s if wall_s > 0 else 0.0,
            "mediations_per_cpu_s": throughput_cpu,
        },
    }
