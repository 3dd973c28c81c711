"""Admission control, load generation, and the service-result merge.

:func:`run_service` is the single entry point for running a generated
session stream through a :class:`~repro.service.pool.ServicePool`.
Two admission modes:

- **closed loop** (``mode="closed"``) — a bounded population: the next
  session is admitted when a slot frees up.  Offered load always
  matches capacity, nothing is rejected; this is the reproducible mode
  the differential tests use and the capacity probe of the benchmark.
- **open loop** (``mode="open"``) — arrivals are paced by wall clock
  at ``offered_rate`` sessions/second (the memoryless-arrival model;
  :func:`repro.workloads.generators.poisson_offsets` exists for
  explicit schedules).  Arrivals land in a bounded pending queue;
  when the queue is full, further arrivals are **rejected and
  counted** — graceful backpressure, the behaviour past saturation
  the benchmark's acceptance gate checks (throughput must plateau,
  not collapse).

Admission is **batched**: each loop iteration hands the pool every
pending session its free window can take in one
:meth:`~repro.service.pool.ServicePool.submit_many` call, so under the
binary wire protocol (:mod:`repro.service.wire`) frame sizes track
queue depth adaptively — an idle service ships single-session frames
at minimum latency, a backlogged one coalesces up to a full window per
worker into each pipe write.

Results merge back to one serial-shaped dict exactly like
:mod:`repro.parallel.merge`: per-session verdict streams sort by
``sid``, audit records by ``(sid, sub)``, worker engine stats fold via
``EngineStats.merge``, and throughput is reported on both the
wall-clock and worker-CPU-time bases (the latter is the honest scaling
measure on core-starved CI runners).  The merged dict also carries a
``wire`` section — driver- and worker-endpoint frame/byte/codec
tallies plus bytes-per-session and sessions-per-frame — which is what
:func:`compare_protocols` and the benchmark's protocol columns read.
"""

from __future__ import annotations

import time

from repro.firewall.engine import EngineStats
from repro.obs.metrics import registry_from_prometheus
from repro.obs.service import ServiceCounters, WireCounters
from repro.service import wire
from repro.service.pool import DEFAULT_WORKER_WINDOW, ServicePool
from repro.workloads.generators import generate_stream, service_rules_text

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
    protocol=wire.DEFAULT_PROTOCOL,
    step_batch=None,
    dcache=None,
):
    """Run ``specs`` through a service pool; returns the merged result.

    ``rules_text`` defaults to the service rule base
    (:func:`~repro.workloads.generators.service_rules_text`).
    ``engine`` is any :func:`repro.api.resolve_engine` spelling.
    ``processes=False`` runs inline (the serial reference when
    ``workers=1``).  ``mode="open"`` requires ``offered_rate``; see
    the module docstring for the two admission disciplines.
    ``protocol`` picks the worker wire path
    (:data:`repro.service.wire.PROTOCOLS`): the default ``"binary"``
    interns the stream's spec templates and the shared audit string
    table once (:meth:`~repro.service.wire.SpecCodec.from_specs` /
    :func:`~repro.service.wire.audit_strings`, shipped in worker init)
    and batches sessions into frames; ``"v0"`` is the per-session
    pickle compatibility path — merged observables are pinned
    identical across the two.  ``step_batch`` picks the runner's step
    loop; the default ``None`` ties it to the protocol (binary gets
    the capture-and-replay batched loop, v0 the original per-call
    loop, so each protocol column measures its whole data plane), and
    an explicit boolean overrides that coupling for differential
    tests.

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
    if mode == "open" and not offered_rate:
        raise ValueError("open-loop mode requires offered_rate")
    if rules_text is None:
        rules_text = service_rules_text()
    specs = list(specs)
    init = {
        "engine": engine,
        "rules_text": rules_text,
        "world": "service",
        "metered": metered,
        "collect_audit": collect_audit,
        "wire_protocol": protocol,
        "step_batch": (protocol == "binary") if step_batch is None else step_batch,
    }
    if dcache is not None:
        # Worker kernels keep their default (dcache on) unless forced;
        # the dcache differential suite pins on == off.
        init["dcache"] = bool(dcache)
    if protocol == "binary":
        init["wire_templates"] = wire.SpecCodec.from_specs(specs).templates
        init["wire_strings"] = wire.audit_strings(rules_text)
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
    tallies folded across snapshots, and the two derived figures the
    benchmark gates on: ``bytes_per_session`` (driver tx+rx over
    completed sessions) and ``sessions_per_frame`` (sessions carried
    per driver-sent run frame — 1.0 under v0 by construction, up to a
    full worker window under binary batching).  Inline pools move no
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
        "protocol": pool.protocol,
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
    # time, summed — the repro.parallel scaling basis, stable on
    # core-starved hosts where wall-clock parallelism is a lie.
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


def _us(seconds):
    """Seconds → microseconds (rounded), ``None``-propagating."""
    return None if seconds is None else round(seconds * 1e6, 2)


def sweep_service(
    worker_counts=(1, 2, 4, 8),
    load_factors=(0.5, 1.0, 2.0),
    sessions=200,
    seed=0x5EA5,
    engine="JITTED",
    processes=True,
    max_pending=DEFAULT_MAX_PENDING,
    window=DEFAULT_WORKER_WINDOW,
    protocol=wire.DEFAULT_PROTOCOL,
):
    """The steady-state service sweep behind ``BENCH_service.json``.

    For each worker count: one **closed-loop** run measures sustained
    capacity (offered load == capacity by construction), then one
    **open-loop** run per load factor offers ``factor × capacity``
    sessions/second against a bounded queue.  Factors above 1.0 drive
    the service past saturation, where the gate is *graceful*
    degradation: completed throughput holds near capacity and the
    surplus is rejected — never a collapse.

    Returns a JSON-ready dict: per-worker capacity rows (closed-loop
    rows include the wire figures — bytes/session, sessions/frame),
    per-load points with p50/p99 mediation latency (µs),
    completed/rejected session counts, and throughput on the wall and
    worker-CPU bases.
    """
    specs = generate_stream(sessions, seed)
    rules_text = service_rules_text()
    worker_points = []
    for workers in worker_counts:
        closed = run_service(
            specs, rules_text, engine=engine, workers=workers,
            processes=processes, window=window, protocol=protocol,
        )
        capacity = closed["throughput"]["sessions_per_s"]
        closed_wire = closed["wire"]
        row = {
            "workers": workers,
            "closed_loop": {
                "sessions_per_s": round(capacity, 1),
                "mediations_per_s": round(closed["throughput"]["mediations_per_s"], 1),
                "mediations_per_cpu_s": round(
                    closed["throughput"]["mediations_per_cpu_s"], 1),
                "p50_us": _us(closed["latency"]["p50"]),
                "p99_us": _us(closed["latency"]["p99"]),
                "drops": closed["drops"],
                "bytes_per_session": (
                    round(closed_wire["bytes_per_session"], 1)
                    if closed_wire["bytes_per_session"] is not None else None),
                "sessions_per_frame": (
                    round(closed_wire["sessions_per_frame"], 2)
                    if closed_wire["sessions_per_frame"] is not None else None),
            },
            "load_points": [],
        }
        for factor in load_factors:
            rate = max(1.0, capacity * factor)
            point = run_service(
                specs, rules_text, engine=engine, workers=workers,
                processes=processes, mode="open", offered_rate=rate,
                max_pending=max_pending, window=window, protocol=protocol,
            )
            row["load_points"].append({
                "load_factor": factor,
                "offered_rate": round(rate, 1),
                "completed": point["counters"]["completed"],
                "rejected": point["counters"]["rejected"],
                "queue_depth_peak": point["counters"]["queue_depth_peak"],
                "sessions_per_s": round(point["throughput"]["sessions_per_s"], 1),
                "mediations_per_s": round(point["throughput"]["mediations_per_s"], 1),
                "p50_us": _us(point["latency"]["p50"]),
                "p99_us": _us(point["latency"]["p99"]),
            })
        worker_points.append(row)
    return {
        "engine": engine,
        "sessions": sessions,
        "seed": seed,
        "processes": bool(processes),
        "max_pending": max_pending,
        "worker_window": window,
        "protocol": protocol,
        "latency_unit": "microseconds (per mediated syscall, wall clock)",
        "scaling_basis": "sessions/s wall + mediations per worker-CPU-second",
        "worker_points": worker_points,
    }


def compare_protocols(
    worker_counts=(1, 2, 4, 8),
    sessions=200,
    seed=0x5EA5,
    engine="JITTED",
    processes=True,
    window=DEFAULT_WORKER_WINDOW,
):
    """Closed-loop v0-vs-binary wire comparison, one row per worker count.

    The same stream runs once per protocol at each worker count; each
    row reports, per protocol, cpu-basis mediation throughput (wire
    codec CPU included in the denominator — the crossing tax is the
    thing under test), wall-clock session throughput, bytes/session,
    sessions/frame, and the codec share of total worker CPU.  Two
    derived ratios close the row: ``cpu_ratio`` (binary over v0
    cpu-basis throughput, the benchmark's ≥1.15× gate at 8 workers)
    and ``bytes_ratio`` (v0 over binary bytes/session, the ≥3× gate).
    """
    specs = generate_stream(sessions, seed)
    rules_text = service_rules_text()
    rows = []
    for workers in worker_counts:
        row = {"workers": workers}
        for protocol in wire.PROTOCOLS:
            run = run_service(
                specs, rules_text, engine=engine, workers=workers,
                processes=processes, window=window, protocol=protocol,
            )
            summary = run["wire"]
            codec = summary["codec_s"]
            worker_cpu = sum(r["cpu_s"] for r in run["workers"])
            codec_cpu = codec["worker_encode"] + codec["worker_decode"]
            row[protocol] = {
                "mediations_per_cpu_s": round(
                    run["throughput"]["mediations_per_cpu_s"], 1),
                "sessions_per_s": round(run["throughput"]["sessions_per_s"], 1),
                "bytes_per_session": (
                    round(summary["bytes_per_session"], 1)
                    if summary["bytes_per_session"] is not None else None),
                "sessions_per_frame": (
                    round(summary["sessions_per_frame"], 2)
                    if summary["sessions_per_frame"] is not None else None),
                "codec_cpu_share": (
                    round(codec_cpu / worker_cpu, 4) if worker_cpu else None),
            }
        v0_cpu = row["v0"]["mediations_per_cpu_s"]
        binary_cpu = row["binary"]["mediations_per_cpu_s"]
        row["cpu_ratio"] = round(binary_cpu / v0_cpu, 3) if v0_cpu else None
        v0_bytes = row["v0"]["bytes_per_session"]
        binary_bytes = row["binary"]["bytes_per_session"]
        row["bytes_ratio"] = (
            round(v0_bytes / binary_bytes, 2) if v0_bytes and binary_bytes else None)
        rows.append(row)
    return {
        "engine": engine,
        "sessions": sessions,
        "seed": seed,
        "processes": bool(processes),
        "worker_window": window,
        "cpu_basis": "mediations per worker-CPU-second, wire codec CPU included",
        "rows": rows,
    }
