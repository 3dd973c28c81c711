"""The ``session_service`` workload: generated sessions through the pool.

A seeded apache/sshd/php stream (:func:`generate_stream`, weighted by
:data:`MIX`) runs under the service rule base through a 2-worker spawn
pool speaking the binary wire protocol.  Set-up is pool spawn plus a warm-up of
:data:`WARMUP` sessions, so no timed session waits for a worker to
start.  Two timed phases follow on the warm pool:

- **A, closed loop**: the next batch is admitted as soon as window
  slots free up (the admission discipline of ``run_service(mode=
  "closed")``), giving capacity in sessions/s;
- **B, open loop**: Poisson arrivals at a fixed rate, admitted with
  ``ServicePool.submit_many`` and collected with ``poll``; each
  session is timed from its due time, and the generator's own
  lateness is recorded.

An op is one mediated session step, timed inside the worker.  Every
session creates files that are never removed, so each worker's world
grows by one home directory, two files and one symlink per session.
"""

from __future__ import annotations

import time
from collections import deque

from repro.obs.service import percentile
from repro.service import wire
from repro.service.core import SessionRunner
from repro.service.pool import ServicePool
from repro.workloads.generators import generate_stream, poisson_offsets, service_rules_text

from common import SLICES, merge_rows

#: Spawned workers; the benchmark is sized for a 2-core host.
WORKERS = 2

#: Model weights of the generated stream.  With the generator's default
#: (apache 3, sshd 1, php 2) the median session sits on the boundary
#: between php and apache sessions, and the median step on the boundary
#: between ``stat`` and ``open_read`` steps, so which side a seed's
#: stream lands on moved session p50 by up to half between seeds.  With
#: 1:1:2 the median session is a php session and the median step an
#: ``open_read``.
MIX = {"apache": 1, "sshd": 1, "php": 2}

#: Sessions run on each fresh pool before the clock starts.
WARMUP = 64

#: Set-ups per run; ``setup_s`` is their median.  A pool spawns in
#: well under a second, so it affords more set-ups than the in-process
#: workloads' rule installs.
POOL_SETUPS = 5

#: Sessions/s used to size phase A from ``--seconds``.
NOMINAL_CAPACITY = 1000.0

#: Share of ``--seconds`` given to phase A.  Closed-loop capacity is
#: steady on a short run; phase B's p99 needs the samples.
CLOSED_SHARE = 0.3

#: Bound of phase B's pending queue; arrivals beyond it are rejected.
MAX_PENDING = 64

#: Sessions per half of the traced run's in-process pass (one half
#: untraced, one traced).
INLINE_SESSIONS = 300

#: Fewest arrivals per open-loop slice: phase B is cut into
#: :data:`SLICES` slices when it has this many arrivals per slice, and
#: into fewer otherwise.  Sized for the slice p50; the printed p99 is
#: not bounded.
OPEN_SLICE_MIN = 200

#: Longest single wait in ``poll``, seconds.
POLL_S = 0.02


def stream_plan(seconds, rate):
    """``(closed, open)`` session counts of phases A and B."""
    return (int(NOMINAL_CAPACITY * seconds * CLOSED_SHARE),
            int(rate * seconds * (1 - CLOSED_SHARE)))


class ServiceWorkload:
    """The seeded stream, its arrival schedule and the worker payload."""

    def __init__(self, seed, seconds, rate):
        closed, open_ = stream_plan(seconds, rate)
        specs = generate_stream(WARMUP + closed + open_, seed, MIX)
        self.warmup = specs[:WARMUP]
        self.closed = specs[WARMUP:WARMUP + closed]
        self.open = specs[WARMUP + closed:]
        self.offsets = poisson_offsets(open_, rate, seed)
        self.rate = rate
        self.rules_text = service_rules_text()
        self.specs = specs

    def worker_init(self):
        """The pool payload ``run_service`` would build for this stream."""
        return {
            "engine": "JITTED",
            "rules_text": self.rules_text,
            "world": "service",
            "metered": False,
            "collect_audit": True,
            "wire_protocol": "binary",
            "step_batch": True,
            "wire_templates": wire.SpecCodec.from_specs(self.specs).templates,
            "wire_strings": wire.audit_strings(self.rules_text),
        }

    def start_pool(self):
        """Set-up: spawn the pool and run the warm-up sessions on it."""
        pool = ServicePool(WORKERS, self.worker_init())
        try:
            closed_pump(pool, self.warmup, lambda result: None)
        except BaseException:
            close_quietly(pool)
            raise
        return pool

    def inline_runner(self):
        """A worker's session runner built in this process."""
        init = self.worker_init()
        init["worker_id"] = 0
        return SessionRunner(init)


def close_quietly(pool):
    """Drain and close ``pool`` on an error path.

    Gives in-flight sessions 30 s to come back; past that, or when the
    pool fails, its workers are joined or terminated.
    """
    deadline = time.perf_counter() + 30.0
    try:
        while pool.inflight and time.perf_counter() < deadline:
            pool.poll(timeout=1.0)
        pool.close()
    except (RuntimeError, OSError):
        pool._reap_processes()


def closed_pump(pool, specs, sink):
    """Closed-loop admission of ``specs``; each result goes to ``sink``.

    Results are handed on as they arrive rather than kept, so the
    benchmark process's heap -- and its collector's pauses -- do not grow
    with the length of the run.
    """
    pending = list(reversed(specs))
    while pending or pool.inflight:
        take = min(len(pending), pool.capacity())
        if take:
            pool.submit_many([pending.pop() for _ in range(take)])
        for result in pool.poll(timeout=POLL_S if pool.inflight else 0):
            sink(result)


def closed_phase(pool, specs, sink):
    """Phase A in :data:`SLICES` equal runs; returns ``(figures, wall_s)``."""
    rows = []
    wall = 0.0
    per = max(1, len(specs) // SLICES)
    for k in range(SLICES):
        chunk = specs[k * per:(k + 1) * per if k < SLICES - 1 else len(specs)]
        steps = []

        def collect(result):
            steps.extend(result["latencies"])
            sink(result)

        start = time.perf_counter()
        closed_pump(pool, chunk, collect)
        elapsed = time.perf_counter() - start
        wall += elapsed
        rows.append({
            "ops_per_s": len(steps) / elapsed,
            "op_p50_us": percentile(steps, 50) * 1e6,
            "op_p99_us": percentile(steps, 99) * 1e6,
            "capacity_sessions_per_s": len(chunk) / elapsed,
            "op_samples": len(steps),
        })
    return merge_rows(rows), wall


def open_phase(pool, specs, offsets, sink):
    """Phase B: Poisson arrivals at their due times.

    Each result goes to ``sink``.  Returns a dict with the rejected
    sids, session latency from due time to collection as p50/p99 in ms
    (each the median over consecutive slices of at least
    :data:`OPEN_SLICE_MIN` arrivals), and in seconds the admission waits
    (due to ``submit_many``) and generator lateness (due to release).
    """
    n = len(specs)
    index = {spec["sid"]: i for i, spec in enumerate(specs)}
    pending = deque()
    rejected, admit_wait, late = [], [], []
    latency = [None] * n
    released = 0
    start = time.perf_counter()
    while released < n or pending or pool.inflight:
        now = time.perf_counter() - start
        while released < n and offsets[released] <= now:
            late.append(now - offsets[released])
            if len(pending) >= MAX_PENDING:
                rejected.append(specs[released]["sid"])
            else:
                pending.append(released)
            released += 1
        take = min(len(pending), pool.capacity())
        if take:
            batch = [pending.popleft() for _ in range(take)]
            now = time.perf_counter() - start
            admit_wait.extend(now - offsets[i] for i in batch)
            pool.submit_many([specs[i] for i in batch])
        timeout = POLL_S
        if released < n:
            timeout = min(POLL_S, max(0.0, offsets[released] - (time.perf_counter() - start)))
        if pool.inflight:
            done = pool.poll(timeout=timeout)
            now = time.perf_counter() - start
            for result in done:
                i = index[result["sid"]]
                latency[i] = now - offsets[i]
                sink(result)
        elif released < n:
            time.sleep(timeout)
    wall_s = time.perf_counter() - start
    slices = max(1, min(SLICES, n // OPEN_SLICE_MIN))
    rows = []
    for k in range(slices):
        part = [x for x in latency[k * n // slices:(k + 1) * n // slices] if x is not None]
        rows.append({
            "session_p50_ms": percentile(part, 50) * 1e3,
            "session_p99_ms": percentile(part, 99) * 1e3,
            "session_samples": len(part),
        })
    return dict(
        merge_rows(rows),
        rejected=rejected,
        admit_wait=admit_wait,
        late=late,
        wall_s=wall_s,
    )


class ServiceCheck:
    """Checks session results as they arrive.

    Every ``trap_open`` step must be ``PFDenied`` and every other step
    ``ok``; :meth:`finish` then requires each offered sid to have come
    back once or been rejected, so completed + rejected = offered.
    """

    def __init__(self):
        self.problems = []
        self.seen = {}
        self.completed = 0

    def add(self, result):
        sid = result["sid"]
        self.seen[sid] = self.seen.get(sid, 0) + 1
        self.completed += 1
        for idx, op, status in result["verdicts"]:
            expected = "PFDenied" if op == "trap_open" else "ok"
            if status != expected:
                self.problems.append("session {} step {} {}: {} (expected {})".format(
                    sid, idx, op, status, expected))

    def finish(self, offered, rejected):
        """All problems found, given the sids offered and rejected."""
        problems = list(self.problems)
        refused = set(rejected)
        for sid in offered:
            count = self.seen.get(sid, 0) + (sid in refused)
            if count != 1:
                problems.append("session {} accounted {} times".format(sid, count))
        if self.completed + len(rejected) != len(offered):
            problems.append("completed {} + rejected {} != offered {}".format(
                self.completed, len(rejected), len(offered)))
        return problems


def check_service(offered, results, rejected):
    """Check a finished list of results (see :class:`ServiceCheck`)."""
    check = ServiceCheck()
    for result in results:
        check.add(result)
    return check.finish(offered, rejected)
