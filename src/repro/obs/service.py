"""Service-mode observability: admission, backpressure, and tail latency.

The live mediation service (:mod:`repro.service`) is judged on
*steady-state* behaviour — sustained throughput and the latency tail —
so its driver keeps one :class:`ServiceCounters` per run: admission
outcomes (admitted / completed / rejected / errored), high-water marks
for the pending queue and in-flight window (the backpressure
signature), and a bounded reservoir of per-mediation latency samples
from which the p50/p99 the benchmark reports are computed.

The reservoir is *windowed*, not sampled: it keeps the most recent
``capacity`` samples.  Steady-state percentiles should describe the
converged regime, and a bounded window both caps memory over unbounded
streams and naturally forgets cold-start samples.

:class:`WireCounters` is the data-plane companion: every endpoint of
the service wire path (the driver's pool and each worker's serve loop)
keeps one, tallying frames and bytes by direction and frame kind,
sessions carried per direction, and codec CPU time — the raw material
of the ``pf_service_wire_*`` metric family and the benchmark's
bytes-per-session / sessions-per-frame columns.
"""

from __future__ import annotations

from collections import deque

#: Default bound of the latency reservoir (samples, not sessions).
DEFAULT_RESERVOIR = 65536


def percentile(samples, p):
    """The ``p``-th percentile of ``samples`` (nearest-rank, p in 0-100).

    Returns ``None`` for an empty sample set — a run that mediated
    nothing has no latency distribution, and the benchmark emitter
    treats that as a hole, not a zero.
    """
    if not samples:
        return None
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(round((p / 100.0) * len(ordered))) - 1))
    if p <= 0:
        rank = 0
    return ordered[rank]


class ServiceCounters:
    """Admission/backpressure counters + a bounded latency reservoir.

    Single-writer by construction (one instance lives in the driver
    process; workers report latency samples back in their result
    payloads), so plain attributes suffice.
    """

    def __init__(self, reservoir=DEFAULT_RESERVOIR):
        #: Sessions handed to a worker (or inline runner).
        self.admitted = 0
        #: Sessions that ran to completion (their result was merged).
        self.completed = 0
        #: Sessions refused at admission because the pending queue was
        #: full — the open-loop backpressure signal.
        self.rejected = 0
        #: Sessions that died in a worker (driver re-raises; counted
        #: so a partial run's snapshot still shows the loss).
        self.errors = 0
        #: High-water mark of the arrival (pending) queue.
        self.queue_depth_peak = 0
        #: High-water mark of sessions running concurrently in workers.
        self.inflight_peak = 0
        self._latencies = deque(maxlen=reservoir)

    def observe_queue(self, depth):
        """Record the pending-queue depth after an arrival batch."""
        if depth > self.queue_depth_peak:
            self.queue_depth_peak = depth

    def observe_inflight(self, depth):
        """Record the in-flight session count after a submit."""
        if depth > self.inflight_peak:
            self.inflight_peak = depth

    def observe_latencies(self, samples):
        """Fold a completed session's mediation-latency samples in."""
        self._latencies.extend(samples)

    def latency_percentiles(self, points=(50, 99)):
        """``{"p50": ..., "p99": ...}`` over the retained window."""
        samples = sorted(self._latencies)
        return {"p{}".format(p): percentile(samples, p) for p in points}

    def as_dict(self):
        """Picklable snapshot (counters + percentiles, not raw samples)."""
        out = {
            "admitted": self.admitted,
            "completed": self.completed,
            "rejected": self.rejected,
            "errors": self.errors,
            "queue_depth_peak": self.queue_depth_peak,
            "inflight_peak": self.inflight_peak,
            "latency_samples_retained": len(self._latencies),
        }
        out.update(self.latency_percentiles())
        return out


class WireCounters:
    """Per-endpoint tallies of service wire traffic.

    One instance per wire endpoint — the driver-side pool and each
    worker's serve loop.  ``tx``/``rx`` are always from the owning
    endpoint's point of view (a driver ``tx`` run frame is a worker
    ``rx`` run frame), which is why :meth:`to_metrics` stamps an
    ``endpoint`` label: the families stay additive under merge without
    double-counting a frame as both sides of the same pipe.
    """

    def __init__(self):
        #: Frame counts by direction then frame-kind name.
        self.frames = {"tx": {}, "rx": {}}
        #: Total frame bytes (header + records) by direction.
        self.bytes = {"tx": 0, "rx": 0}
        #: Sessions carried inside run/result frames, by direction.
        self.sessions = {"tx": 0, "rx": 0}
        #: CPU seconds spent encoding outbound records.
        self.encode_s = 0.0
        #: CPU seconds spent decoding inbound records.
        self.decode_s = 0.0

    def observe_frame(self, direction, kind, nbytes, sessions=0):
        """Record one frame: ``direction`` ``"tx"``/``"rx"``, ``kind``
        a frame-kind name, ``nbytes`` its full wire size, ``sessions``
        the session records it carried (run/result frames)."""
        kinds = self.frames[direction]
        kinds[kind] = kinds.get(kind, 0) + 1
        self.bytes[direction] += nbytes
        self.sessions[direction] += sessions

    def observe_encode(self, seconds):
        """Add encode-side codec CPU time."""
        self.encode_s += seconds

    def observe_decode(self, seconds):
        """Add decode-side codec CPU time."""
        self.decode_s += seconds

    def as_dict(self):
        """Picklable snapshot (ships in worker snapshots, merges via
        :meth:`merge`)."""
        return {
            "frames": {d: dict(kinds) for d, kinds in self.frames.items()},
            "bytes": dict(self.bytes),
            "sessions": dict(self.sessions),
            "encode_s": self.encode_s,
            "decode_s": self.decode_s,
        }

    def merge(self, other):
        """Fold another endpoint's tallies in (associative).

        ``other`` may be a :class:`WireCounters` or an
        :meth:`as_dict` snapshot — worker snapshots cross the spawn
        boundary as dicts.
        """
        snap = other.as_dict() if isinstance(other, WireCounters) else other
        for direction, kinds in snap["frames"].items():
            mine = self.frames.setdefault(direction, {})
            for kind, count in kinds.items():
                mine[kind] = mine.get(kind, 0) + count
        for direction, total in snap["bytes"].items():
            self.bytes[direction] = self.bytes.get(direction, 0) + total
        for direction, total in snap["sessions"].items():
            self.sessions[direction] = self.sessions.get(direction, 0) + total
        self.encode_s += snap["encode_s"]
        self.decode_s += snap["decode_s"]
        return self

    def to_metrics(self, registry, endpoint):
        """Emit the ``pf_service_wire_*`` families into ``registry``.

        ``endpoint`` labels whose side of the pipe these tallies
        describe (``"driver"`` or ``"worker"``) so merged registries
        stay double-count-free.  Families: ``pf_service_wire_frames_total``
        ``{endpoint,dir,kind}``, ``pf_service_wire_bytes_total`` and
        ``pf_service_wire_sessions_total`` ``{endpoint,dir}``, and
        ``pf_service_wire_codec_seconds_total`` ``{endpoint,op}``.
        """
        for direction, kinds in sorted(self.frames.items()):
            for kind, count in sorted(kinds.items()):
                registry.inc(
                    "pf_service_wire_frames_total",
                    {"endpoint": endpoint, "dir": direction, "kind": kind},
                    count,
                )
        for direction, total in sorted(self.bytes.items()):
            if total:
                registry.inc(
                    "pf_service_wire_bytes_total",
                    {"endpoint": endpoint, "dir": direction}, total,
                )
        for direction, total in sorted(self.sessions.items()):
            if total:
                registry.inc(
                    "pf_service_wire_sessions_total",
                    {"endpoint": endpoint, "dir": direction}, total,
                )
        for op, seconds in (("encode", self.encode_s), ("decode", self.decode_s)):
            if seconds:
                registry.inc(
                    "pf_service_wire_codec_seconds_total",
                    {"endpoint": endpoint, "op": op}, seconds,
                )
