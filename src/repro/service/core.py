"""Per-worker session execution: admit, run, time, reap.

A :class:`SessionRunner` is the long-lived heart of one service
worker: it owns a single :class:`repro.api.Session` (world + kernel +
engine + obs, built once at worker start — the whole point of the
facade) and executes generated session specs against it one at a
time.  For each session it:

1. creates the session's private files and adversary trap
   (:func:`repro.workloads.generators.setup_session_fs` — unmediated,
   so setup cannot perturb verdicts);
2. spawns the session's root process and executes the spec's step
   tuples, timing each mediated syscall with ``perf_counter`` (the
   latency samples the benchmark's p50/p99 come from) and recording
   one ``(step index, op, status)`` verdict per step, where status is
   ``"ok"``, ``"PFDenied"``, or the errno name;
3. brackets the firewall audit ring around each step, tagging emitted
   records ``(lclock=sid, sub)`` and rewriting live pids to stable
   per-session logical ids, so merged service audit interleaves back
   to the serial shape;
4. **reaps** every process the session created
   (:meth:`repro.api.Session.reap`): descriptors closed, pid census
   entry removed, CoW firewall state released.  The churn tests pin
   that a runner's kernel returns to its pre-session census after
   every close.

Everything here is importable at module level because workers start
under the ``multiprocessing`` **spawn** context;
:func:`service_worker_entry` is the child-process main loop.
"""

from __future__ import annotations

import contextlib
import pickle
import time
import traceback

from repro.api import Session
from repro.errors import KernelError, PFDenied
from repro.obs.audit import severity_name
from repro.obs.service import WireCounters
from repro.parallel.merge import strip_volatile
from repro.service import wire
from repro.vfs.file import OpenFlags
from repro.workloads.generators import setup_session_fs

#: Steps whose syscalls pass through firewall mediation (timed).
_MEDIATED_STEPS = frozenset(
    ("open_read", "stat", "append", "fork_exec", "trap_open")
)

#: Read-only step kinds eligible for the capture-and-replay fast path
#: (see :meth:`SessionRunner._replayable_step`).  ``append`` mutates
#: file content and ``fork_exec`` mutates the process census, so both
#: always execute for real.
_REPLAYABLE_STEPS = frozenset(("stat", "open_read", "trap_open"))


@contextlib.contextmanager
def record_mediations(firewall):
    """Capture every operation mediated by ``firewall`` inside the block.

    Yields the list the operations accumulate into, in mediation
    order.  Denied operations are captured too (the denial re-raises
    to the caller unchanged — recording must not alter behavior).
    Shadows the instance's ``mediate`` attribute and restores the
    previous state on exit, so nesting and pre-shadowed instances are
    handled.
    """
    captured = []
    previous = firewall.__dict__.get("mediate")
    original = firewall.mediate

    def recording_mediate(operation):
        captured.append(operation)
        return original(operation)

    firewall.mediate = recording_mediate
    try:
        yield captured
    finally:
        if previous is None:
            del firewall.mediate
        else:
            firewall.mediate = previous


class SessionRunner:
    """Executes generated session specs against one live Session.

    ``init`` is the picklable worker payload: ``engine`` (preset name
    or config), ``rules_text`` (``save_rules`` output), ``world``
    (builder name or ``(name, kwargs)``, default the service world),
    ``metered``, ``collect_audit`` and ``worker_id``.
    """

    def __init__(self, init):
        self.worker_id = init.get("worker_id", 0)
        self.collect_audit = init.get("collect_audit", True)
        self.session = Session(
            engine=init.get("engine", "JITTED"),
            rules=init.get("rules_text"),
            world=init.get("world", "service"),
            metered=init.get("metered", False),
            dcache=init.get("dcache"),
        )
        #: Pid-census size of the idle runner; churn tests assert the
        #: census returns here after every reap.
        self.baseline_pids = len(self.session.kernel.processes)
        #: Mediation-busy CPU seconds (process_time over run_session
        #: bodies only — setup/idle excluded), part of the cpu-basis
        #: throughput denominator.
        self.busy_cpu = 0.0
        #: Wire CPU seconds — frame (de)serialization charged by the
        #: worker serve loop.  Counted into the snapshot's ``cpu_s``,
        #: so the cpu-basis throughput includes the serialization tax.
        self.wire_cpu = 0.0
        #: Route repeated read-only steps through the captured-stream
        #: ``mediate_batch`` fast path (see :meth:`_replayable_step`).
        #: On by default; ``init["step_batch"]=False`` restores the
        #: plain per-call loop.
        self.step_batch = init.get("step_batch", True)
        self.sessions_run = 0

    def run_session(self, spec):
        """Admit, execute, and reap one session; returns its result.

        The result is fully picklable: ``sid``, per-step verdicts,
        tagged+normalized audit records, per-mediated-step latency
        samples (seconds), and drop/mediation counts.
        """
        cpu_start = time.process_time()
        session = self.session
        kernel = session.kernel
        sid = spec["sid"]
        setup_session_fs(kernel, spec)
        root = session.spawn(
            spec["comm"], label=spec["label"], binary_path=spec["binary"]
        )
        procs = [root]
        logical = {root.pid: 0}
        ring = session.audit
        verdicts = []
        audit = []
        latencies = []
        drops = 0
        stats = session.stats
        mediations_before = stats.invocations
        replay_cache = {} if self.step_batch else None
        for idx, step in enumerate(spec["steps"]):
            before = ring.next_seq()
            timed = step[0] in _MEDIATED_STEPS
            start = time.perf_counter() if timed else 0.0
            if replay_cache is not None and step[0] in _REPLAYABLE_STEPS:
                status = self._replayable_step(root, step, replay_cache)
            else:
                try:
                    self._exec_step(root, step, procs, logical)
                except PFDenied:
                    status = "PFDenied"
                except KernelError as exc:
                    status = exc.errno_name
                else:
                    status = "ok"
            if status == "PFDenied":
                drops += 1
            if timed:
                latencies.append(time.perf_counter() - start)
            verdicts.append((idx, step[0], status))
            emitted = ring.next_seq() - before
            if self.collect_audit and emitted:
                for entry in ring.tail(emitted):
                    audit.append({
                        "worker": self.worker_id,
                        "lclock": sid,
                        "sub": len(audit),
                        "severity": severity_name(entry.severity),
                        "kind": entry.kind,
                        "record": self._normalize(entry.record, logical),
                    })
        for proc in procs:
            if proc.pid in kernel.processes:
                session.reap(proc)
            else:
                # Exited during the session (fork_exec children):
                # already out of the census; release state only.
                proc.pf.release()
        self.busy_cpu += time.process_time() - cpu_start
        self.sessions_run += 1
        return {
            "sid": sid,
            "verdicts": verdicts,
            "audit": audit,
            "latencies": latencies,
            "mediations": stats.invocations - mediations_before,
            "drops": drops,
        }

    def run_batch(self, specs):
        """Run one frame's sessions back-to-back, in frame order.

        The execution unit behind a ``run`` frame: results come
        back in submission order so the worker can answer with one
        ``result`` frame.  Purely sequential — a worker is still one
        session at a time; the batching amortizes the *pipe*, not the
        kernel.
        """
        return [self.run_session(spec) for spec in specs]

    def _replayable_step(self, root, step, cache):
        """One read-only step via the capture-and-replay fast path.

        Service traffic is dominated by repeats: the apache docroot
        stat chain re-runs every request, sessions re-open the same
        content and home files over and over.  A repeat of a read-only
        step re-derives a mediation stream that is — rules stationary,
        topology and credentials unchanged by any step in the session
        vocabulary — identical to its first run except for the syscall
        sequence numbers, and its fd open/read/close churn has no
        observable effect.  So the first run of each ``(kind, path)``
        executes for real under :func:`record_mediations`, also noting
        the per-syscall group structure of the captured stream (which
        operations belonged to which ``begin_syscall`` window, and the
        syscall names — a denied ``trap_open`` captures only its
        ``open``); repeats tick the same kernel bookkeeping the real
        syscalls would (clock, per-syscall counts, fresh sequence
        numbers re-stamped group by group) and push the captured
        operations through
        :meth:`~repro.firewall.engine.ProcessFirewall.mediate_batch` —
        same per-op verdicts, engine stats, and audit as the per-call
        loop by the batched-path contract, at amortized run cost.
        Mediation still evaluates live context (the captured
        operations only pin *which* accesses happen, against live
        processes and inodes), and a replay verdict that disagrees
        with the captured outcome raises ``RuntimeError`` — divergence
        means a broken invariant, never a silent wrong answer.

        Only used when kernel-level audit is off (the service world's
        configuration); the kernel audit trail of a replayed step
        would otherwise be skipped.
        """
        session = self.session
        key = (step[0], step[1])
        cached = cache.get(key)
        if cached is None:
            if session.kernel.audit_enabled:
                # Kernel audit would record the real walk but not the
                # replays; keep the slow path so the trail stays whole.
                try:
                    self._exec_step(root, step, [], {})
                except PFDenied:
                    return "PFDenied"
                except KernelError as exc:
                    return exc.errno_name
                return "ok"
            with record_mediations(session.firewall) as captured:
                try:
                    self._exec_step(root, step, [], {})
                except PFDenied:
                    status = "PFDenied"
                except KernelError as exc:
                    status = exc.errno_name
                else:
                    status = "ok"
            groups = []
            names = []
            group_of = {}
            for operation in captured:
                seq = operation.extra.get("syscall_seq")
                if seq not in group_of:
                    group_of[seq] = len(names)
                    names.append(operation.syscall or "?")
                groups.append(group_of[seq])
            cache[key] = (captured, groups, names, status)
            return status
        operations, groups, names, status = cached
        kernel = session.kernel
        seqs = []
        for name in names:
            kernel.clock.tick()
            kernel.stats.count_syscall(name)
            kernel._syscall_seq += 1
            seqs.append(kernel._syscall_seq)
        for operation, group in zip(operations, groups):
            operation.extra["syscall_seq"] = seqs[group]
        verdicts = session.firewall.mediate_batch(operations)
        denied = status == "PFDenied"
        for position, verdict in enumerate(verdicts):
            last = position == len(verdicts) - 1
            if (verdict == "drop") != (denied and last):
                raise RuntimeError(
                    "replayed {}({!r}) diverged from its captured run "
                    "(op {} verdict {!r}, cached status {!r})".format(
                        step[0], step[1], position, verdict, status))
        return status

    def _exec_step(self, root, step, procs, logical):
        """Execute one spec step tuple against the live kernel."""
        sys = self.session.sys
        kind = step[0]
        if kind == "open_read" or kind == "trap_open":
            fd = sys.open(root, step[1])
            sys.read(root, fd)
            sys.close(root, fd)
        elif kind == "stat":
            sys.stat(root, step[1])
        elif kind == "getpid":
            sys.getpid(root)
        elif kind == "append":
            fd = sys.open(root, step[1], OpenFlags.O_WRONLY | OpenFlags.O_APPEND)
            sys.write(root, fd, step[2].encode())
            sys.close(root, fd)
        elif kind == "fork_exec":
            child = sys.fork(root)
            procs.append(child)
            logical[child.pid] = len(logical)
            sys.execve(child, step[2])
            sys.exit(child, 0)
        else:
            raise ValueError("unknown session step {!r}".format(kind))

    def _normalize(self, record, logical):
        """Strip volatile fields; rewrite live pids to logical ids.

        Logical ids are per-session creation indexes (root is 0), so
        records compare equal across worlds with different live pid
        assignment — the service analogue of the replay worker's
        recorded-pid rewrite.
        """
        out = strip_volatile(record)
        pid = out.get("pid")
        if pid in logical:
            out["pid"] = logical[pid]
        return out

    def snapshot(self):
        """Final picklable worker summary (merged by the driver).

        ``cpu_s`` is mediation-busy CPU *plus* the worker's wire codec
        CPU — the serve loop charges (de)serialization time to
        :attr:`wire_cpu`, so the cpu-basis throughput includes the
        cost of crossing the pipe.
        """
        firewall = self.session.firewall
        metrics = firewall.metrics
        return {
            "worker_id": self.worker_id,
            "sessions": self.sessions_run,
            "stats": firewall.stats.as_dict(),
            "metrics_prom": metrics.to_prometheus() if metrics.enabled else None,
            "cpu_s": self.busy_cpu + self.wire_cpu,
            "live_pids": len(self.session.kernel.processes),
            "baseline_pids": self.baseline_pids,
        }


def _finish_snapshot(runner, counters):
    """The worker's final snapshot with its wire tallies attached.

    When the runner is metered, the tallies also land in its metrics
    registry (``pf_service_wire_*`` with ``endpoint="worker"``) so
    they survive the driver's Prometheus merge.
    """
    metrics = runner.session.firewall.metrics
    if metrics.enabled:
        counters.to_metrics(metrics, "worker")
    snap = runner.snapshot()
    snap["wire"] = counters.as_dict()
    return snap


def _serve(conn, init):
    """The worker's frame loop.

    Frames from :mod:`repro.service.wire`: a ``run`` frame carries a
    batch of codec-interned specs, answered by one ``result`` frame of
    compact result records in the same order; a ``fin`` frame is
    answered with a pickled-snapshot frame.  Codec CPU is charged to
    the runner's ``wire_cpu`` and tallied per direction.
    """
    runner = SessionRunner(init)
    counters = WireCounters()
    codec = wire.SpecCodec(init.get("wire_templates"))
    strings = wire.StringTable(init.get("wire_strings"))
    while True:
        data = conn.recv_bytes()
        kind, payloads = wire.unpack_frame(data)
        counters.observe_frame(
            "rx", wire.FRAME_NAMES.get(kind, str(kind)), len(data),
            sessions=len(payloads) if kind == wire.FRAME_RUN else 0)
        if kind == wire.FRAME_RUN:
            cpu = time.process_time()
            specs = [codec.decode(payload) for payload in payloads]
            counters.observe_decode(time.process_time() - cpu)
            results = runner.run_batch(specs)
            cpu = time.process_time()
            frame = wire.pack_frame(
                wire.FRAME_RESULT,
                [wire.encode_result(result, strings) for result in results],
            )
            counters.observe_encode(time.process_time() - cpu)
            conn.send_bytes(frame)
            counters.observe_frame(
                "tx", "result", len(frame), sessions=len(results))
        elif kind == wire.FRAME_FIN:
            runner.wire_cpu += counters.encode_s + counters.decode_s
            frame = wire.pack_frame(wire.FRAME_SNAPSHOT, [
                pickle.dumps(
                    _finish_snapshot(runner, counters),
                    protocol=pickle.HIGHEST_PROTOCOL,
                ),
            ])
            conn.send_bytes(frame)
            return
        else:
            raise ValueError(
                "unexpected frame kind {!r} in a worker".format(kind))


def service_worker_entry(conn, init):
    """Spawn-context worker main loop (driver side in
    :mod:`repro.service.pool`).

    Any failure ships its traceback as an error frame and exits; the
    driver re-raises with the child traceback attached.
    """
    try:
        _serve(conn, init)
    except BaseException:
        try:
            conn.send_bytes(wire.pack_frame(
                wire.FRAME_ERROR, [traceback.format_exc().encode("utf-8")]))
        except (BrokenPipeError, OSError):
            pass
    finally:
        conn.close()
