"""Long-lived worker pool for the mediation service.

A service cannot pay world construction per session, so
:class:`ServicePool` keeps spawn-context OS workers **alive across
sessions**: each worker builds its
:class:`~repro.service.core.SessionRunner` once, then serves session
batches over its pipe until the pool is closed, answering the final
``fin`` exchange with its engine/obs snapshot.

Transport is the binary frame format of :mod:`repro.service.wire`:
multi-session run frames of template-interned spec records go out,
compact result records come back, both over
``send_bytes``/``recv_bytes`` and tallied by the pool's driver-side
:class:`~repro.obs.service.WireCounters`.

The pool also has an inline mode (``processes=False``) running the
same :class:`SessionRunner` code in the calling process — the serial
reference of the differential tests and the debugging path.  Inline
dispatch uses the *same* least-outstanding policy and window
accounting as process mode (sessions occupy window slots until
:meth:`ServicePool.poll` drains them), so a differential run exercises
identical session-to-worker assignment in both modes.

Dispatch is least-outstanding-first with a bounded per-worker window
(:data:`DEFAULT_WORKER_WINDOW`); :meth:`ServicePool.has_capacity` /
:meth:`ServicePool.capacity` are what the driver's admission
controller consults, making the pool the backpressure boundary — and
``capacity()`` is what sizes each admission batch, so frame sizes
track queue depth up to the free window.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
from multiprocessing.connection import wait as connection_wait

from repro.obs.service import WireCounters
from repro.service import wire
from repro.service.core import SessionRunner, service_worker_entry

#: Sessions a single worker may have queued+running at once.  Small:
#: enough to hide pipe latency, small enough that admission control —
#: not pipe buffering — is what absorbs overload.
DEFAULT_WORKER_WINDOW = 4


class ServicePool:
    """``workers`` long-lived session executors behind one submit API.

    ``init`` is the :class:`~repro.service.core.SessionRunner` payload
    (engine, rules text, world, metering) shipped to every worker,
    plus the pool-level wire keys: ``wire_protocol`` (only
    :data:`repro.service.wire.PROTOCOL` is accepted; any other value
    is a frame-format mismatch and raises ``ValueError``) and
    optionally ``wire_templates`` (a
    :class:`~repro.service.wire.SpecCodec` table) and ``wire_strings``
    (the shared audit string table,
    :func:`repro.service.wire.audit_strings`) — without them the
    codec still works, records just take escape/inline paths.
    ``processes=True`` starts spawn-context OS workers,
    ``False`` runs inline runners in the calling process (results are
    queued and drained through the same :meth:`poll` API, so drivers
    are mode-blind).  ``window`` bounds per-worker outstanding
    sessions.
    """

    def __init__(self, workers, init, processes=True, window=DEFAULT_WORKER_WINDOW):
        if workers < 1:
            raise ValueError("need at least one worker")
        protocol = init.get("wire_protocol", wire.PROTOCOL)
        if protocol != wire.PROTOCOL:
            raise ValueError(
                "unknown wire protocol {!r} (expected {!r})".format(
                    protocol, wire.PROTOCOL))
        self.workers = workers
        self.window = window
        self.processes = processes
        #: Driver-endpoint wire tallies (frames/bytes/sessions/codec
        #: CPU); the merge folds these with each worker's own.
        self.wire = WireCounters()
        self._codec = wire.SpecCodec(init.get("wire_templates"))
        self._strings = wire.StringTable(init.get("wire_strings"))
        self._result_kinds = {}
        self._outstanding = [0] * workers
        self._closed = False
        if processes:
            ctx = multiprocessing.get_context("spawn")
            self._conns = []
            self._procs = []
            for worker_id in range(workers):
                parent, child = ctx.Pipe(duplex=True)
                payload = dict(init)
                payload["worker_id"] = worker_id
                proc = ctx.Process(
                    target=service_worker_entry, args=(child, payload)
                )
                proc.start()
                child.close()
                self._conns.append(parent)
                self._procs.append(proc)
        else:
            self._runners = []
            self._inline_done = []
            for worker_id in range(workers):
                payload = dict(init)
                payload["worker_id"] = worker_id
                self._runners.append(SessionRunner(payload))

    # ------------------------------------------------------------------
    # capacity / dispatch
    # ------------------------------------------------------------------

    @property
    def inflight(self):
        """Total sessions currently occupying worker window slots.

        Inline mode included: an inline session has already *run* by
        the time :meth:`submit` returns, but it holds its slot until
        :meth:`poll` collects the result — identical window accounting
        in both modes, which is what makes the capacity-boundary tests
        mode-agnostic.
        """
        return sum(self._outstanding)

    def has_capacity(self):
        """True when some worker's window has room for one more."""
        return any(count < self.window for count in self._outstanding)

    def capacity(self):
        """Free window slots across all workers — the most sessions one
        :meth:`submit_many` call can currently take, which is how the
        driver sizes admission batches (and therefore frames) to queue
        depth."""
        return sum(self.window - count for count in self._outstanding)

    def submit(self, spec):
        """Dispatch one ``spec`` — :meth:`submit_many` of a single item."""
        self.submit_many([spec])

    def submit_many(self, specs):
        """Dispatch ``specs`` to the least-loaded workers, batched.

        Each spec goes to the worker with the fewest outstanding
        sessions at its turn (ties to the lowest id — the same
        sequence of assignments repeated :meth:`submit` calls would
        make).  Raises ``RuntimeError`` when a spec finds every window
        full — the driver must consult :meth:`capacity` first;
        overload is *its* admission decision, not a hidden queue here.

        Process mode then ships each worker its assignments in **one
        pipe write**: a multi-session run frame.  Inline mode executes each spec
        synchronously on its assigned runner, holding the window slot
        until :meth:`poll`.
        """
        assignments = [[] for _ in range(self.workers)]
        for spec in specs:
            target = min(range(self.workers), key=lambda w: self._outstanding[w])
            if self._outstanding[target] >= self.window:
                raise RuntimeError("pool saturated; caller must backpressure")
            self._outstanding[target] += 1
            assignments[target].append(spec)
        if not self.processes:
            for worker_id, batch in enumerate(assignments):
                for spec in batch:
                    self._inline_done.append(
                        (worker_id, self._runners[worker_id].run_session(spec)))
            return
        for worker_id, batch in enumerate(assignments):
            if not batch:
                continue
            for spec in batch:
                self._result_kinds[spec["sid"]] = wire.step_kinds(spec)
            cpu = time.process_time()
            frame = wire.pack_frame(
                wire.FRAME_RUN,
                [self._codec.encode(spec) for spec in batch],
            )
            self.wire.observe_encode(time.process_time() - cpu)
            self._send_bytes(worker_id, frame)
            self.wire.observe_frame("tx", "run", len(frame), sessions=len(batch))

    def poll(self, timeout=None):
        """Collect completed-session results; returns a (maybe empty) list.

        Inline mode drains the synchronous-completion queue (its
        window slots with it).  Process mode waits up to ``timeout``
        seconds for any worker pipe to be readable and drains every
        ready one — a worker answers a whole run frame with one
        result frame, so a single poll may retire a batch.  A worker
        error is re-raised here with the child traceback attached.
        """
        results = []
        if not self.processes:
            for worker_id, result in self._inline_done:
                self._outstanding[worker_id] -= 1
                results.append(result)
            self._inline_done = []
            return results
        ready = connection_wait(self._conns, timeout=timeout)
        for conn in ready:
            worker_id = self._conns.index(conn)
            data = self._recv_bytes(conn, worker_id)
            kind, payloads = wire.unpack_frame(data)
            name = wire.FRAME_NAMES.get(kind, str(kind))
            if kind == wire.FRAME_ERROR:
                self.wire.observe_frame("rx", name, len(data))
                self._reap_processes()
                raise RuntimeError("service worker {} failed:\n{}".format(
                    worker_id, payloads[0].decode("utf-8", "replace")))
            if kind != wire.FRAME_RESULT:
                raise RuntimeError("unexpected {!r} frame from worker {}".format(
                    name, worker_id))
            self.wire.observe_frame(
                "rx", name, len(data), sessions=len(payloads))
            cpu = time.process_time()
            for payload in payloads:
                result = wire.decode_result(
                    payload, self._result_kinds, self._strings)
                self._result_kinds.pop(result["sid"], None)
                self._outstanding[worker_id] -= 1
                results.append(result)
            self.wire.observe_decode(time.process_time() - cpu)
        return results

    def _send_bytes(self, worker_id, data):
        """One raw message to ``worker_id``; a dead pipe becomes a clear error."""
        try:
            self._conns[worker_id].send_bytes(data)
        except (BrokenPipeError, OSError):
            self._reap_processes()
            raise RuntimeError(
                "service worker {} died without reporting (pipe closed); "
                "cannot dispatch".format(worker_id)
            )

    def _recv_bytes(self, conn, worker_id):
        """One raw message from ``worker_id``; a dead pipe becomes a clear error.

        A worker that dies before shipping its error message (killed,
        import failure in the spawned interpreter) closes the pipe
        instead; surface that as the same ``RuntimeError`` shape rather
        than a raw ``EOFError`` / ``ConnectionResetError`` from the
        depths of multiprocessing.
        """
        try:
            return conn.recv_bytes()
        except (EOFError, ConnectionResetError, OSError):
            self._reap_processes()
            raise RuntimeError(
                "service worker {} died without reporting (pipe closed); "
                "it may have failed before its runner was built".format(worker_id)
            )

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------

    def close(self):
        """Finalize every worker; returns their engine/obs snapshots.

        Sends a ``fin`` frame and gathers one
        :meth:`~repro.service.core.SessionRunner.snapshot` per worker;
        idempotent-unsafe by design (a closed pool is done).  Workers
        must be drained (``inflight == 0``) first.
        """
        if self._closed:
            raise RuntimeError("pool already closed")
        if self.inflight:
            raise RuntimeError(
                "close() with {} sessions in flight; drain first".format(self.inflight)
            )
        self._closed = True
        if not self.processes:
            return [runner.snapshot() for runner in self._runners]
        snapshots = []
        try:
            fin = wire.pack_frame(wire.FRAME_FIN)
            for worker_id in range(self.workers):
                self._send_bytes(worker_id, fin)
                self.wire.observe_frame("tx", "fin", len(fin))
            for worker_id, conn in enumerate(self._conns):
                data = self._recv_bytes(conn, worker_id)
                snapshots.append(self._decode_snapshot(data, worker_id))
        finally:
            self._reap_processes()
        return snapshots

    def _decode_snapshot(self, data, worker_id):
        """The ``fin`` answer — a snapshot, or a shutdown failure."""
        kind, payloads = wire.unpack_frame(data)
        name = wire.FRAME_NAMES.get(kind, str(kind))
        self.wire.observe_frame("rx", name, len(data))
        if kind == wire.FRAME_ERROR:
            raise RuntimeError("worker {} failed at shutdown:\n{}".format(
                worker_id, payloads[0].decode("utf-8", "replace")))
        if kind != wire.FRAME_SNAPSHOT:
            raise RuntimeError(
                "unexpected {!r} frame from worker {} at shutdown".format(
                    name, worker_id))
        return pickle.loads(payloads[0])

    def _reap_processes(self):
        """Join/kill worker processes and close pipes (error paths too)."""
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - hung-worker safety
                proc.terminate()
                proc.join(timeout=5)
