"""Syscall trace recording and replay.

Capture a workload's syscall stream once, then re-execute it against
differently configured kernels — the methodology behind Table 7's
apples-to-apples comparisons, exposed as a tool:

    with record_syscalls(kernel) as trace:
        ...  # run the workload
    trace.save("workload.trace.json")

    other = Session(engine="JITTED", rules=rules_text).kernel
    replay(other, Trace.load("workload.trace.json"),
           {1: spawn_root_shell(other)})

Recording wraps ``kernel.sys``; every call is logged as
``(pid, method, args, kwargs)`` with processes referenced by pid.
Replay translates pids through a live mapping (extending it at
``fork``) and can either propagate or tally per-call failures — a
replay against a *stricter* kernel is expected to see denials.
"""

from __future__ import annotations

import base64
import contextlib
import inspect
import json
from typing import Dict, List

from repro import errors
from repro.proc.process import Process

#: Methods whose non-proc positional arguments include a pid needing
#: translation at replay time: method -> index into recorded args.
_PID_ARGS = {"kill": 0}


def _encode_value(value):
    if isinstance(value, bytes):
        return {"__bytes__": base64.b64encode(value).decode("ascii")}
    if isinstance(value, (frozenset, set)):
        return {"__set__": sorted(value)}
    return value


def _decode_value(value):
    if isinstance(value, dict) and "__bytes__" in value:
        return base64.b64decode(value["__bytes__"])
    if isinstance(value, dict) and "__set__" in value:
        return set(value["__set__"])
    return value


class Trace:
    """A recorded syscall stream, plus the root-process spawn specs.

    ``spawns`` holds one JSON-ready dict per ``kernel.spawn`` call made
    while recording (``pid`` plus the spawn keyword arguments) — enough
    for a replay target, including a worker in another OS process, to
    reconstruct every recorded root process without out-of-band
    ``proc_map`` plumbing (:func:`spawn_recorded`).
    """

    def __init__(self, entries=None, spawns=None):
        #: Entries: (pid, method, args, kwargs, child_pid_or_None)
        self.entries = list(entries or [])
        #: Root-process specs: {"pid": recorded pid, **spawn kwargs}.
        self.spawns = list(spawns or [])

    def append(self, pid, method, args, kwargs, child_pid=None):
        self.entries.append((pid, method, list(args), dict(kwargs), child_pid))

    def append_spawn(self, spec):
        """Record one root-process spawn spec (must carry ``"pid"``)."""
        self.spawns.append(dict(spec))

    def __len__(self):
        return len(self.entries)

    # ---- persistence --------------------------------------------------

    def to_json(self):
        entries = [
            {
                "pid": pid,
                "method": method,
                "args": [_encode_value(a) for a in args],
                "kwargs": {k: _encode_value(v) for k, v in kwargs.items()},
                "child": child,
            }
            for pid, method, args, kwargs, child in self.entries
        ]
        payload = {"version": 2, "spawns": self.spawns, "entries": entries}
        return json.dumps(payload, indent=None, separators=(",", ":"))

    @classmethod
    def from_json(cls, text):
        """Parse either format: the v1 bare entry list, or the v2
        ``{"version": 2, "spawns": [...], "entries": [...]}`` object."""
        payload = json.loads(text)
        if isinstance(payload, list):  # v1: entries only
            items, spawns = payload, []
        else:
            items, spawns = payload["entries"], payload.get("spawns", [])
        trace = cls(spawns=spawns)
        for item in items:
            trace.append(
                item["pid"],
                item["method"],
                [_decode_value(a) for a in item["args"]],
                {k: _decode_value(v) for k, v in item["kwargs"].items()},
                child_pid=item.get("child"),
            )
        return trace

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json(fh.read())


class _RecordingSyscalls:
    """Proxy for :class:`repro.syscalls.SyscallAPI` that logs calls."""

    def __init__(self, inner, trace):
        self._inner = inner
        self._trace = trace

    def __getattr__(self, name):
        method = getattr(self._inner, name)
        if not callable(method) or name.startswith("_"):
            return method

        def wrapper(proc, *args, **kwargs):
            if not isinstance(proc, Process):
                return method(proc, *args, **kwargs)
            result = method(proc, *args, **kwargs)
            child_pid = result.pid if name == "fork" and isinstance(result, Process) else None
            self._trace.append(proc.pid, name, args, kwargs, child_pid=child_pid)
            return result

        return wrapper


@contextlib.contextmanager
def record_syscalls(kernel):
    """Context manager: record every ``kernel.sys`` call made inside.

    Only *successful* calls are recorded (a failed call changed
    nothing, so replaying it adds noise, not state).  ``kernel.spawn``
    calls made inside the block are recorded too, as spawn specs on
    ``trace.spawns`` — the replay side reconstructs the same root
    processes with :func:`spawn_recorded`, which is what lets the trace
    replay inside a freshly built world.
    """
    trace = Trace()
    original = kernel.sys
    original_spawn = kernel.spawn
    spawn_signature = inspect.signature(original_spawn)

    def recording_spawn(*args, **kwargs):
        proc = original_spawn(*args, **kwargs)
        bound = spawn_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        spec = dict(bound.arguments)
        spec["pid"] = proc.pid
        trace.append_spawn(spec)
        return proc

    kernel.sys = _RecordingSyscalls(original, trace)
    kernel.spawn = recording_spawn
    try:
        yield trace
    finally:
        kernel.sys = original
        kernel.spawn = original_spawn


class ReplayResult:
    """Outcome of a replay run."""

    def __init__(self):
        self.executed = 0
        self.failures = []  # (index, method, errno_name)

    @property
    def failed(self):
        return len(self.failures)


def spawn_recorded(kernel, trace):
    """Spawn the trace's recorded root processes into ``kernel``.

    Returns a ``proc_map`` (recorded pid -> live process) ready for
    :func:`replay`.  Specs are applied in recorded order, so pid
    assignment inside the target world is deterministic.
    """
    proc_map = {}
    for spec in trace.spawns:
        recorded_pid = spec["pid"]
        kwargs = {key: value for key, value in spec.items() if key != "pid"}
        proc_map[recorded_pid] = kernel.spawn(**kwargs)
    return proc_map


def apply_entry(kernel, proc_map, entry):
    """Apply one recorded entry against ``kernel``; never raises.

    The single source of truth for replay semantics: :func:`replay`
    routes every entry through here.  Returns ``(status, value)`` where status is
    ``"skipped"`` (no live process for the recorded pid, or an
    untranslatable pid argument), ``"ok"``, or the symbolic errno name
    of the kernel denial; ``value`` is the syscall's return value on
    success and the raised exception on failure.  ``proc_map`` is
    extended in place at successful ``fork`` entries.
    """
    pid, method, args, kwargs, child_pid = entry
    proc = proc_map.get(pid)
    if proc is None or not proc.alive:
        return ("skipped", None)
    call_args = list(args)
    pid_index = _PID_ARGS.get(method)
    if pid_index is not None and pid_index < len(call_args):
        target = proc_map.get(call_args[pid_index])
        if target is None:
            return ("skipped", None)
        call_args[pid_index] = target.pid
    try:
        value = getattr(kernel.sys, method)(proc, *call_args, **kwargs)
    except errors.KernelError as exc:
        return (exc.errno_name, exc)
    if method == "fork" and child_pid is not None:
        proc_map[child_pid] = value
    return ("ok", value)


def replay(kernel, trace, proc_map, tolerate_failures=True):
    """Re-execute a trace against ``kernel``.

    Args:
        kernel: the target world (configure its firewall first).
        trace: a :class:`Trace`.
        proc_map: recorded pid -> live :class:`Process` in ``kernel``;
            extended automatically at ``fork`` entries.  Build one from
            the trace's own spawn records with :func:`spawn_recorded`.
        tolerate_failures: collect denials instead of raising — the
            expected mode when replaying against stricter rules.

    Returns a :class:`ReplayResult`.
    """
    result = ReplayResult()
    proc_map = dict(proc_map)
    for index, entry in enumerate(trace.entries):
        status, value = apply_entry(kernel, proc_map, entry)
        if status == "ok":
            result.executed += 1
        elif status != "skipped":
            if not tolerate_failures:
                raise value
            result.failures.append((index, entry[1], status))
    return result
