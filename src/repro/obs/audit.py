"""Bounded audit ring buffer with severity levels.

The seed engine accumulated ``LOG``-target records in an unbounded
Python list; long trace-gathering runs grew without limit and there
was no way to distinguish a routine ``-j LOG`` record from a drop
notification.  The ring replaces that
list with a fixed-capacity buffer (oldest records evicted first, like
a kernel ring buffer) carrying a severity and a *kind* channel per
record.  ``records(kind="log")`` reads the ``-j LOG`` channel back,
so rule generation and the differential harness see exactly what the
unbounded list used to hold.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

#: Severity levels, syslog-flavoured.  Records carry the numeric value;
#: :func:`severity_name` / :func:`severity_level` convert for humans.
DEBUG = 10
INFO = 20
WARNING = 30
ERROR = 40

#: name -> numeric level (accepted by :meth:`AuditRing.emit` and the
#: ``-j LOG --level`` rule option).
SEVERITY_LEVELS = {"debug": DEBUG, "info": INFO, "warning": WARNING, "error": ERROR}

_LEVEL_NAMES = {level: name for name, level in SEVERITY_LEVELS.items()}


def severity_name(level):
    """Human name for a numeric severity (unknown values render as-is)."""
    return _LEVEL_NAMES.get(level, str(level))


def severity_level(name):
    """Numeric severity for a name; numeric input passes through."""
    if isinstance(name, int):
        return name
    try:
        return SEVERITY_LEVELS[name.lower()]
    except KeyError:
        raise ValueError("unknown severity {!r} (expected one of {})".format(
            name, "/".join(sorted(SEVERITY_LEVELS))))


class AuditEntry:
    """One ring slot: a monotonically numbered, classified record.

    Attributes:
        seq: global emission number (survives eviction, so gaps reveal
            how much history the ring has dropped).
        severity: numeric level (:data:`DEBUG` .. :data:`ERROR`).
        kind: channel name — ``"log"`` for ``-j LOG`` records,
            ``"drop"`` for verdict denials, free-form for extensions.
        record: the payload dict (JSON-serializable).
    """

    __slots__ = ("seq", "severity", "kind", "record")

    def __init__(self, seq, severity, kind, record):
        self.seq = seq
        self.severity = severity
        self.kind = kind
        self.record = record

    def as_dict(self):
        """Entry as one flat JSON-ready dict (metadata + payload)."""
        out = {"seq": self.seq, "severity": severity_name(self.severity), "kind": self.kind}
        out.update(self.record)
        return out

    def __repr__(self):  # pragma: no cover - debugging aid
        return "<AuditEntry #{} {} {} {!r}>".format(
            self.seq, severity_name(self.severity), self.kind, self.record)


class AuditRing:
    """Fixed-capacity audit buffer: oldest entries evicted on overflow.

    Unlike the unbounded list it replaces, memory use is bounded by
    ``capacity``; the :attr:`evicted` counter says how many records
    history no longer holds.
    """

    def __init__(self, capacity=4096):
        if capacity < 1:
            raise ValueError("AuditRing capacity must be >= 1")
        self.capacity = capacity
        self._entries = deque(maxlen=capacity)  # type: Deque[AuditEntry]
        self._next_seq = 0

    @property
    def evicted(self):
        """How many records the ring has dropped to stay within capacity."""
        return self._next_seq - len(self._entries)

    def emit(self, record, severity=INFO, kind="log"):
        """Append one record; returns its global sequence number.

        ``severity`` accepts a numeric level or a name ("warning").
        """
        level = severity_level(severity)
        seq = self._next_seq
        self._next_seq += 1
        self._entries.append(AuditEntry(seq, level, kind, record))
        return seq

    def entries(self, min_severity=None, kind=None):
        """Entries in emission order, optionally filtered.

        ``min_severity`` (level or name) keeps entries at or above that
        level; ``kind`` restricts to one channel.
        """
        floor = None if min_severity is None else severity_level(min_severity)
        out = []
        for entry in self._entries:
            if floor is not None and entry.severity < floor:
                continue
            if kind is not None and entry.kind != kind:
                continue
            out.append(entry)
        return out

    def records(self, min_severity=None, kind=None):
        """Like :meth:`entries` but returning only the payload dicts."""
        return [entry.record for entry in self.entries(min_severity, kind)]

    def next_seq(self):
        """The sequence number the *next* emitted entry will get.

        A cheap high-water mark: callers bracketing a unit of work can
        diff two ``next_seq()`` readings to learn how many records the
        work emitted, then fetch exactly those via :meth:`tail` — the
        service runner does this per session step to tag records with a
        logical clock.
        """
        return self._next_seq

    def tail(self, count):
        """The most recent ``count`` entries, oldest first.

        Costs O(``count``), not O(ring) — it walks the deque from the
        right — so per-entry bracketing stays cheap even with a large
        ring.  Asking for more entries than the ring retains returns
        what is left (eviction may have discarded the rest).
        """
        if count <= 0:
            return []
        out = []
        it = reversed(self._entries)
        for _ in range(min(count, len(self._entries))):
            out.append(next(it))
        out.reverse()
        return out

    def clear(self):
        """Discard every buffered entry (the sequence counter keeps going)."""
        self._entries.clear()

    def __len__(self):
        return len(self._entries)

    def __iter__(self):
        return iter(list(self._entries))
