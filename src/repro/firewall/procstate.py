"""Per-process firewall state: the paper's ``task_struct`` extensions.

§5.1 gives every process three pieces of firewall-private state: the
``STATE`` dictionary the stateful rules read and write, the COMPILED
engine's negative-decision cache, and the per-syscall context cache.
``fork(2)`` carries all three to the child: STATE invariants recorded
by a parent (the TOCTTOU check identity, the in-handler flag) protect
the forked worker too, and a warm decision cache is exactly as valid
in the child as in the parent (its entries are pure functions of
label/program/entrypoint, all preserved across fork).  ``execve(2)``
and reaping drop all three.

The containers are plain dicts, copied at fork.  Processes in every
workload here fork holding a handful of entries at most, so a copy
costs less than tracking who shares what.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple


def _copy_decision_entries(entries):
    """Element-wise copy of negative-decision entries.

    Values are ``True`` (subject-keyed allow) or a mutable set of
    entrypoint heads; the sets must be copied too or a child's
    ``known.add(head)`` would leak into every fork relative.
    """
    return {
        key: (value if value is True else set(value))
        for key, value in entries.items()
    }


class ProcState:
    """The per-process firewall state bundle.

    Holds the three ``task_struct`` extensions the engine reads per
    mediation:

    - :attr:`state` — the ``STATE`` match/target dictionary;
    - the negative-decision cache — ``(rule-base stamp, {(op, label,
      syscall_arg0): True | {entrypoint heads}})``, stored unpacked in
      slots so the hot probe is two attribute loads and one ``is``
      compare;
    - :attr:`context_cache` — the per-syscall context cache
      ``(syscall_seq, {field: value})``; replaced wholesale on
      writeback, so a child may hold the parent's tuple (a stale seq
      can never match: the kernel's seq is monotonic).
    """

    __slots__ = ("state", "context_cache", "_dstamp", "_dentries")

    def __init__(self):
        self.state = {}  # type: Dict
        self.context_cache = None  # type: Optional[Tuple[int, Dict]]
        self._dstamp = None
        self._dentries = None  # type: Optional[Dict]

    # ---- negative-decision cache ----

    def decision_probe(self, stamp):
        """Entries for reading, or ``None`` when absent/stale.

        Identity compare against the live rule-base ``stamp``: a rule
        mutation (new stamp object) silently orphans the entries.
        """
        return self._dentries if self._dstamp is stamp else None

    def decision_writable(self, stamp):
        """Entries to memoize into under ``stamp``.

        Stale or absent caches are replaced by a fresh empty dict;
        allocation waits for the first recordable verdict, so
        uncacheable workloads never allocate.
        """
        if self._dstamp is not stamp:
            self._dstamp = stamp
            self._dentries = {}
        return self._dentries

    def decision_invalidate(self):
        """Drop the decision cache (a STATE target fired)."""
        self._dstamp = None
        self._dentries = None

    @property
    def decision_cache(self):
        """The cache as a ``(stamp, entries)`` tuple, or ``None``."""
        if self._dstamp is None:
            return None
        return (self._dstamp, self._dentries)

    # ---- lifecycle ----

    def fork(self):
        """Child state for ``fork(2)``: independent copies of the STATE
        dictionary and the decision entries; the context cache tuple
        is passed on as is."""
        child = ProcState.__new__(ProcState)
        child.state = dict(self.state)
        child.context_cache = self.context_cache
        child._dstamp = self._dstamp
        child._dentries = (
            None if self._dentries is None else _copy_decision_entries(self._dentries)
        )
        return child

    def release(self):
        """Drop all three pieces of state.

        ``execve(2)`` calls it because STATE invariants describe call
        sites of the old image, the decision cache is keyed on the old
        program's entrypoints and the context cache holds the old
        stack's unwind.  Reaping calls it so a retired process pins
        nothing.
        """
        self.state = {}
        self.context_cache = None
        self._dstamp = None
        self._dentries = None

    def __repr__(self):  # pragma: no cover - debugging aid
        return "<ProcState state={} decision={}>".format(
            len(self.state), "none" if self._dentries is None else len(self._dentries)
        )
