"""Copy-on-write per-process firewall state (the scale substrate).

The paper's ``task_struct`` extensions (§5.1) give every process three
pieces of firewall-private state: the ``STATE`` dictionary the
stateful rules read and write, the COMPILED engine's negative-decision
cache, and the per-syscall context cache.  ``fork(2)`` must carry all
three to the child — STATE invariants recorded by a parent (the
TOCTTOU check identity, the in-handler flag) protect the forked worker
too, and a warm decision cache is exactly as valid in the child as in
the parent (its entries are pure functions of label/program/
entrypoint, all preserved across fork).

Eagerly *copying* them, however, is what the LSM-overhead literature
identifies as the dominating cost at scale: fixed per-process state
work multiplied by process count.  A pre-fork server model at 100k+
sessions pays the parent's whole state size again on every fork, for
state the child will usually never write.

This module provides the structural-sharing substrate instead, kept
valid by generation stamps:

- :class:`CowMap` — a dict-shaped map whose backing storage is shared
  between fork relatives until the **first mutation** on either side,
  at which point the writer breaks the share with one shallow copy and
  owns its storage from then on.  Every mutation bumps a per-map
  ``generation`` stamp, so caches keyed on map content can validate
  with one integer compare instead of a deep compare.
- :class:`ProcState` — the per-process bundle (``state`` CowMap,
  decision cache, context cache) with an O(1) :meth:`ProcState.fork`
  and the same copy-on-first-mutation contract for the decision
  cache's entries.  The eager-copy behaviour survives as
  ``fork(eager=True)``: it is the reference side of the fork/exec
  differential suite and of the fork-storm byte counts in
  ``tests/firewall/test_procstate.py``, never the default.

Sharing is tracked per holder, not by refcounting: ``fork`` marks both
sides shared, and a holder that mutates copies once and is private
thereafter.  A parent that forked ten thousand children therefore pays
one copy on its next write — not ten thousand — and children that
never write pay nothing at all.

Module-level counters (:func:`substrate_stats`) record fork and
copy-break totals so tests can assert the sharing actually happened
(a CoW substrate that silently copies eagerly would still pass every
differential test).
"""

from __future__ import annotations

from collections.abc import MutableMapping
from typing import Dict, Optional, Tuple

#: Substrate event counters, keyed by event name.  Single-threaded by
#: construction (each simulated kernel — and each service worker —
#: lives in its own interpreter), so plain ints suffice.
_STATS = {
    "cow_forks": 0,
    "eager_forks": 0,
    "state_copies": 0,
    "decision_copies": 0,
    "releases": 0,
}


def substrate_stats():
    """Snapshot of the substrate counters (forks and copy breaks).

    ``cow_forks`` / ``eager_forks`` count :meth:`ProcState.fork` calls
    by mode; ``state_copies`` counts :class:`CowMap` share breaks;
    ``decision_copies`` counts decision-cache share breaks;
    ``releases`` counts :meth:`ProcState.release` reaps.  The
    fork-scale benchmark reports these next to its timings so a
    regression to eager copying is visible as numbers, not just as a
    slower curve.
    """
    return dict(_STATS)


def reset_substrate_stats():
    """Zero the substrate counters (benchmark/test isolation)."""
    for key in _STATS:
        _STATS[key] = 0


class CowMap(MutableMapping):
    """A dict-shaped map with fork-time structural sharing.

    Reads delegate straight to the backing dict.  Mutations first
    check the ``_shared`` flag: a shared map copies its backing dict
    once (``generation`` is carried over and then bumped like any
    mutation), clears the flag, and mutates its private copy.
    :meth:`fork` is O(1): the child references the same backing dict
    and **both** sides are marked shared, so whichever writes first
    pays the copy.

    The ``generation`` stamp increments on every mutation (including
    :meth:`clear` and the implicit unshare-copy), giving observers a
    validity token: equal generations on the same lineage imply equal
    content.
    """

    __slots__ = ("_data", "_shared", "generation")

    def __init__(self, data=None):
        self._data = dict(data) if data else {}
        self._shared = False
        self.generation = 0

    # ---- sharing protocol ----

    @property
    def shared(self):
        """True while the backing dict may be referenced by a relative."""
        return self._shared

    def fork(self):
        """O(1) child map: share the backing dict, mark both sides."""
        child = CowMap.__new__(CowMap)
        child._data = self._data
        child._shared = True
        child.generation = self.generation
        self._shared = True
        return child

    def copy_eager(self):
        """Independent deep-enough copy (the eager-fork baseline).

        Shallow per-entry, like the share break: stored values are
        the resolved scalars of the STATE target (inode numbers,
        labels, literals), so one dict copy is the faithful eager
        semantics.
        """
        child = CowMap.__new__(CowMap)
        child._data = dict(self._data)
        child._shared = False
        child.generation = self.generation
        return child

    def _unshare(self):
        if self._shared:
            self._data = dict(self._data)
            self._shared = False
            _STATS["state_copies"] += 1

    # ---- mapping protocol (reads stay on the shared dict) ----

    def __getitem__(self, key):
        return self._data[key]

    def __contains__(self, key):
        return key in self._data

    def __iter__(self):
        return iter(self._data)

    def __len__(self):
        return len(self._data)

    def get(self, key, default=None):
        """Read with default, without the mixin's exception round-trip."""
        return self._data.get(key, default)

    def __setitem__(self, key, value):
        self._unshare()
        self._data[key] = value
        self.generation += 1

    def __delitem__(self, key):
        self._unshare()
        del self._data[key]
        self.generation += 1

    def clear(self):
        """Drop every entry; a shared map just walks away from the dict."""
        if self._shared:
            self._data = {}
            self._shared = False
        else:
            self._data.clear()
        self.generation += 1

    def __eq__(self, other):
        if isinstance(other, CowMap):
            return self._data == other._data
        if isinstance(other, dict):
            return self._data == other
        return NotImplemented

    def __ne__(self, other):
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    __hash__ = None  # mutable mapping

    def __repr__(self):  # pragma: no cover - debugging aid
        return "CowMap({!r}{})".format(self._data, ", shared" if self._shared else "")


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
    """The per-process firewall state bundle, fork-shareable as a unit.

    Holds the three ``task_struct`` extensions the engine reads per
    mediation:

    - :attr:`state` — the ``STATE`` match/target dictionary, a
      :class:`CowMap`;
    - the negative-decision cache — ``(rule-base stamp, {(op, label,
      syscall_arg0): True | {entrypoint heads}})``, stored unpacked in slots so the
      hot probe is two attribute loads and one ``is`` compare;
    - :attr:`context_cache` — the per-syscall context cache
      ``(syscall_seq, {field: value})``; replaced wholesale on
      writeback, so plain reference sharing is already copy-safe (a
      stale seq can never match: the kernel's seq is monotonic).

    The decision cache follows the same share-then-break protocol as
    :class:`CowMap`, but the break is element-wise
    (:func:`_copy_decision_entries`) because entry values include
    mutable head sets.
    """

    __slots__ = ("state", "context_cache", "_dstamp", "_dentries", "_dshared")

    def __init__(self):
        self.state = CowMap()
        self.context_cache = None  # type: Optional[Tuple[int, Dict]]
        self._dstamp = None
        self._dentries = None  # type: Optional[Dict]
        self._dshared = False

    # ---- negative-decision cache ----

    def decision_probe(self, stamp):
        """Entries for reading, or ``None`` when absent/stale.

        Identity compare against the live rule-base ``stamp``, exactly
        like the engine's inline probe before this module existed: a
        rule mutation (new stamp object) silently orphans the entries.
        Callers must treat the returned dict as read-only — it may be
        shared with fork relatives; writes go through
        :meth:`decision_writable`.
        """
        return self._dentries if self._dstamp is stamp else None

    def decision_writable(self, stamp):
        """Entries safe to mutate under ``stamp``, allocating or
        breaking shares as needed.

        Stale or absent caches are replaced by a fresh empty dict
        (allocation waits for the first recordable verdict, so
        uncacheable workloads and short-lived forks never allocate);
        a shared cache is element-wise copied once and owned from then
        on.
        """
        if self._dstamp is not stamp:
            self._dstamp = stamp
            self._dentries = {}
            self._dshared = False
        elif self._dshared:
            self._dentries = _copy_decision_entries(self._dentries)
            self._dshared = False
            _STATS["decision_copies"] += 1
        return self._dentries

    def decision_invalidate(self):
        """Drop the decision cache (STATE target fired, or execve)."""
        self._dstamp = None
        self._dentries = None
        self._dshared = False

    @property
    def decision_cache(self):
        """The cache as the historical ``(stamp, entries)`` tuple view."""
        if self._dstamp is None:
            return None
        return (self._dstamp, self._dentries)

    @decision_cache.setter
    def decision_cache(self, value):
        if value is None:
            self.decision_invalidate()
        else:
            self._dstamp, self._dentries = value
            self._dshared = False

    @property
    def decision_shared(self):
        """True while the decision entries may be shared with a relative."""
        return self._dshared

    # ---- lifecycle ----

    def fork(self, eager=False):
        """Child state for ``fork(2)``.

        Default (CoW): O(1) — the child references the parent's state
        map and decision entries, both sides marked shared; the first
        writer on either side breaks the share.  ``eager=True`` is the
        deep-copy baseline (what a non-sharing implementation would
        do): pay the whole copy now, own everything immediately.  Both
        modes are observably identical to the engine — the fork/exec
        differential suite pins that — differing only in when the copy
        happens (and whether it happens at all for write-free
        children).
        """
        child = ProcState.__new__(ProcState)
        if eager:
            child.state = self.state.copy_eager()
            child._dstamp = self._dstamp
            child._dentries = (
                None if self._dentries is None
                else _copy_decision_entries(self._dentries)
            )
            child._dshared = False
            _STATS["eager_forks"] += 1
        else:
            child.state = self.state.fork()
            child._dstamp = self._dstamp
            child._dentries = self._dentries
            if self._dentries is not None:
                child._dshared = True
                self._dshared = True
            else:
                child._dshared = False
            _STATS["cow_forks"] += 1
        child.context_cache = self.context_cache
        return child

    def execve_reset(self):
        """``execve(2)``: a new program starts with empty firewall state.

        STATE invariants describe call sites of the old image; the
        decision cache is keyed on the old program's entrypoints; the
        context cache holds the old stack's unwind.  All three drop.
        A shared map is simply abandoned (the relatives keep it).
        """
        self.state = CowMap()
        self.context_cache = None
        self.decision_invalidate()

    def release(self):
        """Reap path: drop every reference this bundle holds.

        Called when a process leaves the census for good (session
        close in service mode, explicit reap).  A shared map or
        decision cache is simply walked away from — fork relatives
        keep theirs — so after release this bundle pins no storage
        regardless of how many relatives once shared it.  Counted in
        ``substrate_stats()['releases']`` so churn tests can assert
        reaps actually happened rather than processes merely going
        out of scope.
        """
        self.state = CowMap()
        self.context_cache = None
        self.decision_invalidate()
        _STATS["releases"] += 1

    def __repr__(self):  # pragma: no cover - debugging aid
        return "<ProcState state={} decision={}>".format(
            len(self.state), "none" if self._dentries is None else len(self._dentries)
        )
