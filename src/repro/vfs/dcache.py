"""Fast-path name resolution: dentry cache + walk-replay cache.

Every syscall in this reproduction re-resolves its pathname
component-by-component in :class:`repro.vfs.namei.PathWalker` — the
kernel-side cost the paper's lmbench rows (Table 6) charge to resource
access.  Linux amortizes that with the dcache/RCU-walk split; this
module is our analogue, built on one rule:

**cache the walk, never the verdict.**

Two caches, one invariant:

- :class:`DentryCache` — per-filesystem ``(dir_ino, name) ->
  child inode`` map with negative entries, invalidated *precisely*:
  every namespace mutation (`create`/`link`/`unlink`/`rmdir`/`rename`)
  drops exactly the entry it obsoletes
  (:meth:`repro.vfs.filesystem.FileSystem._namespace_changed`), and
  ``remount`` clears wholesale.

- :class:`WalkCache` — whole-resolution memo keyed
  ``(path, follow_final, want_parent, start)`` holding the final
  :class:`~repro.vfs.namei.ResolvedPath` *plus* its recorded step
  list.  Each entry also records the directories its walk looked a
  name up in (its ``LOOKUP`` steps), and a reverse index maps each
  such directory to the walks that searched it, so a namespace
  mutation drops exactly the walks that could now resolve
  differently.  On a hit the walker **replays every recorded step to
  the observer**, so LSM + Process Firewall mediation order, counts,
  and deny points are byte-identical to a cold walk — per-component
  defenses (rule R8, ``safe_open_PF``) see every
  ``LOOKUP``/``SYMLINK_FOLLOW``, and a ``PFDenied`` raised mid-replay
  aborts exactly where the cold walk would.  This cache memoizes no
  verdict: DAC and MAC re-run live on every replayed step, which is
  why a ``chmod`` needs no invalidation at all.  The firewall's answer
  for a walk's ``DIR_SEARCH`` steps may be given once per walk (a
  walk grant, :meth:`repro.kernel.Kernel.authorize_walk`), but it
  comes from the firewall's own rule-stamp-keyed decision cache, asked
  afresh for every walk, never from this cache.

What *does* invalidate (the full matrix lives in ``docs/DCACHE.md``):
``create``/``link``/``unlink``/``rmdir``/``rename``/``symlink`` drop
their dentry entry and the walks that looked a name up in the changed
directory (:meth:`Dcache.entry_changed`).  The rare global events
still drop every cached walk through the generation stamp captured at
record time (:meth:`Dcache.walk_stamp`): ``relabel`` bumps
``FileSystem.ns_gen``; ``remount`` bumps ``mount_generation`` and
clears both caches; registering a new adversary UID bumps the
adversary epoch.

Counters are plain ints (zero-overhead when nobody reads them),
surfaced by ``pfctl counters`` and exportable into a metrics registry
as the ``pf_dcache_total{cache=...,result=...}`` family via
:meth:`Dcache.publish`.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro import errors
from repro.vfs.namei import ResolvedPath, WalkEvent

_MISSING = object()

_LOOKUP = WalkEvent.LOOKUP

#: A cached negative dentry ("this name does not exist here").
_NEGATIVE = None


class DentryCache:
    """``(dir_ino, name) -> child inode`` with negative entries.

    Entries are invalidated *precisely*: the filesystem mutation hooks
    call :meth:`invalidate` with exactly the ``(dir_ino, name)`` pair
    they changed, so an unrelated create never disturbs a hot entry.
    Storing the child inode object (conceptually its ``child_ino``)
    makes a hit a single dict probe; the object can never be a
    recycled tenant because recycling requires the last unlink, and
    that unlink dropped this entry first.  Eviction is wholesale at
    ``capacity`` distinct keys — steady-state working sets are tiny
    compared to any sane capacity.
    """

    __slots__ = ("capacity", "hits", "neg_hits", "misses", "invalidations", "_entries")

    def __init__(self, capacity=8192):
        self.capacity = capacity
        self.hits = 0
        self.neg_hits = 0
        self.misses = 0
        self.invalidations = 0
        #: (dir_ino, name) -> child Inode, or ``_NEGATIVE`` for ENOENT.
        self._entries = {}  # type: Dict[Tuple[int, str], object]

    def __len__(self):
        return len(self._entries)

    def clear(self):
        """Drop every entry (remount / explicit reset)."""
        self._entries.clear()

    def invalidate(self, dir_ino, name):
        """Drop the entry for one directory slot, if cached."""
        if self._entries.pop((dir_ino, name), _MISSING) is not _MISSING:
            self.invalidations += 1

    def lookup(self, fs, dir_inode, name):
        """Cached :meth:`repro.vfs.filesystem.FileSystem.lookup`.

        Positive hit returns the child inode; negative hit raises the
        same ``ENOENT`` the filesystem would; a miss delegates to the
        filesystem and stores the answer (negative answers included).
        Semantics — including ``.`` and the ``ENOTDIR`` check — match
        ``fs.lookup`` exactly.
        """
        if not dir_inode.is_dir:
            raise errors.ENOTDIR("lookup in non-directory inode {}".format(dir_inode.ino))
        if name == ".":
            return dir_inode
        key = (dir_inode.ino, name)
        entry = self._entries.get(key, _MISSING)
        if entry is _MISSING:
            self.misses += 1
            if len(self._entries) >= self.capacity:
                self._entries.clear()
            try:
                child = fs.lookup(dir_inode, name)
            except errors.ENOENT:
                self._entries[key] = _NEGATIVE
                raise
            self._entries[key] = child
            return child
        if entry is _NEGATIVE:
            self.neg_hits += 1
            raise errors.ENOENT("no entry {!r} in inode {}".format(name, dir_inode.ino))
        self.hits += 1
        return entry


class WalkCache:
    """Whole-resolution memo: key -> recorded :class:`ResolvedPath`.

    Invalidation is per directory.  Each stored walk records the
    directories it looked a name up in, as ``(ino, generation)``
    pairs, and a reverse index maps each pair to the keys that
    searched it; :meth:`invalidate_dir` drops exactly those walks
    when one of the directory's entries changes.  The generation in
    the pair means a recycled directory inode number never matches
    the walks recorded under the inode it replaced.  The rare global
    events (relabel, remount, adversary growth) change the validity
    stamp instead, and the first fetch after a stamp change clears the
    cache wholesale.  A hit stays one stamp compare plus one dict
    probe: dependencies are only touched on store and invalidation.
    Only *successful* resolutions are memoized — error walks re-run
    cold, which trivially preserves their observable behavior.
    """

    __slots__ = ("capacity", "hits", "misses", "invalidations", "_stamp", "_entries",
                 "_searched", "_searchers")

    def __init__(self, capacity=4096):
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        #: Invalidation events that dropped at least one walk.
        self.invalidations = 0
        self._stamp = None  # type: Optional[Tuple[int, int, int]]
        self._entries = {}  # type: Dict[tuple, ResolvedPath]
        #: key -> the ``(ino, generation)`` of each directory it searched.
        self._searched = {}  # type: Dict[tuple, frozenset]
        #: ``(ino, generation)`` -> keys of the walks that searched it.
        self._searchers = {}  # type: Dict[Tuple[int, int], Set[tuple]]

    def __len__(self):
        return len(self._entries)

    def clear(self):
        """Drop every entry and forget the stamp."""
        self._drop_all()
        self._stamp = None

    def _drop_all(self):
        self._entries.clear()
        self._searched.clear()
        self._searchers.clear()

    def _revalidate(self, stamp):
        """Adopt ``stamp``, clearing entries recorded under an old one."""
        if stamp != self._stamp:
            if self._entries:
                self.invalidations += 1
                self._drop_all()
            self._stamp = stamp

    def fetch(self, key, stamp):
        """Return the memoized resolution for ``key`` or ``None``."""
        self._revalidate(stamp)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def store(self, key, stamp, resolved):
        """Memoize a successful resolution under the live stamp.

        The cache keeps its own :class:`ResolvedPath` with the step
        list frozen to a tuple, so neither the original caller nor a
        replay consumer can mutate the recorded walk.  The directories
        of its ``LOOKUP`` steps (the final ``want_parent`` lookup
        included) enter the reverse index.
        """
        self._revalidate(stamp)
        entries = self._entries
        if key in entries:
            self._forget(key)
        elif len(entries) >= self.capacity:
            self._drop_all()
        steps = tuple(resolved.steps)
        entries[key] = ResolvedPath(
            resolved.inode,
            resolved.parent,
            resolved.name,
            resolved.path,
            steps,
            resolved.symlinks_followed,
        )
        searched = self._searched[key] = frozenset(
            (step.inode.ino, step.inode.generation) for step in steps if step.event is _LOOKUP
        )
        searchers = self._searchers
        for directory in searched:
            searchers.setdefault(directory, set()).add(key)

    def invalidate_dir(self, directory):
        """Drop every walk that looked a name up in ``directory``.

        ``directory`` is the changed directory's ``(ino, generation)``.
        Each dropped walk's key also leaves the reverse-index set of
        every other directory it searched, so neither a dead entry nor
        a dead key outlives its walk.
        """
        keys = self._searchers.get(directory)
        if keys is None:
            return
        self.invalidations += 1
        for key in tuple(keys):
            self._forget(key)

    def _forget(self, key):
        """Remove ``key``'s entry and its reverse-index references."""
        del self._entries[key]
        searchers = self._searchers
        for directory in self._searched.pop(key):
            keys = searchers[directory]
            keys.discard(key)
            if not keys:
                del searchers[directory]


class Dcache:
    """The bundle a kernel wires under its walker: both caches + stamps.

    ``enabled`` is the runtime knob (``Session(dcache=False)``,
    ``pfctl counters --no-dcache``): when off, the walker takes the
    cold path unconditionally.  Invalidation hooks stay live even
    while disabled, so re-enabling can never serve an entry recorded
    before a mutation.
    """

    __slots__ = ("fs", "adversaries", "dentries", "walks", "enabled")

    def __init__(self, fs, adversaries=None, enabled=True, walk_capacity=4096,
                 dentry_capacity=8192):
        #: The stamp sources :meth:`walk_stamp` polls: the filesystem
        #: (namespace + mount generations) and the adversary model.
        self.fs = fs
        self.adversaries = adversaries
        self.dentries = DentryCache(capacity=dentry_capacity)
        self.walks = WalkCache(capacity=walk_capacity)
        self.enabled = enabled

    # ------------------------------------------------------------------
    # walker-facing surface
    # ------------------------------------------------------------------

    def lookup(self, fs, dir_inode, name):
        """Dentry-cached directory lookup (see :meth:`DentryCache.lookup`)."""
        return self.dentries.lookup(fs, dir_inode, name)

    def walk_stamp(self):
        """Validity stamp for memoized resolutions.

        ``(ns_gen, mount_generation, adversary epoch)`` — a relabel,
        mount-table change, or adversary-population growth yields a
        fresh tuple, dropping every cached walk.  Entry-level namespace
        mutations go through :meth:`entry_changed` instead.
        """
        fs = self.fs
        adversaries = self.adversaries
        return (
            fs.ns_gen,
            fs.mount_generation,
            adversaries.epoch if adversaries is not None else 0,
        )

    def walk_fetch(self, key):
        """Probe the walk cache under the live generation stamp."""
        return self.walks.fetch(key, self.walk_stamp())

    def walk_store(self, key, resolved):
        """Memoize a successful resolution under the live stamp."""
        self.walks.store(key, self.walk_stamp(), resolved)

    # ------------------------------------------------------------------
    # invalidation surface (filesystem mutation hooks)
    # ------------------------------------------------------------------

    def entry_changed(self, dir_inode, name):
        """One directory entry changed: drop its dentry and the walks
        that looked a name up in ``dir_inode``."""
        self.dentries.invalidate(dir_inode.ino, name)
        self.walks.invalidate_dir((dir_inode.ino, dir_inode.generation))

    def clear(self):
        """Wholesale reset of both caches (remount / explicit flush)."""
        self.dentries.clear()
        self.walks.clear()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def counters(self):
        """Counter snapshot as ``{(cache, result): value}`` rows."""
        return {
            ("dentry", "hit"): self.dentries.hits,
            ("dentry", "negative_hit"): self.dentries.neg_hits,
            ("dentry", "miss"): self.dentries.misses,
            ("dentry", "invalidate"): self.dentries.invalidations,
            ("walk", "hit"): self.walks.hits,
            ("walk", "miss"): self.walks.misses,
            ("walk", "invalidate"): self.walks.invalidations,
        }

    def publish(self, registry):
        """One-shot export into a metrics registry.

        Adds the current counter values as the
        ``pf_dcache_total{cache=...,result=...}`` family plus
        ``pf_dcache_entries{cache=...}`` gauges.  One-shot: calling it
        twice adds twice — export once per registry snapshot (the
        ``pfctl counters`` pattern), exactly like merging any other
        counter source.
        """
        for (cache, result), value in sorted(self.counters().items()):
            if value:
                registry.inc("pf_dcache_total", {"cache": cache, "result": result}, value=value)
        registry.inc("pf_dcache_entries", {"cache": "dentry"}, value=len(self.dentries))
        registry.inc("pf_dcache_entries", {"cache": "walk"}, value=len(self.walks))
        return registry

    def __repr__(self):  # pragma: no cover - debugging aid
        return "<Dcache {} dentries={} walks={}>".format(
            "on" if self.enabled else "off", len(self.dentries), len(self.walks)
        )
