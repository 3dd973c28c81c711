"""Metrics registry: counters and phase timers with exporters.

Per-rule / per-chain / per-table hit, drop, and evaluation counters
plus phase timers (context collection, chain walk, decision-cache
probe), exportable as JSON and Prometheus-style text.  The registry is
**disabled by default**: the engine guards every instrumentation site
with a single ``registry.enabled`` attribute check, so the cost of the
disabled path is one boolean test per site (measured in the Table 6
grid's TRACED column against COMPILED — see ``docs/OBSERVABILITY.md``).

Families of note: ``pf_rescache_total{result=hit|miss|invalidate}``
counts resource-context cache outcomes (JITTED configurations), and
``pf_dcache_total{cache=dentry|walk, result=hit|negative_hit|miss|
invalidate}`` counts name-resolution fast-path outcomes (one-shot
published by :meth:`repro.vfs.dcache.Dcache.publish`).  Both are
surfaced by ``pfctl counters`` and described in
``docs/OBSERVABILITY.md``.

Counter identity is ``(name, labels)`` where ``labels`` is a sorted
tuple of ``(key, value)`` string pairs — the same shape Prometheus
uses, so the text exporter is a direct rendering and
:func:`parse_prometheus` round-trips it exactly.
"""

from __future__ import annotations

import json
import re
from typing import Dict, Tuple

#: Engine phase names (docs/INTERNALS.md "Mediation pipeline" stages).
PHASE_CONTEXT = "context"
PHASE_CHAIN_WALK = "chain_walk"
PHASE_CACHE_PROBE = "decision_cache"

_PROM_LINE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+([0-9.eE+-]+)$")
_PROM_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _freeze_labels(labels):
    """Normalize a labels dict to the sorted-tuple counter key."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value):
    """Prometheus label-value escaping (backslash, quote, newline)."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _unescape_label_value(value):
    """Inverse of :func:`_escape_label_value`."""
    return value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")


class MetricsRegistry:
    """Counter and phase-timer store for one firewall instance.

    All mutation goes through :meth:`inc` and :meth:`observe_phase`;
    the engine calls them only when :attr:`enabled` is true, so a
    disabled registry costs one attribute check per instrumentation
    site and holds no data.
    """

    def __init__(self, enabled=False):
        self.enabled = enabled
        #: name -> {labels tuple -> value}
        self._counters = {}  # type: Dict[str, Dict[Tuple, float]]
        #: phase -> [total_seconds, entries]
        self._phases = {}  # type: Dict[str, list]

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def enable(self):
        """Turn instrumentation on (counters keep any prior values)."""
        self.enabled = True

    def disable(self):
        """Turn instrumentation off; buffered values stay readable."""
        self.enabled = False

    def reset(self):
        """Drop every counter and timer (the enabled flag is untouched)."""
        self._counters = {}
        self._phases = {}

    def inc(self, name, labels=None, value=1):
        """Add ``value`` to the counter ``name`` with ``labels``."""
        series = self._counters.get(name)
        if series is None:
            series = self._counters[name] = {}
        key = _freeze_labels(labels)
        series[key] = series.get(key, 0) + value

    def observe_phase(self, phase, seconds):
        """Record one timed pass through an engine phase."""
        bucket = self._phases.get(phase)
        if bucket is None:
            bucket = self._phases[phase] = [0.0, 0]
        bucket[0] += seconds
        bucket[1] += 1

    # ------------------------------------------------------------------
    # combination (multi-worker runs)
    # ------------------------------------------------------------------

    def merge(self, other):
        """Fold another registry's counters and timers into this one.

        Pure addition on ``(name, labels)`` series and phase buckets,
        so the operation is **associative and commutative**: merging
        per-worker registries in any order — or any grouping — yields
        the same totals as one registry that counted everything
        (pinned by the property test in
        ``tests/obs/test_metrics_merge.py``).  Nothing is lost: every
        counter series and both halves of every phase bucket (seconds
        *and* entries) participate.  The other registry is not
        modified; returns ``self`` for chaining.
        """
        for name, series in other._counters.items():
            mine = self._counters.setdefault(name, {})
            for key, value in series.items():
                mine[key] = mine.get(key, 0) + value
        for phase, bucket in other._phases.items():
            target = self._phases.setdefault(phase, [0.0, 0])
            target[0] += bucket[0]
            target[1] += bucket[1]
        return self

    def snapshot(self):
        """A detached copy of this registry (values frozen at call time).

        The copy shares no mutable state with the original, so a worker
        can keep counting while the driver merges the snapshot — and
        merging snapshots is exactly as associative as merging live
        registries.  The ``enabled`` flag is copied as-is.
        """
        copy = MetricsRegistry(enabled=self.enabled)
        copy._counters = {name: dict(series) for name, series in self._counters.items()}
        copy._phases = {phase: list(bucket) for phase, bucket in self._phases.items()}
        return copy

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def value(self, name, labels=None):
        """Current value of one counter (0 when never incremented)."""
        return self._counters.get(name, {}).get(_freeze_labels(labels), 0)

    def counters(self):
        """Every counter as ``(name, labels_tuple, value)`` rows, sorted."""
        rows = []
        for name in sorted(self._counters):
            for key in sorted(self._counters[name]):
                rows.append((name, key, self._counters[name][key]))
        return rows

    def phases(self):
        """Phase timers as ``{phase: {"seconds": s, "entries": n}}``."""
        return {
            phase: {"seconds": bucket[0], "entries": bucket[1]}
            for phase, bucket in sorted(self._phases.items())
        }

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------

    def as_dict(self):
        """JSON-shaped snapshot of every counter and phase timer."""
        return {
            "counters": [
                {"name": name, "labels": dict(key), "value": value}
                for name, key, value in self.counters()
            ],
            "phases": self.phases(),
        }

    def to_json(self, indent=2):
        """The :meth:`as_dict` snapshot as a JSON string."""
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def to_prometheus(self):
        """Prometheus text-format rendering of the registry.

        Counters export under their own names; phase timers export as
        the ``pf_phase_seconds_total`` / ``pf_phase_entries_total``
        pair, labelled by phase.  :func:`parse_prometheus` inverts this
        exactly (the round-trip is pinned by tests).
        """
        lines = []
        for name in sorted(self._counters):
            lines.append("# TYPE {} counter".format(name))
            for key in sorted(self._counters[name]):
                value = self._counters[name][key]
                if key:
                    labels = ",".join(
                        '{}="{}"'.format(k, _escape_label_value(v)) for k, v in key
                    )
                    lines.append("{}{{{}}} {}".format(name, labels, _format_value(value)))
                else:
                    lines.append("{} {}".format(name, _format_value(value)))
        if self._phases:
            lines.append("# TYPE pf_phase_seconds_total counter")
            for phase in sorted(self._phases):
                lines.append('pf_phase_seconds_total{{phase="{}"}} {}'.format(
                    phase, _format_value(self._phases[phase][0])))
            lines.append("# TYPE pf_phase_entries_total counter")
            for phase in sorted(self._phases):
                lines.append('pf_phase_entries_total{{phase="{}"}} {}'.format(
                    phase, _format_value(self._phases[phase][1])))
        return "\n".join(lines) + "\n"


def _format_value(value):
    """Render a counter value: integers without a trailing ``.0``."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def parse_prometheus(text):
    """Parse Prometheus text format back to ``{(name, labels): value}``.

    The inverse of :meth:`MetricsRegistry.to_prometheus` for the subset
    it emits (counters only, no HELP lines); used by the round-trip
    tests and by ``pfctl`` consumers that want structured counters.
    """
    out = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        matched = _PROM_LINE.match(line)
        if matched is None:
            raise ValueError("unparseable metrics line: {!r}".format(line))
        name, label_text, value_text = matched.groups()
        labels = ()
        if label_text:
            labels = tuple(
                (key, _unescape_label_value(value))
                for key, value in _PROM_LABEL.findall(label_text)
            )
        value = float(value_text)
        if value.is_integer():
            value = int(value)
        out[(name, labels)] = value
    return out


def registry_from_prometheus(text):
    """Rebuild a :class:`MetricsRegistry` from exported text.

    Phase-timer series (``pf_phase_*_total``) are folded back into
    phase buckets; everything else becomes a counter.  Together with
    :meth:`MetricsRegistry.to_prometheus` this gives the full
    export → parse → same-counters round-trip.
    """
    registry = MetricsRegistry()
    seconds = {}
    entries = {}
    for (name, labels), value in parse_prometheus(text).items():
        label_dict = dict(labels)
        if name == "pf_phase_seconds_total":
            seconds[label_dict["phase"]] = value
        elif name == "pf_phase_entries_total":
            entries[label_dict["phase"]] = value
        else:
            registry.inc(name, labels=label_dict, value=value)
    for phase in seconds:
        bucket = registry._phases.setdefault(phase, [0.0, 0])
        bucket[0] = float(seconds[phase])
        bucket[1] = int(entries.get(phase, 0))
    return registry
