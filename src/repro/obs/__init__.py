"""``repro.obs`` — the mediation observability layer.

Three pieces, all threaded through :class:`repro.firewall.engine.ProcessFirewall`:

- :mod:`repro.obs.trace` — opt-in per-mediation **decision traces**
  (chains visited, rules evaluated with the failing predicate per miss,
  context fields collected vs cache-served, final verdict), retrievable
  as dicts and renderable as text (``pfctl explain``).
- :mod:`repro.obs.metrics` — a **metrics registry** of per-rule /
  per-chain / per-table counters and engine phase timers behind a
  near-zero-cost disabled path, exportable as JSON and Prometheus text.
- :mod:`repro.obs.audit` — a bounded **audit ring buffer** with
  severity levels, replacing the engine's old unbounded list of
  ``-j LOG`` records (read them with ``audit.records(kind="log")``).
- :mod:`repro.obs.service` — **service-mode counters**: admission /
  completion / rejection tallies, queue and inflight peaks, and a
  bounded latency reservoir with nearest-rank percentiles.

Schema and overhead numbers: ``docs/OBSERVABILITY.md``.
"""

from repro.obs.audit import (
    DEBUG,
    ERROR,
    INFO,
    SEVERITY_LEVELS,
    WARNING,
    AuditEntry,
    AuditRing,
    severity_level,
    severity_name,
)
from repro.obs.metrics import (
    MetricsRegistry,
    parse_prometheus,
    registry_from_prometheus,
)
from repro.obs.service import ServiceCounters, WireCounters, percentile
from repro.obs.trace import ChainVisit, DecisionTrace, RuleEval, Tracer

__all__ = [
    "AuditEntry",
    "AuditRing",
    "ChainVisit",
    "DEBUG",
    "DecisionTrace",
    "ERROR",
    "INFO",
    "MetricsRegistry",
    "RuleEval",
    "SEVERITY_LEVELS",
    "ServiceCounters",
    "Tracer",
    "WARNING",
    "WireCounters",
    "parse_prometheus",
    "percentile",
    "registry_from_prometheus",
    "severity_level",
    "severity_name",
]
