"""MetricsRegistry.merge()/snapshot(): the multi-worker combination path.

The property the service driver leans on: merging per-worker
registries — any split, any order, any grouping — must equal the one
registry that counted everything serially.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import MetricsRegistry, registry_from_prometheus

_NAMES = ["pf_mediations_total", "pf_rule_hits_total", "pf_verdicts_total"]
_LABELS = [None, {"op": "FILE_OPEN"}, {"op": "DIR_SEARCH"}, {"verdict": "allow"}]
_PHASES = ["context", "chain_walk", "decision_cache"]

_events = st.lists(
    st.one_of(
        st.tuples(
            st.just("inc"),
            st.sampled_from(_NAMES),
            st.sampled_from(_LABELS),
            st.integers(min_value=1, max_value=9),
        ),
        st.tuples(
            st.just("phase"),
            st.sampled_from(_PHASES),
            # Dyadic rationals: float addition over them is exact, so
            # any summation order gives bit-equal totals — the test
            # probes merge logic, not IEEE rounding.
            st.integers(min_value=0, max_value=256).map(lambda n: n / 256),
        ),
    ),
    max_size=60,
)


def _apply(registry, event):
    if event[0] == "inc":
        _kind, name, labels, value = event
        registry.inc(name, labels=labels, value=value)
    else:
        _kind, phase, seconds = event
        registry.observe_phase(phase, seconds)


def _view(registry):
    return (registry.counters(), registry.phases())


@settings(max_examples=60, deadline=None)
@given(events=_events, seed=st.integers(min_value=0, max_value=2**31))
def test_merge_of_random_splits_equals_serial_totals(events, seed):
    rng = random.Random(seed)
    serial = MetricsRegistry()
    for event in events:
        _apply(serial, event)

    parts = [MetricsRegistry() for _ in range(rng.randint(1, 4))]
    for event in events:
        _apply(rng.choice(parts), event)
    rng.shuffle(parts)
    merged = MetricsRegistry()
    for part in parts:
        assert merged.merge(part) is merged
    assert _view(merged) == _view(serial)


@settings(max_examples=25, deadline=None)
@given(events=_events)
def test_merge_is_associative_over_groupings(events):
    parts = [MetricsRegistry() for _ in range(3)]
    for index, event in enumerate(events):
        _apply(parts[index % 3], event)
    a, b, c = (part.snapshot() for part in parts)
    left = a.snapshot().merge(b.snapshot().merge(c.snapshot()))
    right = a.snapshot().merge(b.snapshot()).merge(c.snapshot())
    assert _view(left) == _view(right)


def test_snapshot_is_detached():
    registry = MetricsRegistry(enabled=True)
    registry.inc("pf_mediations_total", {"op": "FILE_OPEN"}, value=3)
    registry.observe_phase("context", 0.5)
    frozen = _view(registry)
    snap = registry.snapshot()
    assert snap.enabled is True
    assert _view(snap) == frozen
    registry.inc("pf_mediations_total", {"op": "FILE_OPEN"}, value=4)
    registry.observe_phase("context", 0.25)
    assert _view(snap) == frozen  # original kept counting; copy did not move


def test_merge_round_trips_through_prometheus_text():
    """Workers ship their metrics as Prometheus text; parse+merge
    must lose nothing versus merging the live registries."""
    a = MetricsRegistry()
    a.inc("pf_verdicts_total", {"verdict": "allow"}, value=7)
    a.observe_phase("chain_walk", 0.125)
    b = MetricsRegistry()
    b.inc("pf_verdicts_total", {"verdict": "allow"}, value=5)
    b.inc("pf_verdicts_total", {"verdict": "drop"}, value=2)
    b.observe_phase("chain_walk", 0.25)

    direct = a.snapshot().merge(b)
    via_text = registry_from_prometheus(a.to_prometheus())
    via_text.merge(registry_from_prometheus(b.to_prometheus()))
    assert _view(via_text) == _view(direct)
