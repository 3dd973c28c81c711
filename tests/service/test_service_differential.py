"""Fixed-seed differential: service mode must equal serial mediation."""

import pytest

from repro.service import run_service
from repro.workloads.generators import (
    DEFAULT_MIX,
    SESSION_MODELS,
    generate_stream,
    poisson_offsets,
    service_rules_text,
)

SEED = 0xD1FF
N_SESSIONS = 24


@pytest.fixture(scope="module")
def rules_text():
    return service_rules_text()


@pytest.fixture(scope="module")
def specs():
    return generate_stream(N_SESSIONS, seed=SEED)


@pytest.fixture(scope="module")
def serial(specs, rules_text):
    """The serial reference: one inline worker, closed loop."""
    return run_service(specs, rules_text, workers=1, processes=False)


def _comparable_audit(result):
    """Audit rows minus the worker tag (placement is allowed to vary)."""
    return [
        {k: v for k, v in row.items() if k != "worker"}
        for row in result["audit"]
    ]


def test_generated_stream_is_deterministic():
    first = generate_stream(N_SESSIONS, seed=SEED)
    second = generate_stream(N_SESSIONS, seed=SEED)
    assert first == second
    assert {spec["model"] for spec in first} <= set(SESSION_MODELS)
    assert set(DEFAULT_MIX) == set(SESSION_MODELS)
    offsets = poisson_offsets(16, rate=100.0, seed=SEED)
    assert offsets == sorted(offsets) and len(offsets) == 16


def test_serial_reference_shape(serial):
    assert serial["counters"]["completed"] == N_SESSIONS
    assert serial["throughput"]["mediations"] > 0
    assert serial["drops"] > 0  # the trap steps fire under the rules
    sids = {sid for sid, _idx, _op, _status in serial["verdicts"]}
    assert len(sids) == N_SESSIONS


@pytest.mark.parametrize("workers", [2, 3])
def test_inline_multiworker_matches_serial(specs, rules_text, serial, workers):
    result = run_service(specs, rules_text, workers=workers, processes=False)
    assert result["verdicts"] == serial["verdicts"]
    assert _comparable_audit(result) == _comparable_audit(serial)
    assert result["drops"] == serial["drops"]
    assert result["stats"]["invocations"] == serial["stats"]["invocations"]
    assert result["stats"]["drops"] == serial["stats"]["drops"]


def test_spawn_workers_match_serial(specs, rules_text, serial):
    """Real OS worker processes produce the identical merged stream."""
    result = run_service(specs, rules_text, workers=2, processes=True)
    assert result["verdicts"] == serial["verdicts"]
    assert _comparable_audit(result) == _comparable_audit(serial)
    assert result["drops"] == serial["drops"]
    assert result["stats"]["invocations"] == serial["stats"]["invocations"]
    assert result["throughput"]["mediations_per_cpu_s"] > 0
    # Work actually landed on both workers.
    placements = {row["sessions"] for row in result["workers"]}
    assert all(row["sessions"] > 0 for row in result["workers"]), placements


def test_open_loop_backpressure_rejects_gracefully(specs, rules_text):
    """Past saturation: bounded queue, counted rejections, no collapse."""
    result = run_service(
        specs, rules_text, workers=1, processes=False,
        mode="open", offered_rate=50000.0, max_pending=4,
    )
    counters = result["counters"]
    assert counters["completed"] + counters["rejected"] == N_SESSIONS
    assert counters["rejected"] > 0
    assert counters["queue_depth_peak"] <= 4
    # Never a collapse: the first max_pending arrivals always queue, and
    # every admitted session completes.
    assert counters["completed"] == counters["admitted"] >= 4
    assert sorted(result["rejected"]) == result["rejected"]
    # Completed sessions are a verdict-faithful subset of serial.
    done = {sid for sid, _i, _o, _s in result["verdicts"]}
    assert done.isdisjoint(set(result["rejected"]))


@pytest.mark.parametrize("rate", [0.0, -5.0, float("nan"), float("inf")])
def test_open_loop_rejects_bad_offered_rate(specs, rules_text, rate):
    """A rate that is not finite and positive fails before any pool exists."""
    with pytest.raises(ValueError, match="finite positive"):
        run_service(specs, rules_text, workers=1, processes=False,
                    mode="open", offered_rate=rate)
