"""Wire differential: pool, frames and step loops, one verdict stream.

The data plane touches everything between the admission loop and the
runner — framing, codecs, dispatch batching, the step loop — so its
correctness statement is blunt: for the same generated stream, the
merged verdicts, audit, and engine stats must be **identical** whichever
step loop executed them, inline or across real spawn-context worker
processes.
"""

import pickle

import pytest

from repro.service import run_service
from repro.service.core import SessionRunner
from repro.workloads.generators import generate_stream, service_rules_text

SEED = 0xB1FF
N_SESSIONS = 24


@pytest.fixture(scope="module")
def rules_text():
    return service_rules_text()


@pytest.fixture(scope="module")
def specs():
    return generate_stream(N_SESSIONS, seed=SEED)


@pytest.fixture(scope="module")
def serial(specs, rules_text):
    """The serial reference: one inline worker, the per-call step loop."""
    return run_service(specs, rules_text, workers=1, processes=False,
                       step_batch=False)


def _comparable_audit(result):
    """Audit rows minus the worker tag (placement is allowed to vary)."""
    return [
        {k: v for k, v in row.items() if k != "worker"}
        for row in result["audit"]
    ]


def _assert_observables_match(result, serial):
    assert result["verdicts"] == serial["verdicts"]
    assert _comparable_audit(result) == _comparable_audit(serial)
    assert result["drops"] == serial["drops"]
    assert result["stats"]["invocations"] == serial["stats"]["invocations"]
    assert result["stats"]["drops"] == serial["stats"]["drops"]


def test_inline_pool_matches_serial(specs, rules_text, serial):
    result = run_service(specs, rules_text, workers=2, processes=False)
    _assert_observables_match(result, serial)


def test_spawn_pool_matches_serial(specs, rules_text, serial):
    """Real 2-worker spawn, one merged stream."""
    result = run_service(specs, rules_text, workers=2, processes=True)
    _assert_observables_match(result, serial)
    assert all(row["sessions"] > 0 for row in result["workers"])


def test_step_batch_toggle_is_observably_silent(specs, rules_text, serial):
    """The capture-and-replay step loop changes cost, never observables:
    forcing it on for one inline worker and off for two must still
    match."""
    replay_one = run_service(specs, rules_text, workers=1, processes=False,
                             step_batch=True)
    percall_two = run_service(specs, rules_text, workers=2, processes=False,
                              step_batch=False)
    _assert_observables_match(replay_one, serial)
    _assert_observables_match(percall_two, serial)


def _pickled_bytes_per_session(specs, rules_text):
    """Bytes per session of the per-session pickle exchange the frames
    replaced: one pickled ``("run", spec)`` out and one pickled
    ``("done", result)`` back, with each result produced by a real
    :class:`SessionRunner` over the same stream."""
    runner = SessionRunner({"rules_text": rules_text})
    total = 0
    for spec in specs:
        result = runner.run_session(spec)
        total += len(pickle.dumps(("run", spec), protocol=pickle.HIGHEST_PROTOCOL))
        total += len(pickle.dumps(("done", result), protocol=pickle.HIGHEST_PROTOCOL))
    return total / len(specs)


def test_binary_actually_batches_and_saves_bytes(specs, rules_text):
    """The point of the frames: multi-session batches, and at least 3x
    fewer bytes per session than pickling each session's run and
    result."""
    run = run_service(specs, rules_text, workers=2, processes=True)
    summary = run["wire"]
    assert summary["sessions_per_frame"] > 1.0
    reference = _pickled_bytes_per_session(specs, rules_text)
    assert summary["bytes_per_session"] * 3 < reference
    # Both endpoints kept consistent tallies: every driver tx session
    # arrived at some worker rx, and vice versa.
    assert summary["driver"]["sessions"]["tx"] == N_SESSIONS
    assert summary["workers"]["sessions"]["rx"] == N_SESSIONS
    assert summary["driver"]["sessions"]["rx"] == N_SESSIONS
    assert summary["workers"]["sessions"]["tx"] == N_SESSIONS
