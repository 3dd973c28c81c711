"""The data plane changes nothing: the ``inline-2``, ``spawn-2`` and
``step-batch-off`` rows of the differential matrix
(``tests/differential.py``) pin the pool and the frames to one inline
worker, and the per-call step loop to the capture-and-replay one; and
the frames batch sessions and save bytes."""

import pickle

from repro.service.core import SessionRunner
from repro.workloads.generators import service_rules_text
from tests.differential import SERVICE, SERVICE_SPECS, check, observe


def test_inline_pool_matches_serial():
    check("inline-2", SERVICE)


def test_spawn_pool_matches_serial():
    """Real 2-worker spawn, one merged stream."""
    check("spawn-2", SERVICE)


def test_step_batch_toggle_is_observably_silent():
    """The capture-and-replay step loop changes cost, never observables:
    off for one inline worker, and off for two."""
    check("step-batch-off", SERVICE)
    per_call = [observe(SERVICE, "COMPILED", workers=workers, step_batch=False)["pinned"]
                for workers in (1, 2)]
    assert per_call[0] == per_call[1]


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


def test_binary_actually_batches_and_saves_bytes():
    """The point of the frames: multi-session batches, and at least 3x
    fewer bytes per session than pickling each session's run and
    result."""
    summary = observe(SERVICE, "COMPILED", workers=2, spawn=True)["run"]["wire"]
    assert summary["sessions_per_frame"] > 1.0
    reference = _pickled_bytes_per_session(SERVICE_SPECS, service_rules_text())
    assert summary["bytes_per_session"] * 3 < reference
    # Both endpoints kept consistent tallies: every driver tx session
    # arrived at some worker rx, and vice versa.
    assert summary["driver"]["sessions"]["tx"] == len(SERVICE_SPECS)
    assert summary["workers"]["sessions"]["rx"] == len(SERVICE_SPECS)
    assert summary["driver"]["sessions"]["rx"] == len(SERVICE_SPECS)
    assert summary["workers"]["sessions"]["tx"] == len(SERVICE_SPECS)
