"""ServicePool edge behaviour: saturation, shutdown, dead workers."""

import pytest

from repro.service.pool import ServicePool
from repro.workloads.generators import generate_stream, service_rules_text


@pytest.fixture(scope="module")
def init():
    return {"engine": "COMPILED", "rules_text": service_rules_text()}


def test_inline_pool_runs_synchronously_but_holds_window_slots(init):
    """Inline sessions execute inside submit, yet occupy window slots
    until poll drains them — the same accounting as process mode, so
    capacity tests are mode-agnostic."""
    pool = ServicePool(2, init, processes=False)
    specs = generate_stream(4, seed=5)
    for spec in specs:
        pool.submit(spec)
    assert pool.inflight == 4
    results = pool.poll(timeout=0)
    assert pool.inflight == 0
    assert sorted(r["sid"] for r in results) == [s["sid"] for s in specs]
    snapshots = pool.close()
    assert sum(s["sessions"] for s in snapshots) == 4


def test_capacity_accounting_at_the_window_boundary(init):
    """has_capacity()/capacity() flip exactly at workers x window, and
    recover exactly as poll drains completions."""
    workers, window = 2, 3
    pool = ServicePool(workers, init, processes=False, window=window)
    bound = workers * window
    assert pool.capacity() == bound
    specs = generate_stream(bound, seed=7)
    for admitted, spec in enumerate(specs, start=1):
        assert pool.has_capacity()
        pool.submit(spec)
        assert pool.inflight == admitted
        assert pool.capacity() == bound - admitted
    # Saturated: the bound+1'th submit must be refused, loudly.
    assert not pool.has_capacity()
    assert pool.capacity() == 0
    with pytest.raises(RuntimeError, match="saturated"):
        pool.submit(generate_stream(bound + 1, seed=7)[-1])
    # Draining restores the full window, and the pool accepts again.
    results = pool.poll(timeout=0)
    assert len(results) == bound
    assert pool.inflight == 0
    assert pool.capacity() == bound
    assert pool.has_capacity()
    # A fresh sid: session filesystems are per-sid and a pool's runners
    # live across sessions.
    pool.submit(generate_stream(bound + 1, seed=7)[bound])
    assert pool.inflight == 1
    pool.poll(timeout=0)
    pool.close()


def test_submit_many_spreads_least_outstanding(init):
    """A batch lands least-loaded-first: 5 sessions over 2 workers with
    window 3 splits 3/2, never 4/1."""
    pool = ServicePool(2, init, processes=False, window=3)
    pool.submit_many(generate_stream(5, seed=13))
    assert sorted(pool._outstanding) == [2, 3]
    pool.poll(timeout=0)
    pool.close()


def test_close_refuses_inflight_and_double_close(init):
    pool = ServicePool(1, init, processes=False)
    pool.close()
    with pytest.raises(RuntimeError):
        pool.close()


def test_dead_worker_surfaces_as_runtime_error(init):
    """A killed worker becomes a clear error, not a raw EOFError."""
    pool = ServicePool(1, init, processes=True)
    spec = generate_stream(1, seed=11)[0]
    pool.submit(spec)
    pool.poll(timeout=30)  # wait out runner construction + first session
    pool._procs[0].kill()
    pool._procs[0].join(timeout=10)
    with pytest.raises(RuntimeError, match="died without reporting"):
        # The closed pipe reads as ready-with-EOF; a late submit on the
        # dead pipe raises the same shape from the send side.
        pool.submit(generate_stream(2, seed=12)[1])
        pool.poll(timeout=30)


def test_other_wire_protocol_is_a_frame_format_mismatch(init):
    """Workers speak one frame format; a payload naming another is
    refused before any worker starts."""
    with pytest.raises(ValueError, match="wire protocol"):
        ServicePool(1, dict(init, wire_protocol="pickle"), processes=False)
    pool = ServicePool(1, dict(init, wire_protocol="binary"), processes=False)
    pool.close()
