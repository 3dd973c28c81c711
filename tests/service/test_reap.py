"""Session-reap churn: a long-lived runner must not accumulate state."""

import gc
import weakref

import pytest

from repro.firewall.procstate import ProcState
from repro.proc.process import Process
from repro.service.core import SessionRunner
from repro.workloads.generators import generate_stream, service_rules_text


@pytest.fixture(scope="module")
def rules_text():
    return service_rules_text()


def _runner(rules_text):
    return SessionRunner({
        "engine": "COMPILED",
        "rules_text": rules_text,
        "worker_id": 0,
    })


def test_census_returns_to_baseline_after_each_session(rules_text):
    runner = _runner(rules_text)
    baseline = sorted(runner.session.kernel.processes)
    assert len(baseline) == runner.baseline_pids
    for spec in generate_stream(12, seed=7):
        runner.run_session(spec)
        assert sorted(runner.session.kernel.processes) == baseline
    assert runner.sessions_run == 12


@pytest.fixture
def releases(monkeypatch):
    """Count :meth:`ProcState.release` calls."""
    calls = []
    original = ProcState.release

    def counted(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(ProcState, "release", counted)
    return calls


def test_reap_releases_procstate_bundles(rules_text, releases):
    """Every spawned process's state is released: each root's at its
    reap, each fork child's at its ``execve``."""
    runner = _runner(rules_text)
    specs = generate_stream(10, seed=21)
    spawned = 0
    for spec in specs:
        spawned += 1  # the root
        spawned += sum(1 for step in spec["steps"] if step[0] == "fork_exec")
        runner.run_session(spec)
    assert len(releases) == spawned
    # Released state pins nothing: the runner's world holds only the
    # baseline processes, each with empty per-process firewall state.
    for proc in runner.session.kernel.processes.values():
        assert len(proc.pf.state) == 0


def test_no_process_outlives_its_session(rules_text, monkeypatch):
    """Roots and fork children alike are unreachable once the session
    closes, so their firewall state goes with them."""
    runner = _runner(rules_text)
    created = []
    original = Process.__init__

    def tracked(self, *args, **kwargs):
        original(self, *args, **kwargs)
        created.append(weakref.ref(self))

    monkeypatch.setattr(Process, "__init__", tracked)
    forks = 0
    for spec in generate_stream(10, seed=21):
        forks += sum(1 for step in spec["steps"] if step[0] == "fork_exec")
        runner.run_session(spec)
    assert forks > 0 and len(created) == 10 + forks
    gc.collect()
    assert [ref() for ref in created if ref() is not None] == []


def test_churn_does_not_grow_observable_state(rules_text):
    """Audit sequence advances but no per-process residue accumulates."""
    runner = _runner(rules_text)
    specs = list(generate_stream(30, seed=3))
    runner.run_session(specs[0])
    snap_early = runner.session.snapshot()
    for spec in specs[1:]:
        runner.run_session(spec)
    snap_late = runner.session.snapshot()
    assert snap_late["live_pids"] == snap_early["live_pids"]
    assert runner.busy_cpu > 0.0
    # The audit ring is bounded: its retained length never exceeds
    # capacity no matter how many sessions churned through.
    ring = runner.session.audit
    assert len(ring.records()) <= ring.capacity


def test_denied_sessions_still_reap_cleanly(rules_text):
    """Trap-hitting sessions (PFDenied verdicts) leave no residue."""
    runner = _runner(rules_text)
    baseline = sorted(runner.session.kernel.processes)
    drops = 0
    for spec in generate_stream(20, seed=99):
        result = runner.run_session(spec)
        drops += result["drops"]
    assert drops > 0  # the stream's trap steps actually fired
    assert sorted(runner.session.kernel.processes) == baseline
