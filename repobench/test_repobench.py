"""Tests of the benchmark's own code.

Run from the repository root::

    python3 -m pytest repobench -q

The traced-versus-untraced tests build the 1218-rule base four times
and the command test three more; the file takes under a minute.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from inproc import BuildChurn, StaticLookup, TRAP_EVERY, check_build, check_static  # noqa: E402
from layers import wrap_kernel  # noqa: E402
import run  # noqa: E402
from repro.obs.service import ServiceCounters  # noqa: E402
from repro.parallel.merge import strip_volatile  # noqa: E402
from repro.service import driver  # noqa: E402
from repro.service.pool import ServicePool  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from svc import POLL_S, WORKERS, ServiceWorkload, check_service, closed_pump  # noqa: E402


# ---------------------------------------------------------------------------
# span recorder
# ---------------------------------------------------------------------------

class _Clocked:
    """Methods that advance a fake nanosecond clock by fixed amounts."""

    def __init__(self):
        self.now = 0

    def clock(self):
        return self.now

    def outer(self):
        self.now += 5
        self.inner(2)
        self.now += 7
        self.inner(0)
        self.now += 3

    def inner(self, depth):
        self.now += 10
        if depth:
            self.inner(depth - 1)


def test_self_time_of_nested_calls():
    obj = _Clocked()
    recorder = SpanRecorder(clock=obj.clock)
    recorder.wrap(obj, "outer", "outer")
    recorder.wrap(obj, "inner", "inner")
    obj.outer()
    # outer runs 0..55; its two child spans (the inner(2) chain, 5..35,
    # and inner(0), 42..52) cover 40, so its self time is 15.  Each of
    # the four inner spans runs 10 ns of its own.
    assert recorder.self_times() == {"outer": (1, 15), "inner": (4, 40)}
    assert list(recorder.parent) == [-1, 0, 1, 2, 0]
    assert list(recorder.start) == [0, 5, 15, 25, 42]
    assert list(recorder.end) == [55, 35, 35, 35, 52]


def test_restore_puts_back_instance_class_and_module_attributes():
    obj = _Clocked()
    module = types.ModuleType("fake_layer")
    module.fn = lambda x: x + 1
    original_fn = module.fn
    original_inner = vars(_Clocked)["inner"]
    recorder = SpanRecorder(clock=obj.clock)
    recorder.wrap(obj, "outer", "a")
    recorder.wrap(_Clocked, "inner", "b")
    recorder.wrap(module, "fn", "c")
    assert module.fn(1) == 2
    obj.outer()
    assert recorder.self_times()["b"][0] == 4
    recorder.restore()
    assert "outer" not in vars(obj)
    assert vars(_Clocked)["inner"] is original_inner
    assert module.fn is original_fn
    before = len(recorder)
    obj.outer()
    assert len(recorder) == before


def test_write_lists_every_span_with_its_parent(tmp_path):
    obj = _Clocked()
    recorder = SpanRecorder(clock=obj.clock)
    recorder.wrap(obj, "outer", "outer")
    recorder.wrap(obj, "inner", "inner")
    obj.outer()
    path = tmp_path / "spans.tsv"
    recorder.write(str(path))
    rows = [line.split("\t") for line in path.read_text().splitlines()]
    assert rows[0] == ["id", "parent", "layer", "start_ns", "end_ns"]
    assert rows[1] == ["0", "-1", "outer", "0", "55"]
    assert len(rows) == 6


# ---------------------------------------------------------------------------
# traced runs observe without changing
# ---------------------------------------------------------------------------

def _observables(work, sessions):
    for index in range(sessions):
        work.run_session(index, [])
    firewall = work.kernel.firewall
    audit = [(e.severity, e.kind, strip_volatile(e.record)) for e in firewall.audit.tail(1 << 20)]
    return {
        "verdicts": list(work.verdicts),
        "calls": work.calls,
        "audit": audit,
        "stats": firewall.stats.as_dict(),
        "syscalls": dict(work.kernel.stats.syscalls),
        "check": work.check(),
    }


@pytest.mark.parametrize("cls, sessions", [(StaticLookup, 300), (BuildChurn, 120)])
def test_traced_run_matches_untraced_run(cls, sessions):
    plain = _observables(cls(11), sessions)
    work = cls(11)
    recorder = SpanRecorder()
    wrap_kernel(recorder, work.kernel)
    traced = _observables(work, sessions)
    recorder.restore()
    assert len(recorder) > sessions
    assert traced == plain
    assert plain["check"] == []
    if cls is BuildChurn:
        assert plain["stats"]["drops"] == sessions // TRAP_EVERY


def _service_results(work, specs, recorder=None):
    """Run ``specs`` on an in-process runner; results without timings."""
    runner = work.inline_runner()
    if recorder is not None:
        wrap_kernel(recorder, runner.session.kernel)
    results = runner.run_batch(specs)
    for result in results:
        del result["latencies"]
    return results, runner.session.stats.as_dict()


def _pool_results(work, specs, recorder=None):
    """Run ``specs`` through an inline pool; results without timings."""
    pool = ServicePool(1, work.worker_init(), processes=False)
    if recorder is not None:
        recorder.wrap(pool, "submit_many", "service.pool.submit")
        recorder.wrap(pool, "poll", "service.pool.poll")
    results = []
    closed_pump(pool, specs, results.append)
    stats = pool.close()[0]["stats"]
    for result in results:
        del result["latencies"]
    return results, stats


@pytest.mark.parametrize("run_specs", [_service_results, _pool_results])
def test_traced_service_matches_untraced_service(run_specs):
    work = ServiceWorkload(seed=5, seconds=0.1, rate=500.0)
    specs = work.warmup + work.closed
    plain = run_specs(work, specs)
    recorder = SpanRecorder()
    traced = run_specs(work, specs, recorder)
    recorder.restore()
    assert len(recorder) >= len(specs) // 4
    assert traced == plain
    offered = [spec["sid"] for spec in specs]
    assert check_service(offered, plain[0], []) == []


# ---------------------------------------------------------------------------
# the service workload runs the pool the way run_service does
# ---------------------------------------------------------------------------

def test_worker_init_matches_run_service(monkeypatch):
    work = ServiceWorkload(seed=3, seconds=0.1, rate=500.0)
    captured = {}

    class Captured(Exception):
        pass

    def fake_pool(workers, init, **kwargs):
        captured.update(workers=workers, init=init, kwargs=kwargs)
        raise Captured

    monkeypatch.setattr(driver, "ServicePool", fake_pool)
    with pytest.raises(Captured):
        driver.run_service(work.specs, workers=WORKERS)
    assert captured["init"] == work.worker_init()
    defaults = inspect.signature(ServicePool).parameters
    assert captured["kwargs"] == {"processes": True, "window": defaults["window"].default}


class _BatchLog:
    """Records the size of every ``submit_many`` batch of a pool."""

    def __init__(self, pool):
        self.sizes = []
        submit = pool.submit_many

        def submit_many(specs):
            self.sizes.append(len(specs))
            return submit(specs)

        pool.submit_many = submit_many


def test_closed_pump_admits_like_run_service():
    work = ServiceWorkload(seed=4, seconds=0.1, rate=500.0)
    logs = []
    for pump in (lambda pool: closed_pump(pool, work.closed, lambda result: None),
                 lambda pool: driver._pump_closed(pool, work.closed, ServiceCounters(), [])):
        pool = ServicePool(WORKERS, work.worker_init(), processes=False)
        log = _BatchLog(pool)
        pump(pool)
        pool.close()
        logs.append(log.sizes)
    assert logs[0] == logs[1]
    assert sum(logs[0]) == len(work.closed)
    assert POLL_S == driver._POLL_S


# ---------------------------------------------------------------------------
# output checks catch one flipped verdict
# ---------------------------------------------------------------------------

def test_static_check_fails_on_one_flipped_verdict():
    assert check_static([]) == []
    assert check_static([(4, 2, "stat", "PFDenied")])


def test_build_check_fails_on_one_flipped_verdict():
    jobs = 3 * TRAP_EVERY
    traps = [(job, 14, "trap_open", "PFDenied") for job in range(TRAP_EVERY - 1, jobs, TRAP_EVERY)]
    assert check_build(traps, jobs) == []
    allowed = list(traps)
    allowed[1] = allowed[1][:3] + ("ok",)
    assert check_build(allowed, jobs)
    assert check_build(traps + [(0, 5, "stat", "PFDenied")], jobs)


def test_service_check_fails_on_one_flipped_verdict():
    work = ServiceWorkload(seed=9, seconds=0.04, rate=500.0)
    results, _stats = _service_results(work, work.warmup)
    offered = [spec["sid"] for spec in work.warmup]
    assert check_service(offered, results, []) == []
    rows = [(n, i, row[1]) for n, r in enumerate(results) for i, row in enumerate(r["verdicts"])]
    trap = next((n, i) for n, i, op in rows if op == "trap_open")
    ok = next((n, i) for n, i, op in rows if op != "trap_open")
    for (n, i), status in ((trap, "ok"), (ok, "PFDenied")):
        flipped = [dict(r, verdicts=list(r["verdicts"])) for r in results]
        idx, op, _status = flipped[n]["verdicts"][i]
        flipped[n]["verdicts"][i] = (idx, op, status)
        assert check_service(offered, flipped, [])
    assert check_service(offered, results[1:], [])
    assert check_service(offered, results[1:], [results[0]["sid"]]) == []


# ---------------------------------------------------------------------------
# the command
# ---------------------------------------------------------------------------

def test_benchmark_json_lists_the_printed_metrics():
    from layers import PER_LAYER

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    for listed, printed in ((bench["end_to_end"], run.END_TO_END), (bench["per_layer"], PER_LAYER)):
        assert [(m["name"], m["unit"]) for m in listed] == list(printed)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_command_reports_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--service-rate", "250",
         "--workload", "static_lookup", "--seed", "1", "--seconds", "0.3", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [name for name, _unit in run.END_TO_END]
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads processes from /proc")
def test_service_run_leaves_no_process_behind(tmp_path):
    # Output goes to files: a helper holding an inherited pipe would keep
    # communicate() waiting until it had ended, and hide it.
    with open(tmp_path / "out", "w+") as out:
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "run.py"), "--service-rate", "250",
             "--workload", "session_service", "--seed", "1", "--seconds", "0.5",
             "--trace", "0"],
            cwd=ROOT, stdout=out, stderr=subprocess.STDOUT, start_new_session=True)
        assert proc.wait(timeout=180) == 0
        left = []
        for pid in filter(str.isdigit, os.listdir("/proc")):
            try:
                with open("/proc/{}/stat".format(pid)) as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            # Field 6 of stat is the session id; the run began a session of its own.
            if int(fields[3]) == proc.pid:
                left.append(pid)
        out.seek(0)
        assert json.loads(out.read().splitlines()[-1])["correct"] is True
    assert left == []


def test_command_exits_nonzero_when_a_check_fails(monkeypatch):
    metrics = {name: 1.0 for name, _unit in run.END_TO_END}
    monkeypatch.setattr(run, "run_inproc", lambda args: (metrics, 10, ["flipped"], {}))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = run.main(["--service-rate", "250", "--workload", "static_lookup",
                           "--seed", "1", "--seconds", "1", "--trace", "0"])
    result = json.loads(out.getvalue().splitlines()[-1])
    assert status == 1
    assert result["correct"] is False and result["failed"] == 1


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "repobench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        command = json.load(handle)["command"]
    proc = subprocess.run(
        command + ["--workload", "static_lookup", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
