#!/usr/bin/env python3
"""The repo benchmark: one workload, one seed, one run.

Run from the repository root::

    python3 repobench/run.py --service-rate 250 --workload static_lookup --seed 1 --seconds 16 --trace 0

Workloads: ``static_lookup``, ``build_churn``, ``session_service`` (see
``repobench/README.md``).  ``--trace 0`` measures the end-to-end
metrics with nothing wrapped; ``--trace 1`` is a separate run that
wraps the program's layer entry points with the span recorder and
prints the per-layer metrics, and writes its spans under
``.repobench/``.  Each run checks the program's outputs.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (``{name: {"value", "unit"}}``); when a check
failed the exit status is 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPAN_DIR = os.path.join(ROOT, ".repobench")

WORKLOADS = ("static_lookup", "build_churn", "session_service")

#: End-to-end metrics, in print order, with their units.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("capacity_sessions_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
)

#: Figures printed on every run but not bounded (see README.md); the
#: traced run reports them as per-layer ``e2e.<name>``.
UNBOUNDED = ("op_p99_us", "session_p50_ms", "session_p99_ms")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed phases of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--service-rate", type=float, required=True,
                        help="session_service phase B arrival rate, sessions/s "
                             "(fixed in BENCHMARK.json's command)")
    return parser.parse_args(argv)


#: Longest wait for one measuring process of an in-process run, seconds.
MEASURE_TIMEOUT_S = 120


def measure_in_child(args, hash_seed, seconds):
    """Run ``inproc.measure`` in a fresh interpreter; returns its result."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=str(hash_seed))
    argv = [sys.executable, os.path.join(HERE, "inproc.py"), args.workload, str(args.seed),
            repr(seconds)]
    proc = subprocess.run(argv, env=env, stdout=subprocess.PIPE, text=True, check=True,
                          timeout=MEASURE_TIMEOUT_S)
    return json.loads(proc.stdout.splitlines()[-1])


def run_inproc(args):
    """static_lookup / build_churn; returns ``(metrics, attempted, problems, notes)``.

    An untraced run splits ``--seconds`` over one measuring process per
    hash seed in ``inproc.HASH_SEEDS``, one after another; ``setup_s`` is
    the median of their set-ups and every other figure the mean of
    theirs.
    """
    from common import closed_loop, kernel_counters, merge_rows
    from inproc import HASH_SEEDS, WORKLOADS
    from layers import mediation_table, wrap_install, wrap_kernel
    from spans import SpanRecorder

    if not args.trace:
        share = args.seconds / len(HASH_SEEDS)
        parts = [measure_in_child(args, hash_seed, share) for hash_seed in HASH_SEEDS]
        figures = merge_rows([part["figures"] for part in parts], statistics.fmean)
        metrics = dict(figures, setup_s=statistics.median(part["setup_s"] for part in parts),
                       peak_rss_mb=max(part["peak_rss_mb"] for part in parts))
        notes = {key: figures[key] for key in ("op_samples", "session_samples") + UNBOUNDED}
        problems = [problem for part in parts for problem in part["problems"]]
        return metrics, sum(part["calls"] for part in parts), problems, notes

    cls = WORKLOADS[args.workload]
    warmup = cls.warmup
    recorder = SpanRecorder()
    wrap_install(recorder)
    work = cls(args.seed)
    recorder.restore()
    install_ns = recorder.self_times().get("firewall.install", (0, 0))[1]
    for index in range(warmup):
        work.run_session(index, [])
    plain, ran = closed_loop(work.run_session, args.seconds / 2, start=warmup)
    before = kernel_counters(work.kernel)
    wrap_kernel(recorder, work.kernel)
    traced, _ran = closed_loop(work.run_session, args.seconds / 2, start=warmup + ran)
    recorder.restore()
    table = mediation_table(recorder.self_times(), before, kernel_counters(work.kernel),
                            traced["op_samples"], traced["wall_s"])
    table["firewall.install_s"] = install_ns / 1e9
    table["trace.overhead_pct"] = (plain["ops_per_s"] / traced["ops_per_s"] - 1) * 100
    table.update(("e2e." + key, plain[key]) for key in UNBOUNDED)
    recorder.write(span_path(args))
    return table, work.calls, work.check(), {"spans": len(recorder)}


def run_service(args):
    """session_service; returns ``(metrics, attempted, problems, notes)``."""
    import time

    from common import kernel_counters, median_setup, peak_rss_mb, ratio
    from layers import mediation_table, wrap_install, wrap_kernel
    from repro.obs.service import percentile
    from spans import SpanRecorder
    from svc import (INLINE_SESSIONS, POOL_SETUPS, ServiceCheck, ServiceWorkload, check_service,
                     close_quietly, closed_phase, open_phase)

    work = ServiceWorkload(args.seed, args.seconds, args.service_rate)
    offered = [spec["sid"] for spec in work.closed + work.open]
    check = ServiceCheck()
    pools = []

    def start():
        pool = work.start_pool()
        pools.append(pool)
        return pool

    def release(pool):
        pools.remove(pool)
        pool.close()

    try:
        setup_s, pool = median_setup(start, release, count=1 if args.trace else POOL_SETUPS)
        recorder = SpanRecorder()
        if args.trace:
            recorder.wrap(pool, "submit_many", "service.pool.submit")
            recorder.wrap(pool, "poll", "service.pool.poll")
        wire_before = pool.wire.as_dict()
        closed, closed_wall = closed_phase(pool, work.closed, check.add)
        opened = open_phase(pool, work.open, work.offsets, check.add)
        wire_after = pool.wire.as_dict()
        recorder.restore()
        snapshots = pool.close()
        pools.clear()
    except BaseException:
        for pool in pools:
            close_quietly(pool)
        raise
    problems = check.finish(offered, opened["rejected"])
    problems.extend("session {} rejected".format(sid) for sid in opened["rejected"])
    notes = {
        "sessions": "{} warm-up, {} closed loop, {} open loop at {}/s".format(
            len(work.warmup), len(work.closed), len(work.open), work.rate),
        "open_loop_wall_s": opened["wall_s"],
    }
    unbounded = {"op_p99_us": closed["op_p99_us"], "session_p50_ms": opened["session_p50_ms"],
                 "session_p99_ms": opened["session_p99_ms"]}
    if not args.trace:
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": closed["ops_per_s"],
            "op_p50_us": closed["op_p50_us"],
            "capacity_sessions_per_s": closed["capacity_sessions_per_s"],
            "peak_rss_mb": peak_rss_mb(children=True),
        }
        notes.update(unbounded)
        notes["op_samples"] = closed["op_samples"]
        notes["session_samples"] = opened["session_samples"]
        return metrics, len(offered), problems, notes

    # Worker-side layers: the same runner code, built in this process.
    wrap_install(recorder)
    runner = work.inline_runner()
    recorder.restore()
    install_ns = recorder.self_times().get("firewall.install", (0, 0))[1]
    runner.run_batch(work.warmup)
    half = min(INLINE_SESSIONS, len(work.closed) // 2)
    start_t = time.perf_counter()
    plain = runner.run_batch(work.closed[:half])
    plain_wall = time.perf_counter() - start_t
    kernel = runner.session.kernel
    before = kernel_counters(kernel)
    wrap_kernel(recorder, kernel)
    start_t = time.perf_counter()
    traced = runner.run_batch(work.closed[half:2 * half])
    traced_wall = time.perf_counter() - start_t
    recorder.restore()
    traced_ops = sum(len(r["latencies"]) for r in traced)
    plain_ops = sum(len(r["latencies"]) for r in plain)
    times = recorder.self_times()
    table = mediation_table(times, before, kernel_counters(kernel), traced_ops, traced_wall)
    table["firewall.install_s"] = install_ns / 1e9
    table["trace.overhead_pct"] = (
        (traced_wall / traced_ops) / (plain_wall / plain_ops) - 1) * 100
    problems.extend(check_service(
        [r["sid"] for r in plain + traced], plain + traced, []))

    sessions = check.completed
    pool_codec = (wire_after["encode_s"] - wire_before["encode_s"]
                    + wire_after["decode_s"] - wire_before["decode_s"])
    worker_codec = sum(snap["wire"]["encode_s"] + snap["wire"]["decode_s"] for snap in snapshots)
    tx = wire_after["bytes"]["tx"] - wire_before["bytes"]["tx"]
    rx = wire_after["bytes"]["rx"] - wire_before["bytes"]["rx"]
    run_frames = (wire_after["frames"]["tx"].get("run", 0)
                  - wire_before["frames"]["tx"].get("run", 0))
    table.update({
        "service.admit_wait_ms": statistics.median(opened["admit_wait"]) * 1e3,
        "service.pool.submit_us": times.get("service.pool.submit", (0, 0))[1] / 1e3 / sessions,
        "service.pool.poll_us": times.get("service.pool.poll", (0, 0))[1] / 1e3 / sessions,
        "service.wire.bytes_per_session": ratio(tx + rx, sessions),
        "service.wire.sessions_per_frame": ratio(
            wire_after["sessions"]["tx"] - wire_before["sessions"]["tx"], run_frames),
        "service.wire.codec_s": pool_codec + worker_codec,
        "service.worker.cpu_ms_per_session": ratio(
            sum(snap["cpu_s"] for snap in snapshots),
            sum(snap["sessions"] for snap in snapshots)) * 1e3,
        "loadgen.late_p99_ms": percentile(opened["late"], 99) * 1e3,
    })
    table.update(("e2e." + key, value) for key, value in unbounded.items())
    recorder.write(span_path(args))
    notes["spans"] = len(recorder)
    notes["closed_wall_s"] = closed_wall
    return table, len(offered), problems, notes


def stop_resource_tracker():
    """Stop multiprocessing's resource tracker if this run started one.

    Spawning the service pool's workers also starts the tracker, a
    helper process that would otherwise outlive this one; stopping it
    here waits until it has ended, so a run leaves no process behind.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()


def span_path(args):
    return os.path.join(SPAN_DIR, "{}.spans.tsv".format(args.workload))


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("repobench: no program source at {}".format(SRC), file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from layers import PER_LAYER

    runner = run_service if args.workload == "session_service" else run_inproc
    try:
        values, attempted, problems, notes = runner(args)
    finally:
        stop_resource_tracker()
    if args.trace:
        names = PER_LAYER
        values = dict({name: 0.0 for name, _unit in PER_LAYER}, **values)
    else:
        names = END_TO_END
    for problem in problems[:20]:
        print("check failed: {}".format(problem))
    print("workload {} seed {} trace {}".format(args.workload, args.seed, args.trace))
    for key, value in sorted(notes.items()):
        print("  {:<34} {}".format(key, value))
    for name, unit in names:
        print("  {:<34} {:>16.6f} {}".format(name, values[name], unit))
    failed = len(problems)
    print("  {:<34} {:>16.6f} fraction ({} of {})".format(
        "failed_frac", failed / attempted, failed, attempted))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
