"""``pfctl`` — command-line front end for rule files.

The paper's deployment story has OS distributors shipping rule bases in
packages; this tool is the maintainer's lint/test harness for those
files:

- ``parse``  — validate a rules file (one pftables line per row,
  ``#`` comments allowed); non-zero exit on the first bad line.
- ``fmt``    — print the normalized (re-rendered) rules.
- ``list``   — install into a fresh firewall and print the chain view.
- ``save``   — emit the pftables-save serialization.
- ``audit``  — install the rules into the standard world and run the
  paper's nine exploits against them, reporting which are blocked.
- ``counters`` — drive a built-in benign workload through the rules and
  print the ``iptables -L -v``-style chain view with live hit/drop/
  traversal counters (``--json`` / ``--prometheus`` export the metrics
  registry instead).
- ``explain`` — the ``pf-trace`` front end: mediate one access (or one
  of the E1–E9 exploits) with decision tracing on and print why each
  mediation was allowed or dropped; ``--codegen`` instead prints the
  JITTED engine's generated per-chain decision functions for the file.
- ``bench-fork`` — fork a warm pre-fork parent at 1k/10k(/100k) live
  children under eager-copy vs copy-on-write state propagation
  (``repro.workloads.forkscale``) and print per-fork cost and
  substrate bytes, with CoW-vs-eager observable parity checked.

Usage::

    python -m repro.cli parse myrules.pf
    python -m repro.cli audit myrules.pf
    python -m repro.cli counters myrules.pf --prometheus
    python -m repro.cli explain myrules.pf --open /etc/shadow
"""

from __future__ import annotations

import argparse
import sys

from repro import errors
from repro.firewall.engine import EngineConfig, ProcessFirewall
from repro.firewall.persist import list_rules, save_rules
from repro.firewall.pftables import parse_rule, pftables


def engine_preset(name):
    """argparse ``type`` for ``--engine``: a valid preset name.

    Resolving through :meth:`EngineConfig.preset` turns a typo into a
    usage error (exit 2, listing the presets) at parse time instead of
    a traceback once the workload is already running.
    """
    try:
        EngineConfig.preset(name)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return name


def read_rule_lines(path):
    """Read a rules file: one pftables line per row, # comments."""
    with open(path) as fh:
        lines = []
        for raw in fh:
            line = raw.strip()
            if line and not line.startswith("#"):
                lines.append(line)
        return lines


def _load_file(path):
    firewall = ProcessFirewall()
    for line in read_rule_lines(path):
        pftables(firewall, line)
    return firewall


def cmd_parse(args):
    ok = True
    for i, line in enumerate(read_rule_lines(args.file), 1):
        try:
            parse_rule(line)
        except errors.KernelError as exc:
            print("{}:{}: {}".format(args.file, i, exc.message))
            ok = False
            if not args.keep_going:
                return 1
    if ok:
        print("{}: OK".format(args.file))
    return 0 if ok else 1


def cmd_fmt(args):
    for line in read_rule_lines(args.file):
        parsed = parse_rule(line)
        chain_part = "-A {} ".format(parsed.chain)
        print("pftables -t {} {}{}".format(parsed.table, chain_part, parsed.rule.render()))
    return 0


def cmd_list(args):
    firewall = _load_file(args.file)
    print(list_rules(firewall, verbose=args.verbose))
    return 0


def cmd_save(args):
    firewall = _load_file(args.file)
    sys.stdout.write(save_rules(firewall))
    return 0


def cmd_suggest(args):
    from repro.rulegen.classify import rules_for_threshold
    from repro.rulegen.trace import records_from_json

    with open(args.log) as fh:
        records = records_from_json(fh.read())
    rules = rules_for_threshold(records, threshold=args.threshold)
    for rule in rules:
        print(rule)
    if not rules:
        print("# no pure entrypoints above threshold {}".format(args.threshold), file=sys.stderr)
    return 0


def cmd_lint(args):
    from repro.firewall.validate import lint_rulebase, render_findings
    from repro.world import build_world

    firewall = _load_file(args.file)
    kernel = build_world()
    findings = lint_rulebase(firewall, policy=kernel.adversaries.policy, kernel=kernel)
    print(render_findings(findings))
    return 0 if not findings else 3


def cmd_audit(args):
    from repro.attacks.exploits import EXPLOITS

    rule_lines = read_rule_lines(args.file)
    blocked = 0
    print("auditing {} rules against the paper's nine exploits".format(len(rule_lines)))
    for eid in sorted(EXPLOITS):
        scenario = EXPLOITS[eid]()
        scenario.rules = lambda _lines=rule_lines: list(_lines)
        result = scenario.run(with_firewall=True)
        verdict = "BLOCKED" if (result.blocked or not result.succeeded) else "not blocked"
        if verdict == "BLOCKED":
            blocked += 1
        print("  {}  {:<40} {}".format(eid, scenario.name[:40], verdict))
    print("{}/9 exploits blocked by this rule set".format(blocked))
    return 0 if blocked == len(EXPLOITS) else 2


def _drive_workload(world, shell):
    """A small built-in benign workload for the ``counters`` command.

    Mirrors the differential harness's macro workload (tree stats,
    open/read loops, fork + execve) plus one guaranteed-sensitive open,
    swallowing kernel denials so drop counters accumulate instead of
    aborting the drive.
    """
    sysi = world.sys

    def attempt(fn):
        try:
            fn()
        except errors.KernelError:
            pass

    def open_read(path):
        fd = sysi.open(shell, path)
        sysi.read(shell, fd, 32)
        sysi.close(shell, fd)

    for path in ("/etc/passwd", "/lib/libc.so.6", "/bin/sh"):
        attempt(lambda p=path: sysi.stat(shell, p))
    for _ in range(4):
        attempt(lambda: open_read("/etc/passwd"))
    attempt(lambda: open_read("/etc/shadow"))
    child = sysi.fork(shell)
    attempt(lambda: sysi.execve(child, "/bin/sh", argv=["/bin/sh", "-c", "true"]))
    attempt(lambda: sysi.stat(child, "/bin/sh"))
    sysi.exit(child, 0)


def cmd_counters(args):
    from repro.api import Session
    from repro.world import spawn_root_shell

    if args.service:
        return _cmd_counters_service(args)
    if not args.file:
        print("pfctl: counters requires a rules file (or --service N)",
              file=sys.stderr)
        return 1
    # Resource-context caching is decision-identical, so turning it on
    # here costs nothing and lets the counters view surface the
    # pf_rescache_total{result=...} family alongside the chain counters.
    session = Session(
        engine=EngineConfig(resource_cache=True),
        rules=read_rule_lines(args.file),
        metered=True,
        dcache=False if args.no_dcache else None,
    )
    world, firewall = session.kernel, session.firewall
    shell = spawn_root_shell(world)
    _drive_workload(world, shell)
    # One-shot export of the name-resolution cache counters into the
    # registry so the JSON/Prometheus views carry the pf_dcache_* family
    # alongside the engine counters.
    world.dcache.publish(firewall.metrics)
    if args.json:
        print(firewall.metrics.to_json())
        return 0
    if args.prometheus:
        sys.stdout.write(firewall.metrics.to_prometheus())
        return 0
    print(list_rules(firewall, verbose=True))
    print()
    print("mediations: {}  allowed: {}  dropped: {}  fast-path: {}".format(
        firewall.stats.invocations,
        firewall.stats.accepts,
        firewall.stats.drops,
        firewall.metrics.value("pf_fast_path_total"),
    ))
    print("rescache: hits={}  misses={}  invalidations={}".format(
        firewall.metrics.value("pf_rescache_total", {"result": "hit"}),
        firewall.metrics.value("pf_rescache_total", {"result": "miss"}),
        firewall.metrics.value("pf_rescache_total", {"result": "invalidate"}),
    ))
    dc = world.dcache.counters()
    print("dcache: {} — dentry hits={} neg={} misses={} inval={}; "
          "walk hits={} misses={} inval={}".format(
        "on" if world.dcache.enabled else "off",
        dc[("dentry", "hit")], dc[("dentry", "negative_hit")],
        dc[("dentry", "miss")], dc[("dentry", "invalidate")],
        dc[("walk", "hit")], dc[("walk", "miss")], dc[("walk", "invalidate")],
    ))
    return 0


def _cmd_counters_service(args):
    """``pfctl counters --service N``: metered service run, wire family.

    Runs ``N`` generated sessions through a real 2-worker metered
    service pool under the given rules and prints (or exports) the
    merged metrics registry — the way to see the
    ``pf_service_wire_*`` data-plane family next to the engine
    counters, since only actual pipe traffic populates it.
    """
    from repro.obs.metrics import registry_from_prometheus
    from repro.service import run_service
    from repro.workloads.generators import generate_stream

    rules_text = None
    if args.file:
        from repro.firewall.persist import save_rules as _save

        rules_text = _save(_load_file(args.file))
    result = run_service(
        generate_stream(args.service, seed=0x5EA5),
        rules_text,
        workers=2,
        metered=True,
    )
    prom = result["metrics_prom"] or ""
    if args.json:
        print(registry_from_prometheus(prom).to_json())
        return 0
    if args.prometheus:
        sys.stdout.write(prom)
        return 0
    registry = registry_from_prometheus(prom)
    wire_summary = result["wire"]
    print("service counters: {} sessions over 2 workers".format(args.service))
    print("mediations: {}  dropped: {}".format(
        result["stats"]["invocations"], result["stats"]["drops"]))
    for direction in ("tx", "rx"):
        print("wire {}: {} bytes, {} sessions, frames {}".format(
            direction,
            registry.value("pf_service_wire_bytes_total",
                           {"endpoint": "driver", "dir": direction}),
            registry.value("pf_service_wire_sessions_total",
                           {"endpoint": "driver", "dir": direction}),
            wire_summary["driver"]["frames"][direction]))
    print("wire derived: {:.1f} B/session, {:.2f} sessions/frame".format(
        wire_summary["bytes_per_session"] or 0.0,
        wire_summary["sessions_per_frame"] or 0.0))
    return 0


def cmd_explain(args):
    if getattr(args, "codegen", False):
        from repro.api import resolve_engine
        from repro.firewall.codegen import dump_codegen

        firewall = ProcessFirewall(resolve_engine("JITTED"))
        for line in read_rule_lines(args.file):
            pftables(firewall, line)
        print(dump_codegen(firewall))
        return 0

    if args.exploit:
        from repro.attacks.exploits import EXPLOITS

        eid = args.exploit.upper()
        if eid not in EXPLOITS:
            print(
                "pfctl: unknown exploit {!r} (choose from {})".format(
                    args.exploit, ", ".join(sorted(EXPLOITS))),
                file=sys.stderr,
            )
            return 1
        rule_lines = read_rule_lines(args.file)
        scenario = EXPLOITS[eid]()
        scenario.rules = lambda _lines=rule_lines: list(_lines)
        holder = {}

        def instrument(firewall):
            holder["tracer"] = firewall.enable_tracing(capacity=1024)

        result = scenario.run(with_firewall=True, instrument=instrument)
        state = "blocked" if result.blocked else (
            "succeeded" if result.succeeded else "failed")
        print("{} {}: {} ({})".format(eid, scenario.name, state, result.detail))
        tracer = holder["tracer"]
        traces = tracer.drops()
        if not traces and tracer.last() is not None:
            traces = [tracer.last()]
        for trace in traces:
            print(trace.render())
        return 0

    from repro.api import Session
    from repro.world import spawn_root_shell

    session = Session(rules=read_rule_lines(args.file))
    world, firewall = session.kernel, session.firewall
    tracer = firewall.enable_tracing(capacity=1024)
    shell = spawn_root_shell(world)
    try:
        fd = world.sys.open(shell, args.open)
        world.sys.close(shell, fd)
    except errors.PFDenied:
        pass
    except errors.KernelError as exc:
        print("pfctl: open denied outside the firewall: {}".format(exc.message))
    for trace in tracer:
        print(trace.render())
    return 0


def cmd_serve(args):
    """Run the live mediation service over a generated session stream."""
    from repro.service import run_service
    from repro.workloads.generators import generate_stream

    rules_text = None
    if args.file:
        from repro.firewall.persist import save_rules as _save

        rules_text = _save(_load_file(args.file))
    specs = generate_stream(args.sessions, seed=args.seed)
    result = run_service(
        specs,
        rules_text,
        engine=args.engine,
        workers=args.workers,
        processes=not args.inline,
        mode="open" if args.rate else "closed",
        offered_rate=args.rate,
        max_pending=args.max_pending,
    )
    counters = result["counters"]
    throughput = result["throughput"]
    latency = result["latency"]
    print("service: {} workers, engine {}, {} mode".format(
        args.workers, args.engine,
        "open-loop @ {}/s".format(args.rate) if args.rate else "closed-loop"))
    print("sessions: {} offered, {} admitted, {} completed, {} rejected".format(
        args.sessions, counters["admitted"], counters["completed"],
        counters["rejected"]))
    print("mediations: {} total, {} dropped; {:.1f}/s wall, {:.1f}/cpu-s".format(
        throughput["mediations"], result["drops"],
        throughput["mediations_per_s"], throughput["mediations_per_cpu_s"]))
    if latency["p50"] is not None:
        print("mediation latency: p50 {:.1f}us  p99 {:.1f}us".format(
            latency["p50"] * 1e6, latency["p99"] * 1e6))
    print("backpressure: queue peak {}, inflight peak {}".format(
        counters["queue_depth_peak"], counters["inflight_peak"]))
    summary = result["wire"]
    if summary["bytes_per_session"] is not None:
        codec = summary["codec_s"]
        print("wire: {:.1f} B/session, {:.2f} sessions/frame, codec "
              "{:.1f}ms driver / {:.1f}ms workers".format(
                  summary["bytes_per_session"],
                  summary["sessions_per_frame"] or 1.0,
                  1e3 * (codec["driver_encode"] + codec["driver_decode"]),
                  1e3 * (codec["worker_encode"] + codec["worker_decode"])))
    return 0


def cmd_bench_service(args):
    """Run the service throughput/latency sweep from the CLI."""
    import json as _json

    from repro.service.driver import sweep_service

    result = sweep_service(
        worker_counts=args.workers,
        load_factors=args.loads,
        sessions=args.sessions,
        seed=args.seed,
        engine=args.engine,
        processes=not args.inline,
    )
    if args.json:
        print(_json.dumps(result, indent=2, sort_keys=True))
        return 0
    print("service sweep: {} sessions/point, engine {}".format(
        args.sessions, args.engine))
    print("{:>8} {:>6} {:>12} {:>10} {:>10} {:>10} {:>9}".format(
        "workers", "load", "offered/s", "done/s", "p50us", "p99us", "rejected"))
    for row in result["worker_points"]:
        closed = row["closed_loop"]
        print("{:>8} {:>6} {:>12} {:>10} {:>10} {:>10} {:>9}".format(
            row["workers"], "cap", "-", closed["sessions_per_s"],
            closed["p50_us"], closed["p99_us"], 0))
        for point in row["load_points"]:
            print("{:>8} {:>5.1f}x {:>12} {:>10} {:>10} {:>10} {:>9}".format(
                row["workers"], point["load_factor"], point["offered_rate"],
                point["sessions_per_s"], point["p50_us"], point["p99_us"],
                point["rejected"]))
    return 0


def cmd_bench_fork(args):
    """Run the fork-scale eager-vs-CoW sweep from the CLI."""
    import json as _json

    from repro.workloads.forkscale import fork_parity_observables, measure_fork_point

    points = []
    for live in args.live:
        for mode in args.modes:
            if mode == "eager" and live > args.eager_max:
                continue
            points.append(measure_fork_point(
                mode, live, state_keys=args.state_keys, trace_heap=args.heap))
    parity_ok = None
    if not args.no_parity:
        cow = fork_parity_observables("cow")
        eager = fork_parity_observables("eager")
        parity_ok = cow == eager
        if not parity_ok:
            print("pfctl: CoW vs eager observables diverged", file=sys.stderr)
            return 1
    if args.json:
        print(_json.dumps({
            "state_keys": args.state_keys,
            "parity": parity_ok,
            "points": points,
        }, indent=2, sort_keys=True))
        return 0
    print("fork scale: warm parent with {} STATE keys".format(args.state_keys))
    header = "{:>6} {:>8} {:>12} {:>12} {:>12}".format(
        "mode", "live", "us/fork", "forks/s", "state MiB")
    if args.heap:
        header += " {:>12}".format("heap MiB")
    print(header)
    for point in points:
        line = "{:>6} {:>8} {:>12.2f} {:>12.1f} {:>12.2f}".format(
            point["mode"], point["live"], point["us_per_fork"],
            point["forks_per_sec"], point["state_bytes"] / 2**20)
        if args.heap:
            line += " {:>12.2f}".format(point["heap_bytes"] / 2**20)
        print(line)
    if parity_ok is not None:
        print("CoW vs eager verdict/log/stats parity: OK")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="pfctl", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="validate a rules file")
    p.add_argument("file")
    p.add_argument("--keep-going", action="store_true", help="report every bad line")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("fmt", help="print normalized rules")
    p.add_argument("file")
    p.set_defaults(func=cmd_fmt)

    p = sub.add_parser("list", help="print the chain view")
    p.add_argument("file")
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=cmd_list)

    p = sub.add_parser("save", help="emit pftables-save serialization")
    p.add_argument("file")
    p.set_defaults(func=cmd_save)

    p = sub.add_parser("suggest", help="generate T1 rules from a JSON LOG trace")
    p.add_argument("log")
    p.add_argument("--threshold", type=int, default=100)
    p.set_defaults(func=cmd_suggest)

    p = sub.add_parser("lint", help="static checks against the standard world")
    p.add_argument("file")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("audit", help="run the E1-E9 exploits against the rules")
    p.add_argument("file")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser(
        "counters", help="drive a benign workload; print live chain counters")
    p.add_argument("file", nargs="?", default=None)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true",
                       help="export the metrics registry as JSON")
    group.add_argument("--prometheus", action="store_true",
                       help="export the metrics registry as Prometheus text")
    p.add_argument("--service", type=int, default=None, metavar="N",
                   help="instead of the benign workload, run N generated "
                        "sessions through a metered 2-worker service pool "
                        "and include the pf_service_wire_* data-plane "
                        "family (default rules: R1-R12 + safe_open)")
    p.add_argument("--no-dcache", action="store_true",
                   help="disable fast-path name resolution (every walk "
                        "cold); the pf_dcache_* line then reports zeros")
    p.set_defaults(func=cmd_counters)

    p = sub.add_parser(
        "explain", help="pf-trace: show why a mediation was allowed or dropped")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--open", metavar="PATH",
                       help="trace opening PATH in the standard world")
    group.add_argument("--exploit", metavar="EID",
                       help="trace one of the E1-E9 exploits (e.g. E3)")
    group.add_argument("--codegen", action="store_true",
                       help="print the JITTED engine's generated per-chain "
                            "decision functions for this rule file")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser(
        "serve",
        help="run the live mediation service over a generated session "
             "stream and report throughput, tail latency, and backpressure")
    p.add_argument("file", nargs="?", default=None,
                   help="rules file (default: R1-R12 + safe_open)")
    p.add_argument("--workers", type=int, default=2,
                   help="worker processes (default 2)")
    p.add_argument("--sessions", type=int, default=100,
                   help="sessions to generate (default 100)")
    p.add_argument("--rate", type=float, default=None,
                   help="open-loop offered load, sessions/s "
                        "(default: closed loop)")
    p.add_argument("--max-pending", type=int, default=64,
                   help="open-loop admission queue bound (default 64)")
    p.add_argument("--seed", type=int, default=0x5EA5,
                   help="stream seed (default 0x5EA5)")
    p.add_argument("--engine", type=engine_preset, default="JITTED",
                   help="engine preset for every worker (default JITTED)")
    p.add_argument("--inline", action="store_true",
                   help="run sessions in-process instead of spawning "
                        "OS workers (debugging / serial reference)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "bench-service",
        help="sweep the service over worker counts and offered-load "
             "factors; report sustained throughput and p50/p99 latency")
    p.add_argument("--workers", type=lambda s: [int(n) for n in s.split(",")],
                   default=[1, 2, 4], metavar="N[,N...]",
                   help="worker counts to sweep (default 1,2,4)")
    p.add_argument("--loads", type=lambda s: [float(n) for n in s.split(",")],
                   default=[0.5, 1.0, 2.0], metavar="F[,F...]",
                   help="open-loop load factors x closed-loop capacity "
                        "(default 0.5,1.0,2.0)")
    p.add_argument("--sessions", type=int, default=200,
                   help="sessions per measurement point (default 200)")
    p.add_argument("--seed", type=int, default=0x5EA5,
                   help="stream seed (default 0x5EA5)")
    p.add_argument("--engine", type=engine_preset, default="JITTED",
                   help="engine preset for every worker (default JITTED)")
    p.add_argument("--inline", action="store_true",
                   help="inline runners instead of OS workers")
    p.add_argument("--json", action="store_true",
                   help="emit the sweep as JSON instead of a table")
    p.set_defaults(func=cmd_bench_service)

    p = sub.add_parser(
        "bench-fork",
        help="fork a warm pre-fork parent at scale and report eager-copy "
             "vs copy-on-write state propagation")
    p.add_argument("--live", type=lambda s: [int(n) for n in s.split(",")],
                   default=[1000, 10000], metavar="N[,N...]",
                   help="live-children scales to sweep (default 1000,10000)")
    p.add_argument("--modes", type=lambda s: s.split(","), default=["cow", "eager"],
                   metavar="MODE[,MODE]",
                   help="fork state modes to measure (default cow,eager)")
    p.add_argument("--state-keys", type=int, default=8192,
                   help="warm parent STATE entries (default 8192)")
    p.add_argument("--eager-max", type=int, default=10000,
                   help="largest scale to measure eager at (a 100k eager "
                        "storm holds ~40 GB of replicas; default 10000)")
    p.add_argument("--heap", action="store_true",
                   help="also run the (untimed) tracemalloc heap pass")
    p.add_argument("--no-parity", action="store_true",
                   help="skip the CoW-vs-eager observable parity check")
    p.add_argument("--json", action="store_true",
                   help="emit the sweep as JSON instead of a table")
    p.set_defaults(func=cmd_bench_fork)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except errors.KernelError as exc:
        print("pfctl: {}".format(exc.message), file=sys.stderr)
        return 1
    except OSError as exc:
        print("pfctl: {}".format(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via tests
    sys.exit(main())
