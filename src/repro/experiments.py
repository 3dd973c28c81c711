"""One-shot evaluation runner: regenerate every table and figure.

``python -m repro.experiments`` reproduces the paper's evaluation
without pytest — the same computations the benchmark suite runs,
printed in paper order.  Individual experiments can be selected::

    python -m repro.experiments                    # everything
    python -m repro.experiments table4 table8      # a subset
    python -m repro.experiments --quick            # small iteration counts

(The benchmark suite remains the precision path; this runner trades
statistical care for a single command.)
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.tables import format_table, overhead_pct


def run_table1():
    from repro.attacks.taxonomy import CVE_SHARE, table1_rows

    rows = [(c.name, c.cwe, c.cve_pre2007, c.cve_2007_2012) for c in table1_rows()]
    rows.append(("% Total CVEs", "-", "{:.2%}".format(CVE_SHARE["<2007"]), "{:.2%}".format(CVE_SHARE["2007-12"])))
    return format_table(["Attack Class", "CWE", "CVE <2007", "CVE 2007-12"], rows, title="Table 1")


def run_table4(quick=False):
    from repro.attacks.exploits import run_security_evaluation

    rows = run_security_evaluation()
    return format_table(
        ["#", "Program", "Reference", "Stock?", "Blocked?", "Benign?"],
        [
            (r["id"], r["program"], r["reference"],
             "exploits" if r["succeeds_unprotected"] else "no",
             "yes" if r["blocked_protected"] else "NO",
             "yes" if r["benign_ok"] else "NO")
            for r in rows
        ],
        title="Table 4 / Section 6.1 (security evaluation)",
    )


def run_figure4(quick=False):
    from repro.workloads.openbench import FIGURE4_PATH_LENGTHS, run_figure4 as grid, syscall_counts

    iterations = 60 if quick else 300
    timings = grid(iterations=iterations)
    counts = syscall_counts()
    rows = []
    for variant in timings:
        for n in FIGURE4_PATH_LENGTHS:
            rows.append((variant, n, timings[variant][n], counts[variant][n]))
    return format_table(["variant", "n", "us/call", "syscalls"], rows, title="Figure 4 (open variants)")


def run_figure5(quick=False):
    from repro.workloads.webbench import figure5_sweep

    rows = figure5_sweep(requests=60 if quick else 250)
    return format_table(
        ["c", "n", "program req/s", "PF req/s", "improvement %"],
        [(r["clients"], r["path_length"], r["program_rps"], r["pf_rps"], r["pf_improvement_pct"]) for r in rows],
        title="Figure 5 (SymLinksIfOwnerMatch)",
    )


def run_table6(quick=False):
    from repro.workloads.lmbench import LMBENCH_OPS, run_table6 as grid

    results = grid(iterations=150 if quick else 800)
    columns = ["DISABLED", "BASE", "FULL", "CONCACHE", "LAZYCON", "EPTSPC", "COMPILED", "TRACED"]
    rows = []
    for op in LMBENCH_OPS:
        base = results[op]["DISABLED"]
        rows.append(
            tuple([op] + ["{:.2f} ({:+.0f}%)".format(results[op][c], overhead_pct(base, results[op][c])) for c in columns])
        )
    return format_table(["syscall"] + columns, rows, title="Table 6 (lmbench, us)")


def run_table7(quick=False):
    from repro.workloads.macro import run_table7 as grid

    rows_data = grid(
        build_files=20 if quick else 60,
        boot_services=8 if quick else 24,
        web_requests=60 if quick else 300,
    )
    rows = []
    for name, values in rows_data.items():
        base = values["Without PF"]
        rows.append(
            (name, base,
             "{:.4f} ({:+.0f}%)".format(values["PF Base"], overhead_pct(base, values["PF Base"])),
             "{:.4f} ({:+.0f}%)".format(values["PF Full"], overhead_pct(base, values["PF Full"])))
        )
    return format_table(["Benchmark", "Without PF", "PF Base", "PF Full"], rows, title="Table 7 (macrobenchmarks)")


def run_table8(quick=False):
    from repro.rulegen.classify import threshold_sweep, zero_fp_threshold
    from repro.rulegen.synth import synthesize_trace

    records = synthesize_trace(scale=0.1 if quick else 1.0)
    rows = [
        (r["threshold"], r["high_only"], r["low_only"], r["both"], r["rules_produced"], r["false_positives"])
        for r in threshold_sweep(records)
    ]
    table = format_table(
        ["threshold", "high", "low", "both", "rules", "false positives"], rows, title="Table 8 (rule generation)"
    )
    return table + "\nzero-false-positive threshold: {}".format(zero_fp_threshold(records))


def run_baseline_matrix(quick=False):
    from repro.baselines.compare import comparison_matrix

    rows = comparison_matrix()
    return format_table(
        ["defense", "attack succeeds", "benign sharing ok", "benign rotation ok"],
        [(d, str(a), str(s), str(r)) for d, a, s, r in rows],
        title="Baseline comparison (section 2.2)",
    )


def run_service_experiment(quick=False):
    """Steady-state service summary (beyond the paper: §6.3 sustained).

    A small closed-loop run through :func:`repro.service.run_service`
    at 1 and 2 inline workers — throughput, p50/p99 mediation latency,
    and drop counts over a fixed-seed generated session stream.  The
    seeded, repeated measurement is the ``session_service`` workload of
    ``repobench/run.py``.
    """
    from repro.service import run_service
    from repro.workloads.generators import generate_stream

    sessions = 20 if quick else 80
    specs = generate_stream(sessions, seed=0x5EA5)
    rows = []
    for workers in (1, 2):
        result = run_service(specs, workers=workers, processes=False)
        latency = result["latency"]
        rows.append((
            workers,
            result["counters"]["completed"],
            result["drops"],
            "{:.0f}".format(result["throughput"]["mediations_per_cpu_s"]),
            "{:.1f}".format(latency["p50"] * 1e6 if latency["p50"] else 0),
            "{:.1f}".format(latency["p99"] * 1e6 if latency["p99"] else 0),
        ))
    return format_table(
        ["workers", "sessions", "drops", "med/cpu-s", "p50 us", "p99 us"],
        rows,
        title="Service (closed-loop, generated sessions; inline workers)",
    )


EXPERIMENTS = {
    "table1": lambda quick: run_table1(),
    "table4": run_table4,
    "fig4": run_figure4,
    "fig5": run_figure5,
    "table6": run_table6,
    "table7": run_table7,
    "table8": run_table8,
    "baselines": run_baseline_matrix,
    "service": run_service_experiment,
}

#: Paper presentation order (the beyond-paper service summary last).
DEFAULT_ORDER = [
    "table1", "table4", "fig4", "fig5", "table6", "table7", "table8",
    "baselines", "service",
]


def main(argv=None):
    parser = argparse.ArgumentParser(prog="repro.experiments", description="Regenerate the paper's evaluation")
    parser.add_argument("experiments", nargs="*", choices=DEFAULT_ORDER, default=[],
                        help="subset to run (default: all)")
    parser.add_argument("--quick", action="store_true", help="small iteration counts")
    args = parser.parse_args(argv)
    selected = args.experiments or DEFAULT_ORDER
    for name in selected:
        print(EXPERIMENTS[name](args.quick))
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests
    sys.exit(main())
