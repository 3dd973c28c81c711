"""Table 7: macrobenchmarks under Without PF / PF Base / PF Full.

Shape expectations from the paper: PF Base costs ≈ nothing; PF Full
stays a small single-digit-percent overhead on times/latency (our
Python engine is allowed a bit more headroom), and throughput moves the
opposite way.
"""

import os
import sys

import pytest

from repro.analysis.tables import format_table, overhead_pct
from repro.workloads.macro import MacrobenchSuite, TABLE7_CONFIGS, run_table7

TOOLS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools")


@pytest.mark.parametrize("config", TABLE7_CONFIGS)
def test_apache_build_per_config(benchmark, config):
    suite = MacrobenchSuite(config)
    benchmark.pedantic(suite.apache_build, kwargs={"files": 30}, iterations=1, rounds=3)


def test_table7_grid(run_once, emit):
    rows_data = run_once(run_table7, build_files=60, boot_services=24, web_requests=300)
    lower_is_better = {"Apache Build (s)", "Boot (s)", "Web1-L (ms)", "Web1000-L (ms)"}
    rows = []
    for name, values in rows_data.items():
        base = values["Without PF"]
        rows.append(
            (
                name,
                base,
                "{:.4f} ({:+.1f}%)".format(values["PF Base"], overhead_pct(base, values["PF Base"])),
                "{:.4f} ({:+.1f}%)".format(values["PF Full"], overhead_pct(base, values["PF Full"])),
            )
        )
    emit(
        format_table(
            ["Benchmark", "Without PF", "PF Base", "PF Full"],
            rows,
            title="Table 7: macrobenchmark overheads",
        )
    )

    for name, values in rows_data.items():
        base, full = values["Without PF"], values["PF Full"]
        if name in lower_is_better:
            assert full >= base * 0.9, "{}: PF Full implausibly faster".format(name)
        else:
            assert full <= base * 1.1, "{}: PF Full implausibly higher throughput".format(name)
    # The headline: PF Full overhead on build time is bounded (paper:
    # 4%; our engine pays interpreted-Python costs per mediation against
    # a baseline syscall that is itself only a few microseconds of
    # Python, so the envelope is generous — the claim is "same order of
    # magnitude", not the paper's single digits).
    build = rows_data["Apache Build (s)"]
    assert overhead_pct(build["Without PF"], build["PF Full"]) < 250.0
    assert overhead_pct(build["Without PF"], build["PF Base"]) < 60.0


def _build_work(config, files=8):
    """Bytecodes (``tools/work_ledger.py``) and engine ``context_cost``
    per Apache build file under one Table 7 configuration, after a
    two-file warm-up build: counts, so independent of host speed."""
    sys.path.insert(0, TOOLS_DIR)
    try:
        from work_ledger import count_bytecodes
    finally:
        sys.path.pop(0)
    suite = MacrobenchSuite(config)
    suite.apache_build(files=2)
    stats = suite.kernel.firewall.stats if suite.kernel.firewall is not None else None
    before = stats.context_cost if stats is not None else 0
    bytecodes = sum(count_bytecodes(lambda: suite.apache_build(files=files)).values())
    after = stats.context_cost if stats is not None else 0
    return {"bytecodes": bytecodes / files, "context_cost": (after - before) / files}


def test_table7_build_counted():
    """Counted companion of :func:`test_table7_grid`'s build bounds: the
    same two orderings on work the engine and the interpreter count."""
    without, base, full = (_build_work(config) for config in TABLE7_CONFIGS)
    # PF Base collects no context and adds under 10% to the build.
    assert base["context_cost"] == 0
    assert base["bytecodes"] < without["bytecodes"] * 1.1
    # PF Full collects context and adds over four times what PF Base adds.
    assert full["context_cost"] > 0
    assert full["bytecodes"] - without["bytecodes"] > 4 * (base["bytecodes"] - without["bytecodes"])
