"""Headline shape claims of the evaluation, asserted end-to-end.

These are the qualitative results a reader takes away from §6; each
test states the claim it checks.  Absolute numbers are Python-speed,
so every assertion is about *ordering and direction*, never magnitude.
"""

import os
import sys

import pytest

from repro import errors
from repro.firewall.engine import EngineConfig, ProcessFirewall
from repro.rulesets.generated import install_full_rulebase
from repro.workloads import lmbench
from repro.workloads.lmbench import LmbenchSuite, time_operation
from repro.workloads.openbench import syscall_counts
from repro.world import build_world, spawn_root_shell


TOOLS_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "tools")


def _bytecodes_per_op(fn, calls=2):
    """Bytecodes one ``fn()`` executes, averaged over ``calls`` after a
    warm-up call (``tools/work_ledger.py``): a count, so independent of
    host speed."""
    sys.path.insert(0, os.path.abspath(TOOLS_DIR))
    try:
        from work_ledger import count_bytecodes
    finally:
        sys.path.pop(0)
    fn()
    return sum(count_bytecodes(lambda: [fn() for _ in range(calls)]).values()) / calls


def _counted_column(column, monkeypatch=None, config=None, full_rules=True):
    """``{"stat": n, "null": n}`` bytecodes per call for a Table 6
    column at the fixture's 400 rules, or for ``config`` registered as
    an extra column."""
    if config is not None:
        monkeypatch.setitem(lmbench.TABLE6_COLUMNS, column, (config, full_rules, False))
    suite = LmbenchSuite(column, rule_count=400)
    return {"stat": _bytecodes_per_op(suite.op_stat), "null": _bytecodes_per_op(suite.op_null)}


def recovers_cost(stat, null):
    """Entrypoint chains cut ``stat``, lazy retrieval cuts ``null``."""
    return stat["EPTSPC"] < stat["FULL"] * 0.8 and null["LAZYCON"] < null["FULL"] * 0.8


def base_is_cheap(stat):
    return stat["BASE"] < stat["FULL"] and stat["BASE"] <= stat["DISABLED"] * 1.6


def stat_hit_harder_than_null(stat, null):
    """FULL's added cost over DISABLED: ``stat`` pays a multiple of ``null``."""
    return stat["FULL"] - stat["DISABLED"] > 3 * (null["FULL"] - null["DISABLED"])


class TestTable6Shape:
    """FULL costs most; each optimization recovers cost; EPTSPC lands
    near BASE."""

    @pytest.fixture(scope="class")
    def timings(self):
        columns = ["DISABLED", "BASE", "FULL", "CONCACHE", "LAZYCON", "EPTSPC"]
        suites = {column: LmbenchSuite(column, rule_count=400) for column in columns}
        out = {column: {} for column in columns}
        # Best-of-3: the shape assertions compare medians-of-means,
        # and a single noisy round under full-suite load can flip
        # close comparisons.  The repeats are interleaved: each one
        # times every column, rotating which goes first, so a shift in
        # host speed lands on every column instead of only the one
        # that happened to be running.
        for r in range(3):
            for k in range(len(columns)):
                column = columns[(r + k) % len(columns)]
                suite = suites[column]
                for op, fn in (("stat", suite.op_stat), ("null", suite.op_null)):
                    sample = time_operation(fn, iterations=300, warmup=30)
                    out[column][op] = min(sample, out[column].get(op, sample))
        return out

    def test_full_is_worst_for_stat(self, timings):
        stat = {c: t["stat"] for c, t in timings.items()}
        assert stat["FULL"] > stat["DISABLED"] * 1.3
        assert stat["FULL"] >= max(stat["LAZYCON"], stat["EPTSPC"])

    @pytest.fixture(scope="class")
    def stat_work(self):
        """Engine counters per ``stat`` call, per column, after one
        warm-up call; counted, so independent of host speed."""
        out = {}
        for column in ("FULL", "CONCACHE", "LAZYCON", "EPTSPC"):
            suite = LmbenchSuite(column, rule_count=400)
            suite.op_stat()
            stats = suite.firewall.stats
            before = stats.rules_evaluated, stats.context_cost
            for _ in range(10):
                suite.op_stat()
            out[column] = {
                "rules_evaluated": (stats.rules_evaluated - before[0]) / 10,
                "context_cost": (stats.context_cost - before[1]) / 10,
            }
        return out

    def test_full_is_worst_for_stat_counted(self, stat_work):
        """Deterministic companion of :meth:`test_full_is_worst_for_stat`:
        the same ordering on the work the engine counts.  The context
        cache alone already keeps FULL's context cost above LAZYCON's,
        so each context optimization must also lower it strictly —
        CONCACHE's cache, then LAZYCON's lazy retrieval."""
        for counter in ("rules_evaluated", "context_cost"):
            work = {c: w[counter] for c, w in stat_work.items()}
            assert work["FULL"] >= max(work["LAZYCON"], work["EPTSPC"])
        cost = {c: w["context_cost"] for c, w in stat_work.items()}
        assert cost["FULL"] > cost["CONCACHE"] > cost["LAZYCON"]

    def test_optimizations_recover_cost(self, timings):
        stat = {c: t["stat"] for c, t in timings.items()}
        null = {c: t["null"] for c, t in timings.items()}
        # Entrypoint chains are the big win on resource syscalls.
        assert stat["EPTSPC"] < stat["FULL"] * 0.8
        # Lazy context retrieval shows on rows where collection (not
        # rule scanning) dominates — the null syscall.
        assert null["LAZYCON"] < null["FULL"] * 0.8

    def test_base_is_cheap(self, timings):
        stat = {c: t["stat"] for c, t in timings.items()}
        assert stat["BASE"] < stat["FULL"]
        assert stat["BASE"] <= stat["DISABLED"] * 1.6

    def test_stat_hit_harder_than_null(self, timings):
        """Resource-bound syscalls pay more than null syscalls (paper:
        stat +110% vs null +8% in FULL).  Our simulated null syscall's
        baseline is a single Python call (~1µs), which inflates relative
        overheads, so the claim is asserted on *absolute* added cost:
        stat mediates several resource accesses per call and must pay a
        multiple of null's single hook."""
        added = {
            op: timings["FULL"][op] - timings["DISABLED"][op]
            for op in ("stat", "null")
        }
        assert added["stat"] > 3 * added["null"]

    @pytest.fixture(scope="class")
    def bytecodes(self):
        """Bytecodes per ``stat`` and ``null`` call, per column, split
        into the two ``{column: n}`` maps."""
        counted = {
            column: _counted_column(column)
            for column in ("DISABLED", "BASE", "FULL", "CONCACHE", "LAZYCON", "EPTSPC")
        }
        return tuple({c: w[op] for c, w in counted.items()} for op in ("stat", "null"))

    def test_optimizations_recover_cost_counted(self, bytecodes):
        """Deterministic companion of :meth:`test_optimizations_recover_cost`."""
        assert recovers_cost(*bytecodes)

    def test_base_is_cheap_counted(self, bytecodes):
        """Deterministic companion of :meth:`test_base_is_cheap`."""
        assert base_is_cheap(bytecodes[0])

    def test_stat_hit_harder_than_null_counted(self, bytecodes):
        """Deterministic companion of :meth:`test_stat_hit_harder_than_null`."""
        assert stat_hit_harder_than_null(*bytecodes)

    def test_counted_companions_fail_on_broken_rungs(self, bytecodes, monkeypatch):
        """Each counted companion fails when one rung is broken:

        - EPTSPC with ``entrypoint_chains`` off scans every rule of
          ``stat``'s hooks again, and LAZYCON with ``lazy_context`` off
          collects ``null``'s fields eagerly again;
        - BASE on the unoptimized engine (``EngineConfig.preset("BASE")``)
          does eager per-hook work even without rules;
        - FULL with ``enabled=False`` mediates nothing, so neither
          syscall pays anything over DISABLED.
        """
        stat, null = (dict(m) for m in bytecodes)
        for column, broken in (
            ("EPTSPC", EngineConfig(entrypoint_chains=False)),
            ("LAZYCON", EngineConfig(lazy_context=False, entrypoint_chains=False)),
        ):
            counted = _counted_column("broken-" + column, monkeypatch, broken)
            assert not recovers_cost(
                dict(stat, **{column: counted["stat"]}), dict(null, **{column: counted["null"]})
            ), column
        counted = _counted_column("broken-BASE", monkeypatch, EngineConfig.preset("BASE"), False)
        assert not base_is_cheap(dict(stat, BASE=counted["stat"]))
        counted = _counted_column("broken-FULL", monkeypatch, EngineConfig.disabled())
        assert not stat_hit_harder_than_null(
            dict(stat, FULL=counted["stat"]), dict(null, FULL=counted["null"])
        )


class TestFigure4Shape:
    def test_safe_open_grows_with_path_length(self):
        counts = syscall_counts(path_lengths=(1, 4, 7))
        deltas = [counts["safe_open"][n] for n in (1, 4, 7)]
        assert deltas[2] - deltas[1] == deltas[1] - deltas[0]  # linear
        assert counts["safe_open"][7] >= 4 * 7  # >=4 syscalls/component

    def test_safe_open_pf_is_single_syscall(self):
        counts = syscall_counts(path_lengths=(7,))
        assert counts["safe_open_PF"][7] == 1


class TestSecurityClaims:
    def test_all_nine_exploits_blocked(self):
        from repro.attacks.exploits import run_security_evaluation

        rows = run_security_evaluation()
        assert len(rows) == 9
        assert all(r["succeeds_unprotected"] for r in rows)
        assert all(r["blocked_protected"] for r in rows)
        assert all(r["benign_ok"] for r in rows)

    def test_full_rulebase_blocks_exploits_too(self):
        """The deployed configuration (PF Full) blocks the attacks the
        per-scenario minimal rules block."""
        from repro.attacks.exploits import EXPLOITS
        from repro.rulesets.generated import generate_full_rulebase

        scenario = EXPLOITS["E1"]()
        scenario.build(with_firewall=False)
        firewall = ProcessFirewall()
        scenario.kernel.attach_firewall(firewall)
        firewall.install_all(generate_full_rulebase(size=100))
        assert not scenario.run(with_firewall=True).succeeded


class TestZeroFalsePositiveThreshold:
    def test_1149_claim(self):
        from repro.rulegen.classify import zero_fp_threshold
        from repro.rulegen.synth import synthesize_trace

        assert zero_fp_threshold(synthesize_trace()) == 1149


class TestSystemWideCoverage:
    def test_one_rule_covers_many_programs(self):
        """R1 protects every process that uses the dynamic linker —
        the 'single mechanism, many attacks' claim."""
        from repro.programs.ld_so import DynamicLinker
        from repro.rulesets.default import RULES_R1_R12

        world = build_world()
        pf = ProcessFirewall()
        world.attach_firewall(pf)
        pf.install(RULES_R1_R12[0])
        world.add_file("/tmp/evil.so", b"\x7fELF", uid=1000, mode=0o755)
        for comm in ("icecat", "apache2", "java"):
            victim = world.spawn(comm, uid=0, label="unconfined_t",
                                 binary_path="/usr/bin/" + comm,
                                 env={"LD_LIBRARY_PATH": "/tmp"})
            linker = DynamicLinker(world, victim)
            with pytest.raises(errors.PFDenied):
                linker.load_library("evil.so")
