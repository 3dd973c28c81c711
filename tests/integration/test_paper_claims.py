"""Headline shape claims of the evaluation, asserted end-to-end.

These are the qualitative results a reader takes away from §6; each
test states the claim it checks.  Absolute numbers are Python-speed,
so every assertion is about *ordering and direction*, never magnitude.
"""

import pytest

from repro import errors
from repro.firewall.engine import EngineConfig, ProcessFirewall
from repro.rulesets.generated import install_full_rulebase
from repro.workloads.lmbench import LmbenchSuite, time_operation
from repro.workloads.openbench import syscall_counts
from repro.world import build_world, spawn_root_shell


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
