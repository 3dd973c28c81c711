"""Workload harness smoke tests (small iteration counts)."""

import pytest

from repro.firewall.engine import PRESET_ALIASES
from repro.workloads.lmbench import LMBENCH_OPS, LmbenchSuite, TABLE6_COLUMNS, time_operation
from repro.workloads.macro import MacrobenchSuite, TABLE7_CONFIGS
from repro.workloads.openbench import FIGURE4_PATH_LENGTHS, syscall_counts, time_variant
from repro.workloads.webbench import apache_requests_per_second


class TestLmbench:
    # Retired spellings (PRESET_ALIASES) stay accepted as columns.
    @pytest.mark.parametrize("column", sorted(set(TABLE6_COLUMNS) | set(PRESET_ALIASES)))
    def test_all_ops_run_under_every_column(self, column):
        suite = LmbenchSuite(column, rule_count=60)
        for name, fn in suite.operations():
            fn()  # must not raise

    def test_nine_operations(self):
        assert len(LMBENCH_OPS) == 9
        assert LMBENCH_OPS[0] == "null"

    def test_time_operation_returns_microseconds(self):
        suite = LmbenchSuite("DISABLED")
        us = time_operation(suite.op_null, iterations=50, warmup=5)
        assert us > 0

    def test_full_base_invokes_firewall(self):
        suite = LmbenchSuite("EPTSPC", rule_count=60)
        suite.op_stat()
        assert suite.firewall.stats.invocations > 0

    def test_disabled_column_never_invokes_engine(self):
        suite = LmbenchSuite("DISABLED")
        suite.op_stat()
        assert suite.firewall.stats.invocations == 0


class TestMacro:
    @pytest.mark.parametrize("config", TABLE7_CONFIGS)
    def test_workloads_run(self, config):
        suite = MacrobenchSuite(config)
        assert suite.apache_build(files=5) > 0
        assert suite.boot(services=4) > 0
        latency, throughput = suite.web(requests=10)
        assert latency > 0 and throughput > 0

    def test_unknown_config_rejected(self):
        with pytest.raises(ValueError):
            MacrobenchSuite("PF Imaginary")

    def test_pf_full_counts_rules(self):
        suite = MacrobenchSuite("PF Full")
        assert suite.kernel.firewall.rules.rule_count() > 1000


class TestFigure4:
    def test_syscall_counts_shape(self):
        counts = syscall_counts(path_lengths=(1, 4, 7))
        # Plain open is always one syscall; safe_open grows linearly.
        assert all(v == 1 for v in counts["open"].values())
        assert counts["safe_open"][7] > counts["safe_open"][4] > counts["safe_open"][1]
        assert all(v == 1 for v in counts["safe_open_PF"].values())

    def test_time_variant_runs(self):
        assert time_variant("open", 4, iterations=20) > 0
        assert time_variant("safe_open_PF", 4, iterations=20) > 0


class TestFigure5:
    @pytest.mark.parametrize("mode", ["program", "pf"])
    def test_modes_serve(self, mode):
        rps = apache_requests_per_second(mode, depth=3, clients=2, requests=20)
        assert rps > 0
