"""Rule suggestion from LOG records and vulnerability reports."""

import pytest

from repro.firewall.engine import ProcessFirewall
from repro.firewall.pftables import parse_rule
from repro.rulegen.suggest import VulnerabilityReport, rule_from_vulnerability, suggest_rules_from_log
from repro.world import build_world, spawn_root_shell


class TestLogDrivenSuggestion:
    def _trace_world(self):
        world = build_world()
        pf = ProcessFirewall()
        world.attach_firewall(pf)
        pf.install("pftables -A input -o FILE_OPEN -j LOG")
        return world, pf

    def test_suggests_rule_for_hot_pure_entrypoint(self):
        world, pf = self._trace_world()
        proc = world.spawn("svc", uid=0, label="unconfined_t", binary_path="/bin/svc")
        proc.call(proc.binary, 0x100)
        for _ in range(10):
            fd = world.sys.open(proc, "/etc/passwd")
            world.sys.close(proc, fd)
        rules = suggest_rules_from_log(pf, threshold=10)
        assert len(rules) == 1
        assert "/bin/svc" in rules[0] and "0x100" in rules[0]
        assert parse_rule(rules[0])

    def test_cold_entrypoints_skipped(self):
        world, pf = self._trace_world()
        proc = world.spawn("svc", uid=0, label="unconfined_t", binary_path="/bin/svc")
        proc.call(proc.binary, 0x100)
        world.sys.open(proc, "/etc/passwd")
        assert suggest_rules_from_log(pf, threshold=10) == []

    def test_suggested_rule_blocks_future_attack(self):
        """The full §6.3 loop: trace benign behaviour, generate, install,
        and the adversarial variant is blocked."""
        world, pf = self._trace_world()
        proc = world.spawn("svc", uid=0, label="unconfined_t", binary_path="/bin/svc")
        proc.call(proc.binary, 0x100)
        for _ in range(10):
            fd = world.sys.open(proc, "/etc/passwd")
            world.sys.close(proc, fd)
        rules = suggest_rules_from_log(pf, threshold=10)
        pf.flush()
        pf.install_all(rules)
        # Benign access still fine:
        fd = world.sys.open(proc, "/etc/passwd")
        world.sys.close(proc, fd)
        # Adversary-redirected access at the same entrypoint: dropped.
        world.add_file("/tmp/evil", b"x", uid=1000, mode=0o666)
        from repro import errors

        with pytest.raises(errors.PFDenied):
            world.sys.open(proc, "/tmp/evil")


class TestVulnerabilityReports:
    def test_search_path_report_generalizes_to_syshigh(self):
        report = VulnerabilityReport("untrusted_search_path", "/usr/bin/java", 0x5D7E)
        rules = rule_from_vulnerability(report)
        assert len(rules) == 1
        assert "~SYSHIGH" in rules[0] or "~{SYSHIGH}" in rules[0]
        assert parse_rule(rules[0])

    def test_toctou_report_yields_pair(self):
        report = VulnerabilityReport(
            "toctou_race", "/bin/dbus-daemon", 0x3C786, op="SOCKET_SETATTR",
            check_entrypoint=0x3C750, check_op="SOCKET_BIND",
        )
        rules = rule_from_vulnerability(report)
        assert len(rules) == 2
        assert "STATE --set" in rules[0] or "--set" in rules[0]
        for text in rules:
            assert parse_rule(text)

    def test_toctou_without_check_rejected(self):
        report = VulnerabilityReport("toctou_race", "/bin/x", 0x1)
        with pytest.raises(ValueError):
            rule_from_vulnerability(report)


class TestScriptRuleSuggestion:
    def test_suggests_and_enforces_script_rules(self):
        from repro import errors
        from repro.programs.php import PhpInterpreter
        from repro.rulegen.suggest import suggest_script_rules
        from repro.world import build_world, spawn_adversary

        world = build_world()
        pf = ProcessFirewall()
        world.attach_firewall(pf)
        pf.install("pftables -A input -o FILE_OPEN -j LOG")

        world.mkdirs("/var/www/html/app", label="httpd_user_script_exec_t")
        world.add_file("/var/www/html/app/page.php", b"<?php ok(); ?>")
        proc = world.spawn("php5", uid=0, label="httpd_t", binary_path="/usr/bin/php5")
        php = PhpInterpreter(world, proc)
        for _ in range(25):
            php.run_component("/var/www/html/app", "", "page",
                              controller="/var/www/html/app/controller.php")

        rules = suggest_script_rules(pf, threshold=20)
        assert len(rules) == 1
        assert "--file /var/www/html/app/controller.php" in rules[0]
        assert "--line 17" in rules[0]

        pf.flush()
        pf.install_all(rules)
        # Traced behaviour still fine:
        php.run_component("/var/www/html/app", "", "page",
                          controller="/var/www/html/app/controller.php")
        # Redirected include from the same script call site: dropped.
        world.add_file("/tmp/evil", b"x", uid=1000, mode=0o666)
        with pytest.raises(errors.PFDenied):
            php.run_component("/var/www/html/app", "", "../../../../../tmp/evil\x00",
                              controller="/var/www/html/app/controller.php")

    def test_low_integrity_scripts_not_ruled(self):
        from repro.programs.php import PhpInterpreter
        from repro.rulegen.suggest import suggest_script_rules
        from repro.world import build_world

        world = build_world()
        pf = ProcessFirewall()
        world.attach_firewall(pf)
        pf.install("pftables -A input -o FILE_OPEN -j LOG")
        world.add_file("/tmp/low.php", b"x", uid=1000, mode=0o666)
        proc = world.spawn("php5", uid=0, label="httpd_t", binary_path="/usr/bin/php5")
        php = PhpInterpreter(world, proc)
        for _ in range(25):
            with php.script_frame("/var/www/html/mixed.php", 5, language="php"):
                php.include("/tmp/low.php")
        assert suggest_script_rules(pf, threshold=20) == []

    def test_native_logs_have_no_script_field(self):
        from repro.world import build_world, spawn_root_shell

        world = build_world()
        pf = ProcessFirewall()
        world.attach_firewall(pf)
        pf.install("pftables -A input -o FILE_OPEN -j LOG")
        root = spawn_root_shell(world)
        world.sys.open(root, "/etc/passwd")
        assert "script" not in pf.audit.records(kind="log")[-1]
