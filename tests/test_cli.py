"""The pfctl command-line tool."""

import pytest

from repro.cli import main
from repro.rulesets.default import RULES_R1_R12


@pytest.fixture
def rules_file(tmp_path):
    path = tmp_path / "rules.pf"
    path.write_text(
        "# distributor rules\n" + "\n".join(RULES_R1_R12) + "\n"
    )
    return str(path)


@pytest.fixture
def e_rules_file(tmp_path):
    """A ruleset that should block all nine exploits."""
    from repro.attacks.exploits import EXPLOITS

    texts = []
    for eid in sorted(EXPLOITS):
        for text in EXPLOITS[eid]().rules():
            if text not in texts:
                texts.append(text)
    path = tmp_path / "full.pf"
    path.write_text("\n".join(texts) + "\n")
    return str(path)


class TestParse:
    def test_valid_file(self, rules_file, capsys):
        assert main(["parse", rules_file]) == 0
        assert "OK" in capsys.readouterr().out

    def test_invalid_line_fails_with_location(self, tmp_path, capsys):
        path = tmp_path / "bad.pf"
        path.write_text("pftables -o FILE_OPEN -j DROP\npftables -z nope -j DROP\n")
        assert main(["parse", str(path)]) == 1
        assert ":2:" in capsys.readouterr().out

    def test_keep_going_reports_all(self, tmp_path, capsys):
        path = tmp_path / "bad.pf"
        path.write_text("pftables -z a -j DROP\npftables -z b -j DROP\n")
        assert main(["parse", str(path), "--keep-going"]) == 1
        out = capsys.readouterr().out
        assert ":1:" in out and ":2:" in out

    def test_missing_file(self, capsys):
        assert main(["parse", "/no/such/file.pf"]) == 1


class TestFmtListSave:
    def test_fmt_output_reparses(self, rules_file, capsys, tmp_path):
        assert main(["fmt", rules_file]) == 0
        formatted = capsys.readouterr().out
        again = tmp_path / "fmt.pf"
        again.write_text(formatted)
        assert main(["parse", str(again)]) == 0

    def test_list_shows_chains(self, rules_file, capsys):
        assert main(["list", rules_file]) == 0
        out = capsys.readouterr().out
        assert "Chain input" in out
        assert "Chain signal_chain" in out

    def test_list_verbose_shows_hits(self, rules_file, capsys):
        assert main(["list", rules_file, "-v"]) == 0
        assert "hits" in capsys.readouterr().out

    def test_save_roundtrip(self, rules_file, capsys):
        from repro.firewall.engine import ProcessFirewall
        from repro.firewall.persist import load_rules

        assert main(["save", rules_file]) == 0
        saved = capsys.readouterr().out
        firewall = ProcessFirewall()
        assert load_rules(firewall, saved) == 12


class TestAudit:
    def test_full_ruleset_blocks_all_nine(self, e_rules_file, capsys):
        assert main(["audit", e_rules_file]) == 0
        out = capsys.readouterr().out
        assert "9/9 exploits blocked" in out

    def test_weak_ruleset_flagged(self, tmp_path, capsys):
        path = tmp_path / "weak.pf"
        path.write_text(RULES_R1_R12[0] + "\n")  # only R1
        assert main(["audit", str(path)]) == 2
        out = capsys.readouterr().out
        assert "not blocked" in out
        assert "E1" in out


@pytest.fixture
def shadow_rules_file(tmp_path):
    """Rules that drop (and first log) any open of shadow_t files."""
    path = tmp_path / "shadow.pf"
    path.write_text(
        "pftables -A input -o FILE_OPEN -d shadow_t -j LOG --prefix shadow\n"
        "pftables -A input -o FILE_OPEN -d shadow_t -j DROP\n"
    )
    return str(path)


class TestCounters:
    def test_listing_shows_live_counters(self, shadow_rules_file, capsys):
        assert main(["counters", shadow_rules_file]) == 0
        out = capsys.readouterr().out
        # The -L -v shape with metrics upgrades: traversals on the
        # chain header, hit and drop columns on the rules.
        assert "Chain input" in out and "traversals]" in out
        assert "hits]" in out and "drops]" in out
        assert "mediations:" in out and "dropped: 1" in out

    def test_json_export(self, shadow_rules_file, capsys):
        import json

        assert main(["counters", shadow_rules_file, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        names = {row["name"] for row in data["counters"]}
        assert "pf_mediations_total" in names
        assert "pf_rule_drops_total" in names
        assert data["phases"]  # phase timers recorded

    def test_prometheus_export_round_trips(self, shadow_rules_file, capsys):
        from repro.obs import registry_from_prometheus

        assert main(["counters", shadow_rules_file, "--prometheus"]) == 0
        text = capsys.readouterr().out
        rebuilt = registry_from_prometheus(text)
        assert rebuilt.to_prometheus() == text
        assert rebuilt.value("pf_verdicts_total", {"verdict": "drop"}) == 1


class TestExplain:
    def test_explain_open_names_dropping_rule(self, shadow_rules_file, capsys):
        assert main(["explain", shadow_rules_file, "--open", "/etc/shadow"]) == 0
        out = capsys.readouterr().out
        assert "DROPPED by: pftables -A input -o FILE_OPEN -d shadow_t -j DROP" in out
        assert "chain filter/input" in out
        assert "OBJECT_LABEL=collected" in out

    def test_explain_open_allowed_path(self, shadow_rules_file, capsys):
        assert main(["explain", shadow_rules_file, "--open", "/etc/passwd"]) == 0
        out = capsys.readouterr().out
        assert "allowed (verdict: ALLOW)" in out
        assert "DROPPED by" not in out

    def test_explain_exploit_end_to_end(self, e_rules_file, capsys):
        assert main(["explain", e_rules_file, "--exploit", "E3"]) == 0
        out = capsys.readouterr().out
        assert "E3" in out and "blocked" in out
        assert "DROPPED by:" in out

    def test_explain_unknown_exploit(self, e_rules_file, capsys):
        assert main(["explain", e_rules_file, "--exploit", "E42"]) == 1
        assert "unknown exploit" in capsys.readouterr().err


class TestSuggest:
    def test_suggest_from_json_trace(self, tmp_path, capsys):
        from repro.firewall.engine import ProcessFirewall
        from repro.rulegen.trace import dump_log_json
        from repro.world import build_world

        world = build_world()
        pf = ProcessFirewall()
        world.attach_firewall(pf)
        pf.install("pftables -A input -o FILE_OPEN -j LOG")
        proc = world.spawn("svc", uid=0, label="unconfined_t", binary_path="/bin/svc")
        proc.call(proc.binary, 0x100)
        for _ in range(12):
            fd = world.sys.open(proc, "/etc/passwd")
            world.sys.close(proc, fd)
        log_path = tmp_path / "trace.json"
        log_path.write_text(dump_log_json(pf))

        assert main(["suggest", str(log_path), "--threshold", "10"]) == 0
        out = capsys.readouterr().out
        assert "/bin/svc" in out and "0x100" in out

        # The printed rules form a valid rules file.
        rules_path = tmp_path / "suggested.pf"
        rules_path.write_text(out)
        assert main(["parse", str(rules_path)]) == 0

    def test_suggest_empty_trace(self, tmp_path, capsys):
        log_path = tmp_path / "trace.json"
        log_path.write_text("[]")
        assert main(["suggest", str(log_path)]) == 0
        assert "no pure entrypoints" in capsys.readouterr().err


class TestEngineFlag:
    """``--engine`` is checked against the preset table at parse time."""

    @pytest.mark.parametrize("verb,engine", [
        ("serve", "TABLED"),
        ("bench-service", "bogus"),
    ])
    def test_unknown_preset_is_a_usage_error(self, verb, engine, capsys):
        with pytest.raises(SystemExit) as exc:
            main([verb, "--engine", engine])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "usage: pfctl {}".format(verb) in err
        assert "unknown engine preset {!r}".format(engine) in err
        assert "EPTSPC" in err and "JITTED" in err

    def test_preset_spelling_is_kept(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "--engine", "compiled"])
        assert args.engine == "compiled"
        assert build_parser().parse_args(["serve"]).engine == "JITTED"
