"""The pftables rule language — including Table 5 verbatim."""

import pytest

from repro import errors
from repro.firewall import matches as mm
from repro.firewall import targets as tg
from repro.firewall.pftables import parse_rule, pftables
from repro.firewall.engine import ProcessFirewall
from repro.rulesets.default import PAPER_TABLE5_TEXTS, RULES_R1_R12
from repro.rulesets.generated import generate_full_rulebase
from repro.security.lsm import Op


class TestTable5Verbatim:
    @pytest.mark.parametrize("text", PAPER_TABLE5_TEXTS, ids=["R{}".format(i + 1) for i in range(12)])
    def test_parses(self, text):
        parsed = parse_rule(text)
        assert parsed.rule.target is not None

    def test_r1_structure(self):
        parsed = parse_rule(PAPER_TABLE5_TEXTS[0])
        kinds = [type(m) for m in parsed.rule.matches]
        assert mm.EntrypointMatch in kinds
        assert mm.SubjectMatch in kinds
        assert mm.ObjectMatch in kinds
        assert isinstance(parsed.rule.target, tg.DropTarget)
        ept = [m for m in parsed.rule.matches if isinstance(m, mm.EntrypointMatch)][0]
        assert ept.program == "/lib/ld-2.15.so"
        assert ept.offset == 0x596B

    def test_r1_object_set_negated(self):
        parsed = parse_rule(PAPER_TABLE5_TEXTS[0])
        obj = [m for m in parsed.rule.matches if isinstance(m, mm.ObjectMatch)][0]
        assert obj.spec.negated
        assert obj.spec.labels == {"lib_t", "textrel_shlib_t", "httpd_modules_t"}

    def test_r5_state_target(self):
        parsed = parse_rule(PAPER_TABLE5_TEXTS[4])
        assert isinstance(parsed.rule.target, tg.StateTarget)
        assert parsed.rule.target.key.literal == 0xBEEF
        assert parsed.rule.target.value.atom == "C_INO"

    def test_r6_state_match_nequal(self):
        parsed = parse_rule(PAPER_TABLE5_TEXTS[5])
        state = [m for m in parsed.rule.matches if isinstance(m, mm.StateMatch)][0]
        assert not state.equal
        assert state.cmp_value.atom == "C_INO"

    def test_r8_compare(self):
        parsed = parse_rule(PAPER_TABLE5_TEXTS[7])
        compare = [m for m in parsed.rule.matches if isinstance(m, mm.CompareMatch)][0]
        assert compare.v1.atom == "C_DAC_OWNER"
        assert compare.v2.atom == "C_TGT_DAC_OWNER"
        assert not compare.equal
        op = [m for m in parsed.rule.matches if isinstance(m, mm.OpMatch)][0]
        assert op.op is Op.LNK_FILE_READ  # LINK_READ alias

    def test_r9_jump_target(self):
        parsed = parse_rule(PAPER_TABLE5_TEXTS[8])
        assert isinstance(parsed.rule.target, tg.JumpTarget)
        assert parsed.rule.target.chain_name == "signal_chain"
        assert parsed.chain == "input"
        assert parsed.action == "insert"

    def test_r10_quoted_key(self):
        parsed = parse_rule(PAPER_TABLE5_TEXTS[9])
        state = [m for m in parsed.rule.matches if isinstance(m, mm.StateMatch)][0]
        assert state.key.literal == "sig"
        assert state.cmp_value.literal == 1

    def test_r12_syscallbegin_chain(self):
        parsed = parse_rule(PAPER_TABLE5_TEXTS[11])
        assert parsed.chain == "syscallbegin"
        args = [m for m in parsed.rule.matches if isinstance(m, mm.SyscallArgsMatch)][0]
        assert args.arg_index == 0
        assert args.value.literal == "NR_sigreturn"


class TestParsing:
    def test_default_chain_is_input(self):
        assert parse_rule("pftables -o FILE_OPEN -j DROP").chain == "input"

    def test_create_slash_input_shorthand(self):
        assert parse_rule("pftables -I create/input -o FILE_CREATE -j DROP").chain == "create"

    def test_table_selection(self):
        assert parse_rule("pftables -t mangle -o FILE_OPEN -j DROP").table == "mangle"

    def test_insert_position(self):
        parsed = parse_rule("pftables -I input 3 -o FILE_OPEN -j DROP")
        assert parsed.position == 2  # 1-based on the wire

    def test_i_without_p_rejected(self):
        with pytest.raises(errors.EINVAL):
            parse_rule("pftables -i 0x100 -o FILE_OPEN -j DROP")

    def test_missing_target_rejected(self):
        with pytest.raises(errors.EINVAL):
            parse_rule("pftables -o FILE_OPEN")

    def test_unknown_flag_rejected(self):
        with pytest.raises(errors.EINVAL):
            parse_rule("pftables -z wat -j DROP")

    def test_unknown_operation_rejected(self):
        with pytest.raises(errors.EINVAL, match="unknown operation 'NOT_AN_OP'"):
            parse_rule("pftables -A input -o NOT_AN_OP -j DROP")

    def test_operation_aliases_and_case(self):
        assert parse_rule("pftables -o link_read -j DROP").rule.op is Op.LNK_FILE_READ
        assert parse_rule("pftables -o SOCKET_CONNECT -j DROP").rule.op is (
            Op.UNIX_STREAM_SOCKET_CONNECT
        )

    def test_unknown_match_module_rejected(self):
        with pytest.raises(errors.EINVAL):
            parse_rule("pftables -m BOGUS -j DROP")

    def test_state_match_requires_key_and_cmp(self):
        with pytest.raises(errors.EINVAL):
            parse_rule("pftables -m STATE --key x -j DROP")

    def test_adversary_match_options(self):
        parsed = parse_rule("pftables -m ADVERSARY --writable --not-readable -j DROP")
        adv = parsed.rule.matches[0]
        assert adv.writable is True and adv.readable is False

    def test_b_flag_aliases_program(self):
        parsed = parse_rule("pftables -i 0x10 -b /bin/x -o FILE_OPEN -j DROP")
        ept = [m for m in parsed.rule.matches if isinstance(m, mm.EntrypointMatch)][0]
        assert ept.program == "/bin/x"

    def test_log_target_prefix(self):
        parsed = parse_rule("pftables -o FILE_OPEN -j LOG --prefix audit1")
        assert parsed.rule.target.prefix == "audit1"

    def test_empty_rejected(self):
        with pytest.raises(errors.EINVAL):
            parse_rule("   ")

    @pytest.mark.parametrize("text", [
        "pftables -o",
        "pftables -A",
        "pftables -o FILE_OPEN -j",
        "pftables -m STATE --key",
        "pftables -m SYSCALL_ARGS --arg 0 --equal",
        "pftables -o FILE_OPEN -j STATE --key k --value",
    ])
    def test_truncated_rule_rejected(self, text):
        with pytest.raises(errors.EINVAL, match="unexpected end of pftables rule"):
            parse_rule(text)


class TestInstallation:
    def test_install_and_count(self):
        firewall = ProcessFirewall()
        firewall.install_all(RULES_R1_R12)
        assert firewall.rules.rule_count() == 12

    def test_insert_goes_first(self):
        firewall = ProcessFirewall()
        firewall.install("pftables -A input -o FILE_OPEN -j DROP")
        firewall.install("pftables -I input -o FILE_READ -j DROP")
        chain = firewall.rules.table("filter").chain("input")
        assert isinstance(chain.rules[0].matches[0], mm.OpMatch)
        assert chain.rules[0].matches[0].op is Op.FILE_READ

    def test_delete_by_text(self):
        firewall = ProcessFirewall()
        text = "pftables -A input -o FILE_OPEN -j DROP"
        firewall.install(text)
        pftables(firewall, text.replace("-A", "-D"))
        assert firewall.rules.rule_count() == 0

    def test_delete_missing_raises(self):
        firewall = ProcessFirewall()
        with pytest.raises(errors.EINVAL):
            pftables(firewall, "pftables -D input -o FILE_OPEN -j DROP")

    def test_user_chain_autocreated(self):
        firewall = ProcessFirewall()
        firewall.install("pftables -A mychain -o FILE_OPEN -j DROP")
        assert "mychain" in firewall.rules.table("filter").chains

    def test_full_rulebase_generates_and_installs(self):
        texts = generate_full_rulebase()
        assert len(texts) == 1218
        firewall = ProcessFirewall()
        firewall.install_all(texts)
        assert firewall.rules.rule_count() == 1218

    def test_full_rulebase_deterministic(self):
        assert generate_full_rulebase(seed=3) == generate_full_rulebase(seed=3)

    def test_render_reparses(self):
        for text in RULES_R1_R12:
            rendered = parse_rule(text).rule.render()
            reparsed = parse_rule("pftables -A input " + rendered)
            assert reparsed.rule.render() == rendered
