"""Rule, chain, and rule-base structure."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import errors
from repro.api import Session
from repro.attacks.exploits import EXPLOITS
from repro.firewall import matches as mm
from repro.firewall import targets as tg
from repro.firewall.context import ContextField
from repro.firewall.engine import EngineConfig, ProcessFirewall
from repro.firewall.persist import save_rules
from repro.firewall.pftables import parse_rule
from repro.firewall.rule import TABLES, Chain, Rule, RuleBase, Table
from repro.rulesets.generated import generate_full_rulebase, install_full_rulebase
from repro.security.lsm import Op


def rule(text):
    return parse_rule(text).rule


class TestRule:
    def test_required_fields_union(self):
        r = rule("pftables -s SYSHIGH -d tmp_t -i 0x10 -p /bin/x -o FILE_OPEN -j DROP")
        fields = r.required_fields
        assert fields & ContextField.SUBJECT_LABEL
        assert fields & ContextField.OBJECT_LABEL
        assert fields & ContextField.ENTRYPOINT

    def test_entrypoint_key(self):
        r = rule("pftables -i 0x10 -p /bin/x -o FILE_OPEN -j DROP")
        assert r.entrypoint_key() == ("/bin/x", 0x10)
        assert rule("pftables -o FILE_OPEN -j DROP").entrypoint_key() is None

    def test_op_filter(self):
        assert rule("pftables -o FILE_OPEN -j DROP").op_filter() is Op.FILE_OPEN
        assert rule("pftables -d tmp_t -j DROP").op_filter() is None

    def test_render_contains_all_parts(self):
        r = rule("pftables -o FILE_OPEN -d tmp_t -j DROP")
        rendered = r.render()
        assert "-o FILE_OPEN" in rendered and "-d tmp_t" in rendered and "-j DROP" in rendered


class TestChain:
    def test_reindex_preamble_vs_buckets(self):
        chain = Chain("input")
        plain = rule("pftables -o FILE_OPEN -j DROP")
        pinned = rule("pftables -i 0x10 -p /bin/x -o FILE_OPEN -j DROP")
        chain.append(plain)
        chain.append(pinned)
        assert chain.preamble == [plain]
        assert chain.by_entrypoint[("/bin/x", 0x10)] == [pinned]

    def test_relevant_ops_collected(self):
        chain = Chain("input")
        chain.append(rule("pftables -o FILE_OPEN -j DROP"))
        chain.append(rule("pftables -o FILE_READ -j DROP"))
        assert chain.relevant_ops == {Op.FILE_OPEN, Op.FILE_READ}

    def test_rule_without_op_wildcards_relevance(self):
        chain = Chain("input")
        chain.append(rule("pftables -d tmp_t -j DROP"))
        assert chain.relevant_ops is None

    def test_insert_positions(self):
        chain = Chain("input")
        first = rule("pftables -o FILE_OPEN -j DROP")
        second = rule("pftables -o FILE_READ -j DROP")
        chain.append(first)
        chain.insert(second, 0)
        assert chain.rules == [second, first]

    def test_delete_reindexes(self):
        chain = Chain("input")
        r = rule("pftables -i 0x10 -p /bin/x -o FILE_OPEN -j DROP")
        chain.append(r)
        chain.delete(r)
        assert chain.by_entrypoint == {}

    def test_flush(self):
        chain = Chain("input")
        chain.append(rule("pftables -o FILE_OPEN -j DROP"))
        chain.flush()
        assert len(chain) == 0


class TestReindexTransitions:
    """Delete/flush/wildcard transitions must keep every derived index
    (``relevant_ops``, ``ept_ops``, ``by_entrypoint``, the compiled
    dispatch memo) consistent with ``rules``."""

    def test_delete_restores_specific_relevant_ops(self):
        chain = Chain("input")
        specific = rule("pftables -o FILE_OPEN -j DROP")
        wildcard = rule("pftables -d tmp_t -j DROP")
        chain.append(specific)
        chain.append(wildcard)
        assert chain.relevant_ops is None
        chain.delete(wildcard)
        assert chain.relevant_ops == {Op.FILE_OPEN}

    def test_delete_last_bucket_rule_clears_key_and_ept_ops(self):
        chain = Chain("input")
        pinned = rule("pftables -i 0x10 -p /bin/x -o FILE_OPEN -j DROP")
        chain.append(pinned)
        assert chain.ept_ops == {Op.FILE_OPEN}
        chain.delete(pinned)
        assert chain.by_entrypoint == {}
        assert chain.ept_ops == set()
        assert chain.relevant_ops == set()

    def test_wildcard_bucket_rule_wildcards_ept_ops(self):
        chain = Chain("input")
        chain.append(rule("pftables -i 0x10 -p /bin/x -d tmp_t -j DROP"))
        assert chain.ept_ops is None
        assert chain.relevant_ops is None

    def test_ept_ops_narrow_again_after_wildcard_delete(self):
        chain = Chain("input")
        narrow = rule("pftables -i 0x10 -p /bin/x -o FILE_OPEN -j DROP")
        wide = rule("pftables -i 0x20 -p /bin/x -d tmp_t -j DROP")
        chain.append(narrow)
        chain.append(wide)
        assert chain.ept_ops is None
        chain.delete(wide)
        assert chain.ept_ops == {Op.FILE_OPEN}
        assert list(chain.by_entrypoint) == [("/bin/x", 0x10)]

    def test_flush_resets_all_indexes(self):
        chain = Chain("input")
        chain.append(rule("pftables -o FILE_OPEN -j DROP"))
        chain.append(rule("pftables -i 0x10 -p /bin/x -j DROP"))
        chain.dispatch(Op.FILE_OPEN)  # populate the memo
        chain.flush()
        assert chain.preamble == []
        assert chain.by_entrypoint == {}
        assert chain.relevant_ops == set()
        assert chain.ept_ops == set()
        assert chain.preamble_by_op == {}
        assert chain._compiled == {}

    def test_preamble_ops_do_not_leak_into_ept_ops(self):
        chain = Chain("input")
        chain.append(rule("pftables -o FILE_READ -j DROP"))
        chain.append(rule("pftables -i 0x10 -p /bin/x -o FILE_OPEN -j DROP"))
        assert chain.ept_ops == {Op.FILE_OPEN}
        assert chain.relevant_ops == {Op.FILE_READ, Op.FILE_OPEN}


class TestCompiledDispatch:
    def test_dispatch_filters_and_orders(self):
        chain = Chain("input")
        open_rule = rule("pftables -o FILE_OPEN -j DROP")
        any_rule = rule("pftables -d tmp_t -j DROP")
        read_rule = rule("pftables -o FILE_READ -j DROP")
        pinned = rule("pftables -i 0x10 -p /bin/x -o FILE_OPEN -j DROP")
        for r in (open_rule, any_rule, read_rule, pinned):
            chain.append(r)
        assert chain.dispatch(Op.FILE_OPEN) == (open_rule, any_rule)
        assert chain.dispatch(Op.FILE_READ) == (any_rule, read_rule)
        assert chain.dispatch(Op.FILE_OPEN, ("/bin/x", 0x10)) == (
            open_rule,
            any_rule,
            pinned,
        )

    def test_dispatch_memo_invalidated_by_mutation(self):
        chain = Chain("input")
        first = rule("pftables -o FILE_OPEN -j DROP")
        chain.append(first)
        assert chain.dispatch(Op.FILE_OPEN) == (first,)
        second = rule("pftables -o FILE_OPEN -d tmp_t -j DROP")
        chain.append(second)
        assert chain.dispatch(Op.FILE_OPEN) == (first, second)

    def test_dispatch_honours_link_read_alias(self):
        chain = Chain("input")
        lnk = rule("pftables -o LNK_FILE_READ -j DROP")
        chain.append(lnk)
        assert chain.dispatch(Op.LINK_READ) == (lnk,)
        assert chain.dispatch(Op.FILE_OPEN) == ()

    @pytest.mark.parametrize(
        "texts",
        [
            [],
            ["pftables -o LNK_FILE_READ -j DROP"],
            ["pftables -d tmp_t -j DROP"],
            ["pftables -o FILE_OPEN -j DROP", "pftables -o LNK_FILE_READ -j DROP"],
            [
                "pftables -o FILE_OPEN -j DROP",
                "pftables -d tmp_t -j DROP",
                "pftables -o LNK_FILE_READ -j DROP",
                "pftables -i 0x10 -p /bin/x -o FILE_OPEN -j DROP",
                "pftables -o FILE_OPEN -d etc_t -j DROP",
                "pftables -s SYSHIGH -j DROP",
            ],
        ],
    )
    def test_preamble_for_equals_dispatch_for_every_op(self, texts):
        chain = Chain("input")
        for text in texts:
            chain.append(rule(text))
        # A raw LINK_READ filter (parsing normalizes the alias away).
        chain.append(Rule([mm.OpMatch(Op.LINK_READ)], tg.DropTarget()))
        for op in Op:
            assert list(chain.preamble_for(op)) == list(chain.dispatch(op)), op

    def test_rulebase_stamp_changes_on_every_mutation(self):
        base = RuleBase()
        stamps = {base.stamp}
        r = rule("pftables -o FILE_OPEN -j DROP")
        base.install("filter", "input", r)
        stamps.add(base.stamp)
        base.remove("filter", "input", r)
        stamps.add(base.stamp)
        assert len(stamps) == 3
        # Distinct instances never share a stamp, even at version 0.
        assert RuleBase().stamp != RuleBase().stamp


class TestTableAndBase:
    def test_builtin_chains_exist(self):
        table = Table("filter")
        for name in ("input", "output", "syscallbegin", "create"):
            assert table.chain(name).builtin

    def test_unknown_chain_raises_without_create(self):
        with pytest.raises(errors.EINVAL):
            Table("filter").chain("ghost")

    def test_create_user_chain(self):
        table = Table("filter")
        chain = table.chain("mine", create=True)
        assert not chain.builtin

    def test_rulebase_required_fields_recomputed(self):
        base = RuleBase()
        base.install("filter", "input", rule("pftables -s SYSHIGH -o FILE_OPEN -j DROP"))
        assert base.required_fields & ContextField.SUBJECT_LABEL
        base.install("filter", "input", rule("pftables -d tmp_t -o FILE_OPEN -j DROP"))
        assert base.required_fields & ContextField.OBJECT_LABEL

    def test_rulebase_remove(self):
        base = RuleBase()
        r = rule("pftables -s SYSHIGH -o FILE_OPEN -j DROP")
        base.install("filter", "input", r)
        base.remove("filter", "input", r)
        assert base.rule_count() == 0
        assert base.required_fields == ContextField(0)

    def test_unknown_table_raises(self):
        with pytest.raises(errors.EINVAL):
            RuleBase().table("ghost")


#: Rule shapes for the incremental-index differential: preamble rules
#: with and without ``-o`` (incl. the LINK_READ alias target), bucketed
#: rules with and without ``-o``, a field-only STATE rule, and the
#: SYSCALL_ARGS shapes the syscall index keeps or widens on.
DIFF_RULES = [
    "pftables -o FILE_OPEN -j DROP",
    "pftables -o LNK_FILE_READ -s SYSHIGH -j DROP",
    "pftables -d tmp_t -j DROP",
    "pftables -j STATE --set --key 0x7 --value C_INO",
    "pftables -i 0x10 -p /bin/x -o FILE_OPEN -j DROP",
    "pftables -i 0x10 -p /bin/x -d tmp_t -j DROP",
    "pftables -i 0x20 -p /bin/x -o FILE_READ -j DROP",
    "pftables -i 0x20 -p /bin/x -o LNK_FILE_READ -j DROP",
    "pftables -m SYSCALL_ARGS --arg 0 --equal NR_sigreturn -j DROP",
    "pftables -m SYSCALL_ARGS --arg 0 --equal NR_getpid -j DROP",
    "pftables -m SYSCALL_ARGS --arg 0 --nequal NR_open -j DROP",
    "pftables -m SYSCALL_ARGS --arg 1 --equal 0x7 -j DROP",
    "pftables -m SYSCALL_ARGS --arg 0 --equal C_SUBJECT -j DROP",
]
DIFF_OPS = [Op.FILE_OPEN, Op.FILE_READ, Op.LNK_FILE_READ, Op.LINK_READ, Op.FILE_GETATTR]
DIFF_KEYS = [None, ("/bin/x", 0x10), ("/bin/x", 0x20)]
DIFF_CHAINS = ["input", "output", "syscallbegin"]

DIFF_STEP = st.one_of(
    st.tuples(st.just("A"), st.sampled_from(DIFF_CHAINS), st.sampled_from(DIFF_RULES)),
    st.tuples(
        st.just("I"),
        st.sampled_from(DIFF_CHAINS),
        st.sampled_from(DIFF_RULES),
        st.integers(min_value=0, max_value=8),
    ),
    st.tuples(st.just("D"), st.sampled_from(DIFF_CHAINS), st.integers(min_value=0, max_value=8)),
    st.tuples(st.just("F"), st.sampled_from(DIFF_CHAINS)),
)


def _reindexed(chain):
    fresh = Chain(chain.name)
    fresh.rules = list(chain.rules)
    fresh._reindex()
    return fresh


def _op_set(rules):
    """The ``-o`` operations of ``rules``; None once any has no ``-o``."""
    ops = {r.op for r in rules}
    return None if None in ops else ops


def _syscall_set(rules):
    """The syscall index from scratch: every rule's ``--arg 0 --equal``
    literal, or ``None`` once one rule has none."""
    out = set()
    for each in rules:
        literals = [
            m.value.literal for m in each.matches
            if isinstance(m, mm.SyscallArgsMatch)
            and m.arg_index == 0 and m.equal and m.value.atom is None
        ]
        if not literals:
            return None
        out.add(literals[0][3:] if literals[0].startswith("NR_") else literals[0])
    return out


def _assert_index_matches_full_reindex(chain):
    ref = _reindexed(chain)
    assert chain.preamble == ref.preamble
    assert list(chain.preamble_by_op.items()) == list(ref.preamble_by_op.items())
    assert list(chain.by_entrypoint.items()) == list(ref.by_entrypoint.items())
    assert chain.relevant_ops == ref.relevant_ops
    assert chain.ept_ops == ref.ept_ops
    assert chain.syscalls == ref.syscalls
    assert chain.syscalls == _syscall_set(chain.rules)
    # Both paths share _index(), so also check the op sets from scratch.
    bucketed = [r for r in chain.rules if r.entrypoint_key() is not None]
    assert chain.relevant_ops == _op_set(chain.rules)
    assert chain.ept_ops == _op_set(bucketed)
    for op in DIFF_OPS:
        assert list(chain.preamble_for(op)) == list(ref.dispatch(op))
        for key in DIFF_KEYS:
            assert chain.dispatch(op, key) == ref.dispatch(op, key)


class TestIncrementalIndex:
    """Appends index one rule; insert/delete/flush rebuild.  Both must
    leave exactly the index a full ``_reindex()`` builds."""

    @settings(max_examples=150, deadline=None)
    @given(steps=st.lists(DIFF_STEP, max_size=14))
    def test_incremental_equals_full_reindex(self, steps):
        base = RuleBase()
        table = base.table("filter")
        for step in steps:
            action, chain_name = step[0], step[1]
            chain = table.chain(chain_name, create=True)
            # Memoize every dispatch shape, so a stale tuple would show.
            for op in DIFF_OPS:
                for key in DIFF_KEYS:
                    chain.dispatch(op, key)
            if action == "A":
                base.install("filter", chain_name, rule(step[2]))
            elif action == "I":
                base.install("filter", chain_name, rule(step[2]), position=min(step[3], len(chain)))
            elif action == "D":
                if not len(chain):
                    continue
                base.remove("filter", chain_name, chain.rules[step[2] % len(chain)])
            else:
                chain.flush()
                base.recompute_required_fields()
            assert chain._compiled == {}
            accumulated = base.required_fields
            assert accumulated == base.recompute_required_fields()
            for each in table.chains.values():
                _assert_index_matches_full_reindex(each)

    R12 = "pftables -m SYSCALL_ARGS --arg 0 --equal NR_sigreturn -j STATE --set --key 'sig' --value 0"

    def test_syscall_index_collects_equal_literals(self):
        chain = Chain("syscallbegin")
        assert chain.syscalls == set()
        chain.append(rule(self.R12))
        chain.append(rule("pftables -m SYSCALL_ARGS --arg 0 --equal getpid -j DROP"))
        assert chain.syscalls == {"sigreturn", "getpid"}

    @pytest.mark.parametrize("text", [
        "pftables -m SYSCALL_ARGS --arg 0 --nequal NR_getpid -j DROP",
        "pftables -m SYSCALL_ARGS --arg 1 --equal NR_getpid -j DROP",
        "pftables -m SYSCALL_ARGS --arg 0 --equal C_SUBJECT -j DROP",
        "pftables -s unconfined_t -j DROP",
    ], ids=["nequal", "arg1", "atom", "no-syscall-args"])
    def test_syscall_index_widens_on_a_rule_without_literal(self, text):
        chain = Chain("syscallbegin")
        chain.append(rule(self.R12))
        wide = rule(text)
        chain.append(wide)
        assert chain.syscalls is None
        chain.delete(wide)
        assert chain.syscalls == {"sigreturn"}

    @pytest.mark.parametrize("preset", ["EPTSPC", "COMPILED"])
    def test_unnamed_syscall_takes_the_fast_path(self, preset):
        """Under the full rule base only R12 sits in ``syscallbegin``,
        so ``getpid`` evaluates no rule and collects no context."""
        session = Session(engine=preset, rules=install_full_rulebase)
        firewall = session.firewall
        proc = session.spawn("sh", binary_path="/bin/sh")
        stats = firewall.stats

        def counters():
            return (stats.rules_evaluated, dict(stats.context_collections),
                    stats.decision_cache_hits)

        for _ in range(2):
            before = counters()
            session.sys.getpid(proc)
            assert counters() == before
        tracer = firewall.enable_tracing()
        session.sys.getpid(proc)
        assert tracer.last().stages == ["fast_path", "verdict"]
        assert tracer.last().verdict == "ALLOW"

    @pytest.mark.parametrize("preset", ["EPTSPC", "COMPILED"])
    def test_walk_skips_the_chain_the_index_excludes(self, preset):
        """The mangle chain names ``getpid``, the filter chain only
        ``sigreturn``: each syscall walks its own chain alone."""
        session = Session(engine=preset, rules=[
            "pftables -t mangle -A syscallbegin -m SYSCALL_ARGS --arg 0 --equal NR_getpid "
            "-j STATE --set --key 'seen' --value 1",
            "pftables -A syscallbegin -m SYSCALL_ARGS --arg 0 --equal NR_sigreturn "
            "-j STATE --set --key 'sig' --value 0",
        ])
        proc = session.spawn("sh", binary_path="/bin/sh")
        stats = session.firewall.stats
        session.sys.getpid(proc)
        assert stats.rules_evaluated == 1 and proc.pf.state["seen"] == 1
        session.sys.sigreturn(proc)
        assert stats.rules_evaluated == 2
        session.sys.getuid(proc)
        assert stats.rules_evaluated == 2

    @pytest.mark.parametrize("preset", ["EPTSPC", "COMPILED"])
    def test_sigreturn_still_evaluates_r12(self, preset):
        session = Session(engine=preset, rules=install_full_rulebase)
        firewall = session.firewall
        proc = session.spawn("sh", binary_path="/bin/sh")
        proc.pf.state["sig"] = 1
        before = firewall.stats.rules_evaluated
        session.sys.sigreturn(proc)
        assert firewall.stats.rules_evaluated == before + 1
        assert firewall.stats.context_collections["SYSCALL_ARGS"] >= 1
        assert proc.pf.state["sig"] == 0
        result = EXPLOITS["E5"]().run(with_firewall=True, config=EngineConfig.preset(preset))
        assert result.blocked and not result.succeeded


class TestLinearInstall:
    """Installing the 1218-rule PF Full base must never rescan the rule
    base: no full reindex and no field-union recompute per append."""

    def test_full_base_installs_without_rescans(self, monkeypatch):
        calls = {"reindex": 0, "recompute": 0}
        reindex = Chain._reindex
        recompute = RuleBase.recompute_required_fields

        def counted_reindex(chain):
            calls["reindex"] += 1
            return reindex(chain)

        def counted_recompute(base):
            calls["recompute"] += 1
            return recompute(base)

        monkeypatch.setattr(Chain, "_reindex", counted_reindex)
        monkeypatch.setattr(RuleBase, "recompute_required_fields", counted_recompute)
        texts = generate_full_rulebase()
        firewall = ProcessFirewall()
        firewall.install_all(texts)
        assert calls == {"reindex": 0, "recompute": 0}
        monkeypatch.undo()

        # The same rules, placed by parsing alone and indexed by one
        # full reindex per chain, are what per-append reindexing built.
        reference = ProcessFirewall()
        for text in texts:
            parsed = parse_rule(text)
            assert parsed.action == "append"
            reference.rules.table(parsed.table).chain(parsed.chain, create=True).rules.append(
                parsed.rule
            )
        for table_name in TABLES:
            for chain in reference.rules.table(table_name).chains.values():
                chain._reindex()
        assert firewall.rules.rule_count() == len(texts)
        assert save_rules(firewall) == save_rules(reference)
        for table_name in TABLES:
            for chain in firewall.rules.table(table_name).chains.values():
                _assert_index_matches_full_reindex(chain)
        accumulated = firewall.rules.required_fields
        assert accumulated == firewall.rules.recompute_required_fields()
        assert accumulated == reference.rules.recompute_required_fields()
