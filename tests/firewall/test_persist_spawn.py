"""Rule-base transport across a real ``multiprocessing`` spawn boundary.

The service pool ships rules to workers as ``save_rules`` text; a
pickled ``RuleBase`` must survive the same trip.  Both transports are
probed with an actual spawned child process — not a fork — because
spawn re-imports everything and is the context the pool uses.  The
child re-imports this module by name, which works because spawned
children inherit the parent's ``sys.path``.
"""

import multiprocessing
import pickle
import traceback

import pytest

from repro.api import resolve_engine
from repro.firewall.engine import EngineConfig, ProcessFirewall
from repro.firewall.persist import load_rules, save_rules
from repro.rulesets.generated import install_full_rulebase


def describe_rules_in_child(conn, payload):
    """Spawn-boundary probe: rebuild a firewall and report what it sees.

    Reconstructs a firewall in the child from ``payload`` — either
    ``pickled_rules`` (a pickled ``RuleBase``) or ``rules_text``
    (``save_rules`` output) — and reports the rule-base stamp,
    per-table chain order with rendered rule text, the re-serialized
    ``save_rules`` text, and whether JIT codegen rebuilds cleanly
    against the transported rules.
    """
    try:
        firewall = ProcessFirewall(resolve_engine(payload.get("config", "JITTED")))
        if payload.get("pickled_rules") is not None:
            firewall.rules = pickle.loads(payload["pickled_rules"])
        else:
            load_rules(firewall, payload["rules_text"])
        jit = firewall.jit_program()
        result = ("ok", {
            "stamp": tuple(firewall.rules.stamp),
            "chains": _expected_chains(firewall),
            "rules_text": save_rules(firewall),
            "jit_rebuilt": jit is not None and jit.stamp is firewall.rules.stamp,
        })
    except BaseException:
        result = ("error", traceback.format_exc())
    try:
        conn.send(result)
    finally:
        conn.close()


def _reference_firewall():
    firewall = ProcessFirewall(EngineConfig.jitted())
    install_full_rulebase(firewall)
    return firewall


def _expected_chains(firewall):
    return {
        table_name: [
            (chain_name, [rule.render() for rule in table.chains[chain_name]])
            for chain_name in table.chains
        ]
        for table_name, table in firewall.rules.tables.items()
    }


def _probe_in_children(payloads):
    """Launch one spawned child per payload, concurrently; collect reports."""
    ctx = multiprocessing.get_context("spawn")
    jobs = []
    for payload in payloads:
        receiver, sender = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=describe_rules_in_child, args=(sender, payload))
        proc.start()
        sender.close()
        jobs.append((proc, receiver))
    reports = []
    for proc, receiver in jobs:
        status, value = receiver.recv()
        proc.join()
        if status != "ok":
            pytest.fail("child probe failed:\n{}".format(value))
        reports.append(value)
    return reports


def test_rulebase_survives_spawn_boundary():
    firewall = _reference_firewall()
    rules_text = save_rules(firewall)
    expected_chains = _expected_chains(firewall)
    via_text, via_pickle = _probe_in_children([
        {"config": "JITTED", "rules_text": rules_text},
        {"config": "JITTED", "pickled_rules": pickle.dumps(firewall.rules)},
    ])

    # Chain order and per-rule text must be preserved verbatim by both
    # transports, and both must re-serialize to the parent's text.
    for report in (via_text, via_pickle):
        assert report["chains"] == expected_chains
        assert report["rules_text"] == rules_text
        # The child's JIT program must rebuild against the transported
        # rules and share their identity stamp (the hot path compares
        # stamps by ``is``, so a stale program would disable codegen).
        assert report["jit_rebuilt"] is True

    # A pickled RuleBase keeps its (uid, version) stamp value exactly;
    # the text restore builds a fresh instance, whose uid must differ
    # (two rule bases must never collide on memo stamps).
    assert tuple(via_pickle["stamp"]) == tuple(firewall.rules.stamp)
    assert tuple(via_text["stamp"]) != tuple(firewall.rules.stamp)
    assert via_text["stamp"][1] >= firewall.rules.rule_count()


def test_text_round_trip_is_stable_in_parent():
    """Control for the spawn test: the same round-trip inside one
    process is already exact, so any spawn failure is transport."""
    firewall = _reference_firewall()
    text = save_rules(firewall)
    other = ProcessFirewall(EngineConfig.jitted())
    load_rules(other, text)
    assert save_rules(other) == text
    assert _expected_chains(other) == _expected_chains(firewall)
