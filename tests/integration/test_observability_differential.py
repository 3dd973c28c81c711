"""Tracing and metrics change nothing: the ``observed`` and
``EPTSPC-observed`` rows of the differential matrix
(``tests/differential.py``), pinned to the bare runs; and, the other
way, every drop yields a trace that explains it."""

import pytest

from repro.attacks.exploits import EXPLOITS
from tests.differential import EIDS, check


@pytest.mark.parametrize("row", ["EPTSPC-observed", "observed"],
                         ids=["EPTSPC-optimized", "COMPILED-compiled"])
@pytest.mark.parametrize("eid", EIDS)
def test_exploits_identical_with_observability_on(eid, row):
    check(row, eid + "/attack", eid + "/benign")


@pytest.mark.parametrize("eid", EIDS)
def test_every_drop_yields_an_explaining_trace(eid):
    """Positive direction: each drop is explained by a trace naming the
    matching rule and the context fields the walk consumed."""
    scenario = EXPLOITS[eid]()
    scenario.run(with_firewall=True, instrument=lambda firewall: (
        firewall.enable_tracing(capacity=4096), firewall.metrics.enable()))
    firewall = scenario.firewall
    drop_traces = firewall.tracer.drops()
    assert len(drop_traces) == firewall.stats.drops
    installed = {rule.text
                 for table in firewall.rules.tables.values()
                 for chain in table.chains.values()
                 for rule in chain}
    for trace in drop_traces:
        assert trace.verdict == "DROP"
        assert trace.rule, "a drop trace must name its rule"
        assert trace.rule in installed
        # The matched rule appears in the chain walk with a DROP verdict.
        matched = [ev for visit in trace.chains for ev in visit.rules
                   if ev.result == "matched" and ev.verdict == "DROP"]
        assert matched and matched[-1].rule == trace.rule
        # Consumed context fields are attributed (a drop can only come
        # from a matched rule, which consulted at least the fields of
        # its match modules — ENTRYPOINT-only rules included).
        assert trace.consumed_fields() or trace.op == "SYSCALL_BEGIN"
        # Drop audit record and trace agree.
    drops = firewall.audit.records(kind="drop")
    assert sorted(r["rule"] for r in drops) == sorted(t.rule for t in drop_traces)


def test_recorded_workload_identical_with_observability_on():
    check("observed", "macro")
