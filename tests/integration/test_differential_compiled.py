"""COMPILED's decision cache and syscall index change no verdict: rows
``COMPILED``, ``EPTSPC`` and ``LAZYCON`` of the differential matrix
(``tests/differential.py``) against the FULL reference."""

import pytest

from tests.differential import CROSS_TABLE_CASES, EIDS, check, observe, tally


@pytest.mark.parametrize("eid", EIDS)
def test_exploits_identical_under_compiled_engine(eid):
    check("COMPILED", eid + "/attack", eid + "/benign")


def test_recorded_workload_replays_identically():
    check("COMPILED", "macro")
    check("EPTSPC", "macro")
    assert observe("macro", "COMPILED")["loose"]["result"][0] > 20


def test_compiled_short_circuits_during_replay():
    assert tally("COMPILED", "decision_cache_hits", ["macro"]) > 0


@pytest.mark.parametrize("case", sorted(CROSS_TABLE_CASES))
@pytest.mark.parametrize("name", ["COMPILED", "EPTSPC", "LAZYCON"])
def test_skipped_chain_never_widens_a_cached_allow(case, name):
    check(name, "cross/" + case)


@pytest.mark.parametrize("seed", range(12))
def test_randomized_rule_bases_agree(seed):
    for name in ("LAZYCON", "EPTSPC", "COMPILED"):
        check(name, "rules/{}".format(seed), "rules/{}/plain".format(seed))
