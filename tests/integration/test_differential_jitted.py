"""The retired "JITTED" preset spelling builds COMPILED itself: the
``JITTED`` row of the differential matrix (``tests/differential.py``),
loose to the reference and pinned to COMPILED."""

import pytest

from tests.differential import EIDS, check, tally


@pytest.mark.parametrize("eid", EIDS)
def test_exploits_identical_under_jitted_engine(eid):
    check("JITTED", eid + "/attack", eid + "/benign")


def test_recorded_workload_identical_and_pinned():
    check("JITTED", "macro")
    assert tally("JITTED", "decision_cache_hits", ["macro"]) > 0
