"""Batched mediation changes nothing: the ``batch`` row of the
differential matrix (``tests/differential.py``), ``mediate_batch`` over
each captured stream pinned to the per-call loop over the same
stream."""

import pytest

from tests.differential import EIDS, check, observe


@pytest.mark.parametrize("eid", EIDS)
@pytest.mark.parametrize("mode", ["run", "run_benign"])
def test_exploit_streams_batched_identical(eid, mode):
    check("batch", "{}/{}".format(eid, "attack" if mode == "run" else "benign"))


@pytest.mark.parametrize("seed", range(10))
def test_randomized_mutation_batches_identical(seed):
    column = "mutation/{}".format(seed)
    check("batch", column)
    tally = observe(column, "COMPILED", replay="batched")["tally"]
    assert 0 < tally["mutating"] < tally["replayed"]
