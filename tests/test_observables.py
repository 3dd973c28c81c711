"""Nothing observable moves: the corpus of ``tools/observables.py``
must reproduce ``tests/golden/observables.json`` exactly.

A change that moves an observable on purpose regenerates the file
(``PYTHONPATH=src python tools/observables.py tests/golden/observables.json``)
and names the moved fields in CHANGES.md.
"""

import json
import os
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


@pytest.fixture(scope="module")
def observables():
    sys.path.insert(0, os.path.join(ROOT, "tools"))
    try:
        import observables
    finally:
        sys.path.pop(0)
    return observables


def test_corpus_matches_golden_file(observables):
    with open(os.path.join(ROOT, observables.GOLDEN)) as handle:
        golden = json.load(handle)
    current = json.loads(observables.dumps(observables.collect()))
    moved = observables.diff(golden, current)
    assert not moved, "{} moved observables, first: {}".format(len(moved), moved[:20])


def test_diff_names_moved_paths(observables):
    old = {"a": {"b": 1, "c": [1, 2]}, "d": 0}
    new = {"a": {"b": 2, "c": [1, 2]}, "e": 0}
    assert observables.diff(old, new) == ["/a/b", "/d", "/e"]
    assert observables.diff(old, old) == []
