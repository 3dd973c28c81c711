"""Nothing observable moves: the corpus of ``tools/observables.py``
must reproduce ``tests/golden/observables.json`` exactly.

A change that moves an observable on purpose regenerates the file
(``PYTHONPATH=src python tools/observables.py tests/golden/observables.json``)
and names the moved fields in CHANGES.md.  The corpus runs come from
the differential matrix's cells, so each distinct run happens once.
"""

import json

from tests.differential import golden_document, golden_service, golden_twice, observables


def test_corpus_matches_golden_file():
    current = json.loads(observables.dumps(observables.collect(golden_twice, golden_service)))
    moved = observables.diff(golden_document(), current)
    assert not moved, "{} moved observables, first: {}".format(len(moved), moved[:20])


def test_diff_names_moved_paths():
    old = {"a": {"b": 1, "c": [1, 2]}, "d": 0}
    new = {"a": {"b": 2, "c": [1, 2]}, "e": 0}
    assert observables.diff(old, new) == ["/a/b", "/d", "/e"]
    assert observables.diff(old, old) == []
