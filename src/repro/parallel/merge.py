"""Audit-payload comparison: the per-run fields two runs may differ in.

:func:`strip_volatile` is what "the same audit record" means across
worlds.  The service runner uses it to normalize the records it ships,
and the benchmark's own test file (``repobench/test_repobench.py``,
frozen with the benchmark) imports it from this module, which is why
it lives here rather than in :mod:`repro.service`.
"""

from __future__ import annotations

#: Audit-payload fields that are per-run, not per-decision: ``time`` is
#: a wall-clock stamp; ``resource_id`` is an inode number, and inodes
#: allocated for files created during a run differ between worlds even
#: when the files are the same.
VOLATILE_AUDIT_FIELDS = ("time", "resource_id")


def strip_volatile(record, fields=VOLATILE_AUDIT_FIELDS):
    """Copy an audit payload without its per-run fields."""
    return {key: value for key, value in record.items() if key not in fields}
