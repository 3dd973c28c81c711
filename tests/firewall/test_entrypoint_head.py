"""Entrypoint collection resolves the head only, and still validates
the whole stack.

Every consumer of ``ENTRYPOINT`` reads the innermost resolvable call
site, so collection resolves exactly one frame of the lmbench suite's
25-frame stack — while a corrupted frame anywhere inside the frame cap
still leaves no entrypoint (paper §4.4).
"""

import pytest

from repro.firewall.context import ContextField, ContextFrame
from repro.firewall.engine import EngineStats
from repro.firewall.modules.registry import collect_field
from repro.proc.stack import Frame
from repro.security.lsm import Op, Operation
from repro.workloads.lmbench import LmbenchSuite


@pytest.fixture
def counted_resolutions(monkeypatch):
    """Count :meth:`Frame.entrypoint` calls (one per resolved frame)."""
    calls = []
    original = Frame.entrypoint

    def counting(frame):
        calls.append(frame)
        return original(frame)

    monkeypatch.setattr(Frame, "entrypoint", counting)
    return calls


def collect_entrypoint(suite):
    operation = Operation(suite.proc, Op.FILE_GETATTR, path="/etc/passwd")
    stats = EngineStats()
    value = collect_field(ContextField.ENTRYPOINT, operation, suite.kernel, ContextFrame(), stats)
    assert stats.context_collections == {"ENTRYPOINT": 1}
    return value


def test_one_collection_resolves_one_frame(counted_resolutions):
    suite = LmbenchSuite("DISABLED")
    assert suite.proc.stack.depth == 25
    head = collect_entrypoint(suite)
    assert head == ("/bin/sh", 0x900000 + 24 * 0x40)
    assert len(counted_resolutions) == 1


def test_mediated_collections_resolve_one_frame_each(counted_resolutions):
    """Under the eager FULL column every mediation collects the
    entrypoint; each collection still resolves a single frame."""
    suite = LmbenchSuite("FULL", rule_count=60)
    before = dict(suite.firewall.stats.context_collections)
    del counted_resolutions[:]
    suite.op_stat()
    suite.op_open_close()
    collections = suite.firewall.stats.context_collections.get("ENTRYPOINT", 0) - before.get(
        "ENTRYPOINT", 0
    )
    assert collections > 0
    assert len(counted_resolutions) == collections


@pytest.mark.parametrize("corrupt_below", [1, 12, 24])
def test_corruption_below_a_valid_head_yields_no_entrypoint(counted_resolutions, corrupt_below):
    suite = LmbenchSuite("DISABLED")
    suite.proc.stack.corrupt_below = corrupt_below
    assert collect_entrypoint(suite) == ()
    assert counted_resolutions == []
