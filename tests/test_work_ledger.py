"""Smoke test of ``tools/work_ledger.py``, the bytecode-per-layer ledger."""

import os
import sys

import pytest

TOOLS_DIR = os.path.join(os.path.dirname(__file__), "..", "tools")


@pytest.fixture(scope="module")
def work_ledger():
    sys.path.insert(0, os.path.abspath(TOOLS_DIR))
    try:
        import work_ledger
    finally:
        sys.path.pop(0)
    return work_ledger


@pytest.mark.parametrize("workload,ops", [("lmbench", 18), ("build", 36)])
def test_layers_sum_to_the_total(work_ledger, workload, ops):
    counts, issued = work_ledger.measure(workload, sessions=2)
    assert issued == ops
    layers, modules = work_ledger.ledger(counts)
    total = sum(counts.values())
    assert tuple(layers) == work_ledger.LAYER_NAMES
    assert sum(layers.values()) == sum(modules.values()) == total
    for name in ("syscall", "namei", "lsm", "pf_eval"):
        assert layers[name] > 0
    assert modules.get("enum.py", 0) == 0


def test_layer_table(work_ledger):
    layer_of = work_ledger.layer_of
    assert layer_of("repro/firewall/engine.py:ProcessFirewall.mediate") == "pf_eval"
    assert layer_of("repro/firewall/engine.py:ProcessFirewall.ensure") == "pf_context"
    assert layer_of("repro/kernel.py:Kernel.begin_syscall") == "syscall"
    assert layer_of("repro/kernel.py:Kernel.mediate") == "lsm"
    assert layer_of("repro/kernel.py:Kernel._audit") == "audit"
    assert layer_of("repro/vfs/namei.py:PathWalker.resolve") == "namei"
    assert layer_of("repro/security/selinux.py:SELinuxModule.authorize") == "mac"
    assert layer_of(None) == "other"


def test_counts_do_not_depend_on_the_run(work_ledger):
    first, _ = work_ledger.measure("lmbench", sessions=1)
    second, _ = work_ledger.measure("lmbench", sessions=1)
    assert work_ledger.ledger(first)[0] == work_ledger.ledger(second)[0]
