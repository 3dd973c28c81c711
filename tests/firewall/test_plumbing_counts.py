"""The fixed per-syscall cost, counted instead of timed.

With the walk cache warm and the decision cache hitting, a mediated
syscall evaluates no rules; what is left is plumbing: the
``Operation`` objects the kernel builds and the ``ContextFrame`` objects
the engine builds.  The two deterministic COMPILED workloads of
:mod:`tests.plumbing_workloads` (the lmbench mix and a compile job) pin
those construction counts.

A ``SYSCALL_BEGIN`` that no ``syscallbegin`` chain names builds no
operation, and an entrypoint-keyed decision-cache hit builds no frame.
The engine counters after the same workloads are pinned to the values
they had before either short cut existed: the short cuts move no
verdict and no counter.
"""

import pytest

from repro.firewall.context import ContextFrame
from repro.security.lsm import Operation
from tests.plumbing_workloads import COUNTED, TRAP_EVERY, WARMUP, run_build, run_lmbench


@pytest.fixture
def constructions(monkeypatch):
    """Count ``Operation`` and ``ContextFrame`` constructions; the
    returned ``start()`` zeroes both counts."""
    counts = {"Operation": 0, "ContextFrame": 0}
    for cls in (Operation, ContextFrame):
        original = cls.__init__

        def counting(self, *args, _original=original, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)

    def start():
        counts["Operation"] = counts["ContextFrame"] = 0

    return counts, start


def test_lmbench_round_builds_no_frame(constructions):
    """Per round: 9 resource operations and no ``SYSCALL_BEGIN`` one
    (no ``syscallbegin`` rule names the nine syscalls), and no frame:
    every resource operation hits the entrypoint-keyed decision
    cache."""
    counts, start = constructions
    run_lmbench(before_counted=start)
    assert counts == {"Operation": 9 * COUNTED, "ContextFrame": 0}


def test_build_job_allocations(constructions):
    """Per job: 63.5 resource operations and no ``SYSCALL_BEGIN`` one
    (no ``syscallbegin`` rule names a syscall the job makes).  The 5.25
    frames per job belong to the traversals that still walk: mostly the
    first use of an op kind after ``execve``, which empties the decision
    cache, and the trap open."""
    counts, start = constructions
    run_build(before_counted=start)
    assert counts == {"Operation": 1016, "ContextFrame": 84}


#: ``EngineStats.as_dict()`` after the workloads above, as produced
#: before ``SYSCALL_BEGIN`` and entrypoint-keyed hits had short paths.
PINNED_LMBENCH_STATS = {
    "accepts": 440, "cache_hits": 100, "context_collections": {"ENTRYPOINT": 98},
    "context_cost": 784, "decision_cache_hits": 194, "drops": 0,
    "invocations": 440, "irq_disables": 0, "rules_evaluated": 0,
}
PINNED_BUILD_STATS = {
    "accepts": 1968, "cache_hits": 1056,
    "context_collections": {
        "ADV_WRITABLE": 6, "DAC_OWNER": 6, "ENTRYPOINT": 330, "TGT_DAC_OWNER": 6,
    },
    "context_cost": 2694, "decision_cache_hits": 1259, "drops": 6,
    "invocations": 1974, "irq_disables": 0, "rules_evaluated": 6,
}


def test_engine_stats_pinned():
    assert run_lmbench().firewall.stats.as_dict() == PINNED_LMBENCH_STATS
    tree = run_build()
    assert tree.drops == (WARMUP + COUNTED) // TRAP_EVERY
    assert tree.firewall.stats.as_dict() == PINNED_BUILD_STATS
