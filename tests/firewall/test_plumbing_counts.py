"""The fixed per-syscall cost, counted instead of timed.

With the walk cache warm and the decision cache hitting, a mediated
syscall evaluates no rules; what is left is plumbing: the
``Operation`` objects the kernel builds and the ``ContextFrame`` objects
the engine builds.  The two deterministic COMPILED workloads of
:mod:`tests.plumbing_workloads` (the lmbench mix and a compile job) pin
those construction counts.

A ``SYSCALL_BEGIN`` that no ``syscallbegin`` chain names builds no
operation, an entrypoint-keyed decision-cache hit builds no frame, and
with the kernel audit trail off a walk the kernel grants
(``Kernel.authorize_walk``) builds no ``DIR_SEARCH`` operation.
The engine counters after the same workloads are pinned to the values
they had before either short cut existed: the short cuts move no
verdict and no counter.

Open flags are plain ints and operation names come from a table, so
the counted sessions call no Python-level ``enum`` code at all.  A ``SYSCALL_BEGIN`` asks the syscall index
through a memo keyed on the bare syscall name; the tests at the end pin
that a ``syscallbegin`` rule still fires through it and that installs
and flushes invalidate it.
"""

import enum
import sys

import pytest

from repro import errors
from repro.api import Session
from repro.firewall.context import ContextFrame
from repro.firewall.engine import EngineConfig, ProcessFirewall
from repro.rulesets.generated import install_full_rulebase
from repro.security.lsm import Op, Operation
from repro.world import build_world
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


def _audit_off(firewall):
    firewall.kernel.audit_enabled = False


def test_lmbench_round_audit_off_allocations(constructions):
    """With the kernel audit trail off (repobench's ``static_lookup``
    setting), the four ``DIR_SEARCH`` steps of a round (``stat`` and
    ``open`` of ``/etc/passwd``) build no operation: each walk holds a
    walk grant.  5 resource operations a round are left."""
    counts, start = constructions
    suite = run_lmbench(before_counted=start, setup=_audit_off)
    assert counts == {"Operation": 5 * COUNTED, "ContextFrame": 0}
    assert suite.firewall.stats.as_dict() == PINNED_LMBENCH_STATS


def test_build_job_allocations(constructions):
    """Per job: 19 resource operations and no ``SYSCALL_BEGIN`` one
    (no ``syscallbegin`` rule names a syscall the job makes).  Of the
    job's 46.5 ``DIR_SEARCH`` steps, 2 build an operation: the first of
    the ``execve`` walk (the forked child's decision cache has no
    ``DIR_SEARCH`` entry yet) and the first of the open after
    ``execve``, which empties the decision cache; each records the
    entry the rest of its walk is granted on.  The 5.25 frames per job
    belong to the traversals that still walk: mostly the first use of
    an op kind after ``execve``, and the trap open."""
    counts, start = constructions
    run_build(before_counted=start)
    assert counts == {"Operation": 304, "ContextFrame": 84}


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


@pytest.fixture
def enum_calls():
    """Count calls into Python-level ``enum`` code; the returned
    ``start()`` begins counting and ``stop()`` ends it."""
    calls = []
    previous = sys.getprofile()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == enum.__file__:
            calls.append(frame.f_code.co_qualname)

    def start():
        sys.setprofile(profile)

    def stop():
        sys.setprofile(previous)

    yield calls, start, stop
    sys.setprofile(previous)


def test_lmbench_rounds_call_no_enum_code(enum_calls):
    calls, start, stop = enum_calls
    run_lmbench(before_counted=start)
    stop()
    assert calls == []


def test_build_jobs_call_no_enum_code(enum_calls):
    """0 per job: open flags, operation names (kernel audit, drop
    records) and the symlink test of ``dac_adversary_writable`` read
    no enum property."""
    calls, start, stop = enum_calls
    run_build(before_counted=start)
    stop()
    assert calls == []


def test_rule_base_install_enum_entries():
    """Installing the 1,218-rule base enters Python-level ``enum`` code
    33 times.  ``-o`` operands resolve through a name table and each
    rule keeps its context fields as plain int bits, so what is left
    is the ``IntFlag`` arithmetic of the rules whose fields depend on
    their operands (STATE, COMPARE, ADVERSARY) and the rule base's
    wraps of its widening union.  Entries from outside ``enum.py`` are
    counted, not every call: how many calls one entry makes depends on
    which flag combinations earlier code in the process already
    built."""
    firewall = ProcessFirewall(EngineConfig.compiled())
    build_world().attach_firewall(firewall)
    entries = []
    previous = sys.getprofile()

    def profile(frame, event, arg):
        if (
            event == "call"
            and frame.f_code.co_filename == enum.__file__
            and frame.f_back.f_code.co_filename != enum.__file__
        ):
            entries.append(frame.f_back.f_code.co_qualname)

    sys.setprofile(profile)
    try:
        install_full_rulebase(firewall)
    finally:
        sys.setprofile(previous)
    assert firewall.rules.rule_count() == 1218
    assert len(entries) == 33


RULE_GETUID = "pftables -A syscallbegin -m SYSCALL_ARGS --arg 0 --equal NR_getuid -j DROP"


@pytest.fixture(params=["EPTSPC", "COMPILED"])
def indexed(request):
    """A session on a rung with the syscall index, and a root process."""
    session = Session(engine=request.param)
    return session, session.kernel.spawn("p", uid=0)


class TestBeginMemo:
    def test_rule_fires_through_the_memo(self, indexed):
        session, proc = indexed
        session.firewall.install(RULE_GETUID)
        sys_ = session.kernel.sys
        for _ in range(2):
            sys_.getpid(proc)
            with pytest.raises(errors.PFDenied):
                sys_.getuid(proc)
        memo = session.firewall._chain_memo
        assert memo["getpid"] == []
        assert [chain.name for _, chain in memo["getuid"]] == ["syscallbegin"]
        assert session.firewall.stats.drops == 2

    def test_syscall_named_like_an_op(self, indexed):
        """A syscall called ``FILE_OPEN`` is keyed apart from the
        ``FILE_OPEN`` operation in the one memo: the rule naming it
        drops its begin, and file opens (no ``input`` rule) stay on the
        fast path."""
        session, proc = indexed
        firewall = session.firewall
        firewall.install(
            "pftables -A syscallbegin -m SYSCALL_ARGS --arg 0 --equal FILE_OPEN -j DROP")
        kernel = session.kernel
        for _ in range(2):
            with pytest.raises(errors.PFDenied):
                kernel.begin_syscall(proc, "FILE_OPEN")
            kernel.sys.close(proc, kernel.sys.open(proc, "/etc/passwd"))
            kernel.begin_syscall(proc, "FILE_READ")
        memo = firewall._chain_memo
        assert memo[Op.FILE_OPEN] == []
        assert [chain.name for _, chain in memo["FILE_OPEN"]] == ["syscallbegin"]
        assert firewall.stats.drops == 2

    def test_install_invalidates_the_memo(self, indexed):
        session, proc = indexed
        sys_ = session.kernel.sys
        sys_.getuid(proc)
        assert session.firewall._chain_memo["getuid"] == []
        session.firewall.install(RULE_GETUID)
        with pytest.raises(errors.PFDenied):
            sys_.getuid(proc)

    def test_flush_invalidates_the_memo(self, indexed):
        session, proc = indexed
        firewall = session.firewall
        firewall.install(RULE_GETUID)
        sys_ = session.kernel.sys
        with pytest.raises(errors.PFDenied):
            sys_.getuid(proc)
        firewall.flush()
        assert firewall._chain_memo == {}
        sys_.getuid(proc)
        assert firewall._chain_memo["getuid"] == []
