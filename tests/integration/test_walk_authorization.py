"""One walk authorization changes nothing observable.

A walk's ``LOOKUP`` steps may be authorized through one walk grant
(:meth:`repro.kernel.Kernel.authorize_walk`) instead of one
``DIR_SEARCH`` operation per step; DAC and MAC still run per step.
The ``grant-refused`` rows of the differential matrix
(``tests/differential.py``) pin the corpus run with every grant
refused to the same run with grants.  The cases here go through the
matrix's :func:`~tests.differential.grant_differential`: a RaceGuard
kernel, and cases where a grant must hand a step back (a ``chmod`` or
a relabel under a cached walk, a ``DIR_SEARCH`` DROP rule installed
mid-run, a corrupted stack, a symlink whose follow drops the decision
cache, tracing or metrics switched on mid-run).  Each counts the steps
a grant allowed, so no case passes by never taking the grant.
"""

import pytest

from repro import errors
from repro.baselines.compare import (
    benign_rotation_works,
    benign_sharing_works,
    build_defended_world,
    symlink_attack_succeeds,
)
from repro.firewall.engine import EngineConfig, ProcessFirewall
from repro.rulesets.default import safe_open_pf_rules
from tests.differential import (EIDS, REFERENCE, check, grant_differential, observe,
                                pinned_observables, record_verdicts, tally, walk_grants)
from tests.plumbing_workloads import INCLUDE_DIR, BuildTree, lmbench_round, run_lmbench

EXPLOIT_COLUMNS = [eid + arm for eid in EIDS for arm in ("/attack", "/benign")]


def audit_off(kernel):
    kernel.audit_enabled = False
    return record_verdicts(kernel)


def _grants(column, columns):
    """The grant rows' cells on ``columns``; returns the granted steps
    (LAZYCON has no row: it never grants, so it is held to the
    reference and to zero grants)."""
    if column == "LAZYCON":
        reference = [observe(c, REFERENCE[0], **REFERENCE[1])["loose"] for c in columns]
        assert [observe(c, "LAZYCON", audit=False)["loose"] for c in columns] == reference
        return sum(observe(c, "LAZYCON", audit=False)["tally"]["granted"] for c in columns)
    row = "grant-refused" if column == "COMPILED" else "EPTSPC-grant-refused"
    check(row, *columns)
    return tally(row, "granted", columns, side=1)


def test_compile_jobs():
    """Of the 24 jobs' 1,116 ``DIR_SEARCH`` steps, 1,067 are granted."""
    assert _grants("COMPILED", ["long/build"]) == 1067
    assert observe("long/build", "COMPILED", audit=False)["loose"]["result"] == 6


@pytest.mark.parametrize("column", ["COMPILED", "EPTSPC", "LAZYCON"])
def test_lmbench_mix_audit_off(column):
    # Only COMPILED's decision cache answers the full base's
    # entrypoint-keyed DIR_SEARCH chains; LAZYCON has no entrypoint
    # chains, so its firewall never answers.
    allowed = _grants(column, ["lmbench/intact", "lmbench/corrupt"])
    assert (allowed > 0) == (column == "COMPILED")


@pytest.mark.parametrize("column", ["COMPILED", "EPTSPC", "LAZYCON"])
def test_exploits(column):
    assert (_grants(column, EXPLOIT_COLUMNS) > 0) == (column != "LAZYCON")


def test_raceguard_kernel_is_never_granted():
    """RaceGuard is an LSM module that must see every operation, so a
    kernel that registers it grants no walk."""

    def workload():
        kernel = build_defended_world("raceguard")
        firewall = kernel.attach_firewall(ProcessFirewall(EngineConfig.compiled()))
        firewall.install_all(safe_open_pf_rules())
        verdicts = audit_off(kernel)
        outcomes = []
        for check in (symlink_attack_succeeds, benign_sharing_works, benign_rotation_works):
            outcomes.append(check(kernel))
        out = pinned_observables(kernel, firewall, verdicts)
        out["outcomes"] = outcomes
        out["raceguard"] = [module.denials for module in kernel.lsm.modules[1:]]
        return out

    assert grant_differential(workload) == 0


# ---------------------------------------------------------------------------
# adversarial cases
# ---------------------------------------------------------------------------


HEADER = INCLUDE_DIR + "/hdr0.h"


def _user_tree():
    """A build tree with a non-root ``user_t`` compiler that has warmed
    its walk cache and decision cache on ``HEADER``."""
    tree = BuildTree()
    kernel = tree.kernel
    user = kernel.spawn("cc", uid=1000, label="user_t", binary_path="/bin/sh")
    user.call(user.binary, 0x1234, function="main")
    verdicts = record_verdicts(kernel)
    for _ in range(3):
        kernel.sys.stat(user, HEADER)
    return tree, user, verdicts


def _attempt(call, *args):
    try:
        call(*args)
    except errors.KernelError:
        pass


def test_chmod_under_a_cached_walk():
    """``chmod`` drops no cached walk, so the next ``stat`` replays a
    walk-cache hit; DAC must refuse the search of ``/usr/include`` at
    the same step, with the same message, as the per-component path."""

    def workload():
        tree, user, verdicts = _user_tree()
        kernel = tree.kernel
        kernel.sys.chmod(tree.make, INCLUDE_DIR, 0o700)
        hits = kernel.dcache.walks.hits
        _attempt(kernel.sys.stat, user, HEADER)
        assert kernel.dcache.walks.hits == hits + 1
        assert verdicts[-1][:2] == ("stat", "EACCES")
        assert "dac" in verdicts[-1][2]
        kernel.sys.stat(tree.make, HEADER)
        return pinned_observables(kernel, tree.firewall, verdicts)

    assert grant_differential(workload) > 0


def test_relabel_denied_by_mac():
    def workload():
        tree, user, verdicts = _user_tree()
        kernel = tree.kernel
        kernel.fs.relabel(kernel.lookup(INCLUDE_DIR), "shadow_t")
        _attempt(kernel.sys.stat, user, HEADER)
        _attempt(kernel.sys.stat, user, HEADER)
        assert verdicts[-1][:2] == ("stat", "EACCES")
        assert "selinux" in verdicts[-1][2]
        assert kernel.selinux.denials[-1][1:4] == ("shadow_t", "dir", "search")
        return pinned_observables(kernel, tree.firewall, verdicts)

    assert grant_differential(workload) > 0


def test_dir_search_drop_rule_installed_mid_run():
    def workload():
        tree, user, verdicts = _user_tree()
        kernel = tree.kernel
        tree.firewall.install("pftables -A input -o DIR_SEARCH -d usr_t -j DROP")
        for proc in (user, tree.make):
            _attempt(kernel.sys.stat, proc, HEADER)
            assert verdicts[-1][:2] == ("stat", "PFDenied")
        return pinned_observables(kernel, tree.firewall, verdicts)

    assert grant_differential(workload) > 0


def test_corrupted_stack():
    """The head ``()`` of a corrupted stack is in no decision-cache
    entry yet: the grant must refuse until the per-component path has
    recorded it."""

    def workload():
        tree, user, verdicts = _user_tree()
        kernel = tree.kernel
        user.stack.corrupt_below = 0
        for _ in range(3):
            kernel.sys.stat(user, HEADER)
        user.stack.corrupt_below = None
        kernel.sys.stat(user, HEADER)
        return pinned_observables(kernel, tree.firewall, verdicts)

    assert grant_differential(workload) > 0


def test_symlink_mid_path_drops_the_answer():
    """A ``STATE`` rule on ``LNK_FILE_READ`` empties the decision cache
    when the walk follows ``/usr/inc``; the steps after the follow must
    be answered afresh, not by the answer from before it."""

    def workload():
        tree = BuildTree()
        kernel = tree.kernel
        tree.firewall.install(
            "pftables -A input -o LNK_FILE_READ -j STATE --set --key 'followed' --value 1")
        kernel.add_symlink("/usr/inc", INCLUDE_DIR)
        verdicts = record_verdicts(kernel)
        for index in range(4):
            tree.job(index)
        cc = kernel.sys.fork(tree.make)
        for _ in range(3):
            kernel.sys.stat(cc, HEADER)
            kernel.sys.stat(cc, "/usr/inc/hdr1.h")
        return pinned_observables(kernel, tree.firewall, verdicts)

    assert grant_differential(workload) > 0


@pytest.mark.parametrize("switch", ["tracing", "metrics"])
def test_observability_switched_on_mid_run(switch):
    def workload():
        tree = BuildTree()
        verdicts = record_verdicts(tree.kernel)
        firewall = tree.firewall
        for index in range(6):
            tree.job(index)
            if index == 2:
                if switch == "tracing":
                    firewall.enable_tracing(capacity=100000)
                else:
                    firewall.metrics.enable()
        out = pinned_observables(tree.kernel, firewall, verdicts)
        if switch == "tracing":
            out["traces"] = [trace.as_dict() for trace in firewall.tracer]
        else:
            metrics = firewall.metrics
            out["metrics"] = (
                metrics.counters(),
                {phase: row["entries"] for phase, row in metrics.phases().items()},
            )
        return out

    assert grant_differential(workload) > 0


def test_lmbench_round_after_warmup_is_granted_throughout():
    """Guard the claim the plumbing pins rest on: once warm, all four
    ``DIR_SEARCH`` steps of an audit-off lmbench round are granted, and
    the LSM counts them beside the round's five operations."""
    suite = run_lmbench(setup=lambda firewall: audit_off(firewall.kernel))
    before = suite.kernel.lsm.invocations
    granted = []
    with walk_grants(True, granted):
        lmbench_round(suite)
    assert len(granted) == 4
    assert suite.kernel.lsm.invocations - before == 9


def test_record_mediations_captures_every_dir_search():
    """A captured stream holds every ``DIR_SEARCH``: ``record_mediations``
    shadows ``answer_walk`` for the block and restores it after."""
    from repro.service.core import record_mediations

    suite = run_lmbench(setup=lambda firewall: audit_off(firewall.kernel))
    firewall = suite.firewall
    with record_mediations(firewall) as operations:
        lmbench_round(suite)
    assert "answer_walk" not in vars(firewall)
    searches = [op.path for op in operations if op.op.value == "DIR_SEARCH"]
    assert searches == ["/", "/etc", "/", "/etc"]
    granted = []
    with walk_grants(True, granted):
        lmbench_round(suite)
    assert len(granted) == 4
