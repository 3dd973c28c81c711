"""Differential: one walk authorization changes nothing observable.

A walk's ``LOOKUP`` steps may be authorized through a walk grant
(:meth:`repro.kernel.Kernel.authorize_walk`) instead of one
``DIR_SEARCH`` :class:`~repro.security.lsm.Operation` per step through
:meth:`~repro.kernel.Kernel.mediate`.  DAC and MAC still run per step;
only the firewall's answer is shared, and only when its decision cache
(or fast path) would allow every step.  Each workload here runs twice:
with grants, and with
:meth:`~repro.firewall.engine.ProcessFirewall.answer_walk` patched to
refuse, which forces every step through the per-component path.  The
two runs must agree on verdicts and errno messages,
``EngineStats.as_dict()``, ``kernel.stats``, ``lsm.invocations``,
``selinux.denials`` and the firewall audit records.

The workloads: the compile jobs and the lmbench mix of
:mod:`tests.plumbing_workloads` (kernel audit off), E1–E9 attack and
benign runs on COMPILED, EPTSPC and LAZYCON, a RaceGuard kernel, and
adversarial cases where a grant must hand a step back: a ``chmod`` and
a relabel under a cached walk, a ``DIR_SEARCH`` DROP rule installed
mid-run, a corrupted stack, a symlink mid-path whose follow drops the
decision cache, and tracing or metrics switched on mid-run.  Each run
with grants also counts how many steps a grant allowed, so no case
passes by never taking the grant.
"""

import pytest

from repro import errors
from repro.attacks.exploits import EXPLOITS
from repro.baselines.compare import (
    benign_rotation_works,
    benign_sharing_works,
    build_defended_world,
    symlink_attack_succeeds,
)
from repro.firewall.engine import EngineConfig, ProcessFirewall, WalkAnswer
from repro.rulesets.default import safe_open_pf_rules
from tests.plumbing_workloads import (
    COUNTED,
    INCLUDE_DIR,
    WARMUP,
    BuildTree,
    lmbench_round,
    run_lmbench,
)


def _refuse(self, proc, seq):
    return None


def _run(workload, grants):
    """``workload()``'s observables, with walk grants or without, and
    the number of ``DIR_SEARCH`` steps a grant allowed."""
    allowed = []
    with pytest.MonkeyPatch.context() as patch:
        if grants:
            accept = WalkAnswer.accept

            def counting(self):
                allowed.append(None)
                accept(self)

            patch.setattr(WalkAnswer, "accept", counting)
        else:
            patch.setattr(ProcessFirewall, "answer_walk", _refuse)
        observed = workload()
    return observed, len(allowed)


def _differential(workload):
    """Run ``workload`` both ways; assert equal observables and return
    the number of granted steps."""
    granted, allowed = _run(workload, grants=True)
    refused, none = _run(workload, grants=False)
    assert none == 0
    assert granted == refused
    return allowed


def record_verdicts(kernel):
    """Record every syscall's outcome: ``(name, "ok")`` or ``(name,
    error class, message)``.  Wraps the public methods of
    ``kernel.sys``; nested calls record too, in call order."""
    verdicts = []
    sys_ = kernel.sys
    for name in dir(type(sys_)):
        method = getattr(sys_, name)
        if name.startswith("_") or not callable(method):
            continue

        def wrapped(*args, _method=method, _name=name, **kwargs):
            try:
                result = _method(*args, **kwargs)
            except errors.KernelError as exc:
                verdicts.append((_name, type(exc).__name__, exc.message))
                raise
            verdicts.append((_name, "ok"))
            return result

        setattr(sys_, name, wrapped)
    return verdicts


def observables(kernel, firewall, verdicts):
    stats = kernel.stats
    return {
        "verdicts": list(verdicts),
        "engine": firewall.stats.as_dict() if firewall is not None else None,
        "kernel": (dict(stats.syscalls), stats.mediations, stats.pf_drops),
        "lsm": kernel.lsm.invocations,
        "selinux": list(kernel.selinux.denials),
        "audit": firewall.audit.records() if firewall is not None else None,
        "kernel_audit": [(r.time, r.pid, r.op, r.path, r.decision, r.detail) for r in kernel.audit],
    }


def audit_off(kernel):
    kernel.audit_enabled = False
    return record_verdicts(kernel)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def compile_jobs():
    tree = BuildTree()
    verdicts = record_verdicts(tree.kernel)
    for index in range(WARMUP + COUNTED):
        tree.job(index)
    assert tree.drops == (WARMUP + COUNTED) // 4
    return observables(tree.kernel, tree.firewall, verdicts)


def test_compile_jobs():
    """Of the 24 jobs' 1,116 ``DIR_SEARCH`` steps, 1,067 are granted
    (the 16 counted jobs: 712 of 744)."""
    assert _differential(compile_jobs) == 1067


@pytest.mark.parametrize("column", ["COMPILED", "EPTSPC", "LAZYCON"])
def test_lmbench_mix_audit_off(column):
    def workload():
        box = {}

        def setup(firewall):
            box["verdicts"] = audit_off(firewall.kernel)

        suite = run_lmbench(column, setup=setup)
        return observables(suite.kernel, suite.firewall, box["verdicts"])

    allowed = _differential(workload)
    # Only COMPILED's decision cache answers the full base's
    # entrypoint-keyed DIR_SEARCH chains; LAZYCON has no entrypoint
    # chains, so its firewall never answers.
    assert (allowed > 0) == (column == "COMPILED")


def _exploit_observables(scenario_cls, column, benign):
    box = {}

    def instrument(firewall):
        box["verdicts"] = audit_off(firewall.kernel)

    scenario = scenario_cls()
    config = EngineConfig.preset(column)
    if benign:
        outcome = scenario.run_benign(with_firewall=True, config=config, instrument=instrument)
    else:
        result = scenario.run(with_firewall=True, config=config, instrument=instrument)
        outcome = (result.succeeded, result.blocked, result.denied, result.detail)
    out = observables(scenario.kernel, scenario.firewall, box["verdicts"])
    out["outcome"] = outcome
    return out


@pytest.mark.parametrize("column", ["COMPILED", "EPTSPC", "LAZYCON"])
def test_exploits(column):
    allowed = 0
    for eid in sorted(EXPLOITS):
        for benign in (False, True):
            allowed += _differential(
                lambda: _exploit_observables(EXPLOITS[eid], column, benign))
    assert (allowed > 0) == (column != "LAZYCON")


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
        out = observables(kernel, firewall, verdicts)
        out["outcomes"] = outcomes
        out["raceguard"] = [module.denials for module in kernel.lsm.modules[1:]]
        return out

    assert _differential(workload) == 0


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
        return observables(kernel, tree.firewall, verdicts)

    assert _differential(workload) > 0


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
        return observables(kernel, tree.firewall, verdicts)

    assert _differential(workload) > 0


def test_dir_search_drop_rule_installed_mid_run():
    def workload():
        tree, user, verdicts = _user_tree()
        kernel = tree.kernel
        tree.firewall.install("pftables -A input -o DIR_SEARCH -d usr_t -j DROP")
        for proc in (user, tree.make):
            _attempt(kernel.sys.stat, proc, HEADER)
            assert verdicts[-1][:2] == ("stat", "PFDenied")
        return observables(kernel, tree.firewall, verdicts)

    assert _differential(workload) > 0


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
        return observables(kernel, tree.firewall, verdicts)

    assert _differential(workload) > 0


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
        return observables(kernel, tree.firewall, verdicts)

    assert _differential(workload) > 0


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
        out = observables(tree.kernel, firewall, verdicts)
        if switch == "tracing":
            out["traces"] = [trace.as_dict() for trace in firewall.tracer]
        else:
            metrics = firewall.metrics
            out["metrics"] = (
                metrics.counters(),
                {phase: row["entries"] for phase, row in metrics.phases().items()},
            )
        return out

    assert _differential(workload) > 0


def test_lmbench_round_after_warmup_is_granted_throughout():
    """Guard the claim the plumbing pins rest on: once warm, all four
    ``DIR_SEARCH`` steps of an audit-off lmbench round are granted, and
    the LSM counts them beside the round's five operations."""
    suite = run_lmbench(setup=lambda firewall: audit_off(firewall.kernel))
    before = suite.kernel.lsm.invocations
    _, allowed = _run(lambda: lmbench_round(suite), grants=True)
    assert allowed == 4
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
    _, allowed = _run(lambda: lmbench_round(suite), grants=True)
    assert allowed == 4
