"""Differential harness: CoW vs eager fork-state must be invisible.

``kernel.fork_state_mode`` selects how ``fork(2)`` propagates the
per-process firewall bundle — O(1) structural sharing (``cow``, the
default) or the deep-copy baseline (``eager``).  The choice is an
engine-internal optimization; nothing observable may change.  Three
probes:

1. Every Table 4 exploit (E1–E9) runs attack + benign under both
   modes, with a fork+execve storm *interposed* between scenario setup
   and the exploit (every live process forks a worker that execs and
   exits, plus one long-lived forked bystander) — identical outcomes,
   drop counts, stats, and log records.
2. A recorded fork/exec-heavy workload with live STATE rule traffic
   (binds recording invariants pre-fork, children tripping and
   re-recording them) replays against full-rulebase worlds in both
   modes — identical executed/failure streams, verdicts, and logs.
3. Parent/child decision caches must share right after fork and
   diverge independently afterwards (the CoW contract, asserted via
   the same workload).
"""

import pytest

from repro import errors
from repro.attacks.base import AttackResult
from repro.attacks.exploits import EXPLOITS
from repro.firewall.engine import EngineConfig, ProcessFirewall
from repro.rulesets.generated import install_full_rulebase
from repro.workloads.replay import record_syscalls, replay
from repro.world import build_world, spawn_root_shell

MODES = ("cow", "eager")


def _strip_time(records):
    return [{k: v for k, v in rec.items() if k != "time"} for rec in records]


def _interpose_fork_exec(kernel):
    """A fork+execve storm over every live process.

    Each pre-existing process forks a worker that execs a fresh image
    (dropping its bundle) and exits, then forks a bystander that stays
    alive holding the shared snapshot — so if CoW leaked writes across
    relatives, the exploit run after this storm would see it.
    """
    for pid in sorted(kernel.processes):
        proc = kernel.processes[pid]
        try:
            worker = kernel.sys.fork(proc)
            kernel.sys.execve(worker, "/bin/sh", argv=["/bin/sh", "-c", "true"])
            kernel.sys.exit(worker, 0)
            kernel.sys.fork(proc)  # long-lived bystander
        except errors.KernelError:
            # A scenario process without exec rights (or mid-attack
            # credentials) keeps the storm going for the others.
            continue


def _attack_result(scenario):
    """Re-run :meth:`AttackScenario.run`'s classification after our
    interposed storm (run() itself gives no post-setup hook)."""
    try:
        succeeded = scenario._attack()
    except errors.PFDenied as exc:
        return AttackResult(False, blocked=True, detail=exc.message)
    except errors.KernelError as exc:
        return AttackResult(False, denied=True, detail="{}: {}".format(exc.errno_name, exc.message))
    blocked = (
        not succeeded and scenario.firewall is not None and scenario.firewall.stats.drops > 0
    )
    return AttackResult(bool(succeeded), blocked=blocked, detail="")


def _scenario_observables(scenario_cls, mode):
    """Attack + benign observables under one fork-state mode."""

    def set_mode(firewall):
        firewall.kernel.fork_state_mode = mode

    out = {}
    scenario = scenario_cls()
    scenario.build(True, config=EngineConfig.compiled(), instrument=set_mode)
    _interpose_fork_exec(scenario.kernel)
    result = _attack_result(scenario)
    out["attack"] = (result.succeeded, result.blocked, result.denied)
    stats = scenario.firewall.stats
    out["attack_stats"] = (stats.invocations, stats.accepts, stats.drops)
    out["attack_logs"] = _strip_time(scenario.firewall.audit.records(kind="log"))
    benign = scenario_cls()
    benign.build(True, config=EngineConfig.compiled(), instrument=set_mode)
    _interpose_fork_exec(benign.kernel)
    out["benign"] = bool(benign._benign())
    benign_stats = benign.firewall.stats
    out["benign_stats"] = (benign_stats.invocations, benign_stats.accepts, benign_stats.drops)
    out["benign_logs"] = _strip_time(benign.firewall.audit.records(kind="log"))
    return out


@pytest.mark.parametrize("eid", sorted(EXPLOITS))
def test_exploits_identical_across_fork_modes(eid):
    reference = _scenario_observables(EXPLOITS[eid], "eager")
    cow = _scenario_observables(EXPLOITS[eid], "cow")
    assert cow == reference


def _fork_state_workload(world, shell):
    """fork/execve-heavy traffic with live STATE rule state.

    The shell binds (recording a STATE invariant), forks workers that
    inherit it, trip it, overwrite it with their own binds, exec, and
    exit — exercising every transition of the state lifecycle table.
    """
    sys = world.sys
    sys.bind(shell, "/var/run/main.sock")
    sys.chmod(shell, "/var/run/main.sock", 0o660)
    for i in range(3):
        worker = sys.fork(shell)
        sys.stat(worker, "/etc/passwd")
        # Inherited invariant holds for the parent's socket ...
        sys.chmod(worker, "/var/run/main.sock", 0o600)
        # ... then the worker re-records with its own bind.
        sys.bind(worker, "/var/run/w{}.sock".format(i))
        try:
            sys.chmod(worker, "/var/run/main.sock", 0o640)
        except errors.KernelError:
            pass  # the TOCTTOU drop — part of the recorded stream
        grand = sys.fork(worker)
        sys.execve(grand, "/bin/sh", argv=["/bin/sh", "-c", "true"])
        sys.stat(grand, "/bin/sh")
        sys.exit(grand, 0)
        sys.exit(worker, 0)
    for _ in range(4):
        sys.stat(shell, "/etc/passwd")


def _record_trace():
    world = build_world()
    shell = spawn_root_shell(world)
    with record_syscalls(world) as trace:
        _fork_state_workload(world, shell)
    return trace, shell.pid


#: Unconditioned variants of the dbus TOCTTOU template (the full
#: rulebase's STATE rules are entrypoint-gated to dbus-daemon, which a
#: recorded shell never hits) so the replayed binds/chmods above carry
#: live STATE traffic through fork.
STATE_RULES = (
    "pftables -A input -o SOCKET_BIND -j STATE --set --key 0xbeef --value C_INO",
    "pftables -A input -o SOCKET_SETATTR -m STATE --key 0xbeef --cmp C_INO --nequal -j DROP",
)


def _replay_observables(trace, recorded_pid, mode):
    world = build_world()
    firewall = ProcessFirewall(EngineConfig.compiled())
    world.attach_firewall(firewall)
    install_full_rulebase(firewall)
    firewall.install_all(list(STATE_RULES))
    world.fork_state_mode = mode
    shell = spawn_root_shell(world)
    result = replay(world, trace, {recorded_pid: shell})
    return {
        "executed": result.executed,
        "failures": [(method, errno) for _index, method, errno in result.failures],
        "stats": (firewall.stats.invocations, firewall.stats.accepts, firewall.stats.drops),
        "logs": _strip_time(firewall.audit.records(kind="log")),
    }


def test_fork_state_workload_replays_identically():
    trace, recorded_pid = _record_trace()
    assert len(trace) > 20
    reference = _replay_observables(trace, recorded_pid, "eager")
    cow = _replay_observables(trace, recorded_pid, "cow")
    assert cow == reference
    assert reference["executed"] > 20
    assert reference["stats"][0] > 0


def test_decision_caches_share_then_diverge():
    """The CoW contract on the decision cache, end to end: shared
    entries right after fork, independent divergence after."""
    world = build_world()
    firewall = ProcessFirewall(EngineConfig.compiled())
    world.attach_firewall(firewall)
    install_full_rulebase(firewall)
    shell = spawn_root_shell(world)
    for _ in range(3):
        world.sys.stat(shell, "/etc/passwd")
    assert shell.pf.decision_cache is not None
    child = world.sys.fork(shell)
    assert child.pf.decision_cache[1] is shell.pf.decision_cache[1]
    child.call(child.binary, 0x51)
    world.sys.stat(child, "/etc/passwd")
    assert child.pf.decision_cache[1] is not shell.pf.decision_cache[1]
    shell.call(shell.binary, 0x52)
    world.sys.stat(shell, "/etc/passwd")

    def heads(proc):
        return {
            h for v in proc.pf.decision_cache[1].values() if v is not True for h in v
        }

    # Each side memoized its own head into its own private entries.
    assert ("/bin/sh", 0x51) in heads(child)
    assert ("/bin/sh", 0x51) not in heads(shell)
    assert ("/bin/sh", 0x52) in heads(shell)
    assert ("/bin/sh", 0x52) not in heads(child)
