"""Firewall state copied at fork changes nothing: E1–E9 after a fork
storm and the ``STATE`` fork replay (items of ``tools/observables.py``)
reproduce under COMPILED what ``tests/golden/observables.json`` holds
from the eager-copy fork mode; and parent and child decision caches
are equal but separate after fork and diverge independently."""

import pytest

from repro.firewall.engine import EngineConfig, ProcessFirewall
from repro.rulesets.generated import install_full_rulebase
from repro.world import build_world, spawn_root_shell
from tests.differential import EIDS, golden_document, golden_twice


@pytest.mark.parametrize("eid", EIDS)
def test_exploits_identical_across_fork_modes(eid):
    for arm in ("attack", "benign"):
        observed = golden_twice("fork-{}/{}".format(eid, arm), "COMPILED")
        assert observed == golden_document()["fork"][eid][arm]


def test_fork_state_workload_replays_identically():
    observed = golden_twice("fork-replay", "COMPILED")
    assert observed == golden_document()["fork_replay"]
    assert observed["result"][1] == [["chmod", "EACCES"]] * 3


def test_decision_caches_share_then_diverge():
    """The fork contract on the decision cache, end to end: equal but
    separate entries right after fork, independent divergence after."""
    world = build_world()
    firewall = ProcessFirewall(EngineConfig.compiled())
    world.attach_firewall(firewall)
    install_full_rulebase(firewall)
    shell = spawn_root_shell(world)
    for _ in range(3):
        world.sys.stat(shell, "/etc/passwd")
    assert shell.pf.decision_cache is not None
    child = world.sys.fork(shell)
    assert child.pf.decision_cache[1] == shell.pf.decision_cache[1]
    assert child.pf.decision_cache[1] is not shell.pf.decision_cache[1]
    child.call(child.binary, 0x51)
    world.sys.stat(child, "/etc/passwd")
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
