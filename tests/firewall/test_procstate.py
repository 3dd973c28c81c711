"""The CoW substrate: CowMap/ProcState sharing, breaks, generations."""

import sys

import pytest

from repro.firewall.procstate import (
    CowMap,
    ProcState,
    reset_substrate_stats,
    substrate_stats,
)
from repro.security.lsm import Op
from repro.world import build_world, spawn_root_shell


@pytest.fixture(autouse=True)
def _fresh_counters():
    reset_substrate_stats()
    yield
    reset_substrate_stats()


class TestCowMap:
    def test_behaves_like_a_dict(self):
        m = CowMap({"a": 1})
        m["b"] = 2
        assert m["a"] == 1 and m.get("b") == 2 and m.get("c", 9) == 9
        assert "a" in m and len(m) == 2 and sorted(m) == ["a", "b"]
        assert m == {"a": 1, "b": 2}
        del m["a"]
        assert m == {"b": 2}

    def test_fork_shares_storage(self):
        parent = CowMap({"k": 1})
        child = parent.fork()
        assert child == parent
        assert parent.shared and child.shared
        assert child._data is parent._data
        assert substrate_stats()["state_copies"] == 0

    def test_child_write_breaks_share_once(self):
        parent = CowMap({"k": 1})
        child = parent.fork()
        child["k"] = 2
        assert parent["k"] == 1 and child["k"] == 2
        assert not child.shared and parent.shared  # parent still points at old storage
        child["j"] = 3
        assert substrate_stats()["state_copies"] == 1  # copy paid exactly once

    def test_parent_write_does_not_leak_to_child(self):
        parent = CowMap({"k": 1})
        child = parent.fork()
        parent["k"] = 99
        assert child["k"] == 1

    def test_many_children_one_copy_on_parent_write(self):
        parent = CowMap({"k": 1})
        children = [parent.fork() for _ in range(100)]
        parent["k"] = 2
        assert substrate_stats()["state_copies"] == 1
        assert all(c["k"] == 1 for c in children)

    def test_generation_bumps_on_every_mutation(self):
        m = CowMap()
        g0 = m.generation
        m["a"] = 1
        m["a"] = 2
        del m["a"]
        m.clear()
        assert m.generation == g0 + 4

    def test_fork_carries_generation(self):
        m = CowMap({"a": 1})
        m["b"] = 2
        child = m.fork()
        assert child.generation == m.generation

    def test_clear_on_shared_map_preserves_relatives(self):
        parent = CowMap({"k": 1})
        child = parent.fork()
        child.clear()
        assert len(child) == 0 and parent["k"] == 1

    def test_eager_copy_is_independent_immediately(self):
        parent = CowMap({"k": 1})
        clone = parent.copy_eager()
        assert not parent.shared and not clone.shared
        clone["k"] = 2
        assert parent["k"] == 1
        assert substrate_stats()["state_copies"] == 0  # no deferred break


class TestProcStateFork:
    def _warm(self):
        pf = ProcState()
        pf.state["inv"] = 0x1234
        stamp = object()
        pf.decision_cache = (stamp, {("op", "label"): {("/bin/sh", 1)}})
        pf.context_cache = (7, {"f": "v"})
        return pf, stamp

    def test_cow_fork_shares_everything(self):
        pf, stamp = self._warm()
        child = pf.fork()
        assert child.state._data is pf.state._data
        assert child.decision_probe(stamp) is pf.decision_probe(stamp)
        assert child.context_cache is pf.context_cache
        assert pf.decision_shared and child.decision_shared
        assert substrate_stats() == {
            "cow_forks": 1, "eager_forks": 0, "state_copies": 0,
            "decision_copies": 0, "releases": 0,
        }

    def test_eager_fork_copies_everything(self):
        pf, stamp = self._warm()
        child = pf.fork(eager=True)
        assert child.state == pf.state and child.state._data is not pf.state._data
        centries = child.decision_probe(stamp)
        pentries = pf.decision_probe(stamp)
        assert centries == pentries and centries is not pentries
        # The head sets inside must be copies too.
        assert centries[("op", "label")] is not pentries[("op", "label")]
        assert substrate_stats()["eager_forks"] == 1

    def test_decision_writable_breaks_fork_share(self):
        pf, stamp = self._warm()
        child = pf.fork()
        wentries = child.decision_writable(stamp)
        wentries[("op2", "label")] = True
        wentries[("op", "label")].add(("/bin/sh", 2))
        pentries = pf.decision_probe(stamp)
        assert ("op2", "label") not in pentries
        assert ("/bin/sh", 2) not in pentries[("op", "label")]
        assert substrate_stats()["decision_copies"] == 1
        # The child now owns its entries: no second copy.
        child.decision_writable(stamp)["op3"] = True
        assert substrate_stats()["decision_copies"] == 1

    def test_decision_writable_stamp_mismatch_discards(self):
        pf, _ = self._warm()
        fresh = pf.decision_writable(object())
        assert fresh == {}
        assert not pf.decision_shared

    def test_decision_probe_is_stamp_gated(self):
        pf, stamp = self._warm()
        assert pf.decision_probe(stamp) is not None
        assert pf.decision_probe(object()) is None

    def test_decision_invalidate_drops_only_own_side(self):
        pf, stamp = self._warm()
        child = pf.fork()
        child.decision_invalidate()
        assert child.decision_probe(stamp) is None
        assert pf.decision_probe(stamp) is not None

    def test_fork_without_decision_cache_shares_nothing_stale(self):
        pf = ProcState()
        pf.state["k"] = 1
        child = pf.fork()
        assert child.decision_cache is None and not child.decision_shared

    def test_execve_reset_abandons_shared_state(self):
        pf, stamp = self._warm()
        child = pf.fork()
        child.execve_reset()
        assert len(child.state) == 0
        assert child.decision_probe(stamp) is None
        assert child.context_cache is None
        # The parent's view is untouched.
        assert pf.state["inv"] == 0x1234
        assert pf.decision_probe(stamp) is not None
        # And no copy was charged: the child just walked away.
        assert substrate_stats()["state_copies"] == 0

    def test_grandchild_chains_share_until_written(self):
        pf, _ = self._warm()
        child = pf.fork()
        grandchild = child.fork()
        assert grandchild.state._data is pf.state._data
        grandchild.state["own"] = 1
        assert "own" not in pf.state and "own" not in child.state
        assert substrate_stats()["state_copies"] == 1

    def test_decision_cache_tuple_view_roundtrip(self):
        pf = ProcState()
        assert pf.decision_cache is None
        stamp = object()
        pf.decision_cache = (stamp, {"k": True})
        assert pf.decision_cache == (stamp, {"k": True})
        pf.decision_cache = None
        assert pf.decision_cache is None


# ---------------------------------------------------------------------------
# fork storms: write-free children off a warm parent, counted in bytes
# ---------------------------------------------------------------------------

#: Warm-parent shape: STATE entries (one recorded check identity per
#: resource) and decision-cache entries (op kinds x entrypoint heads).
STORM_STATE_KEYS = 1024
STORM_HEADS_PER_OP = 64
STORM_CHILDREN = 1000
_STORM_OPS = (Op.FILE_GETATTR, Op.FILE_OPEN, Op.DIR_SEARCH, Op.FILE_READ)


def build_fork_parent(mode):
    """A kernel in fork mode ``mode`` plus one parent with warm state.

    No firewall is attached and audit is off: the fork path under test
    is the syscall layer plus the state substrate.  The warm state is
    synthesized directly, shaped like a long-lived worker's.
    """
    kernel = build_world()
    kernel.audit_enabled = False
    kernel.fork_state_mode = mode
    parent = spawn_root_shell(kernel, comm="prefork-parent")
    for i in range(STORM_STATE_KEYS):
        parent.pf.state[(0xBEEF, i)] = 0x100000 + i
    entries = {
        (op, parent.label): {("/bin/sh", 0x1000 + j) for j in range(STORM_HEADS_PER_OP)}
        for op in _STORM_OPS
    }
    parent.pf.decision_cache = (object(), entries)
    return kernel, parent


def substrate_bytes(processes):
    """Bytes held by the firewall state of ``processes``.

    Each distinct backing container (STATE dict, decision-entry dict
    and its head sets, context-cache tuple) is counted once by
    identity, so structurally shared storage counts once across every
    relative while eager replicas count once per process.
    """
    seen = set()
    total = 0
    for proc in processes:
        pf = proc.pf
        containers = [pf.state._data]
        if pf.decision_cache is not None:
            entries = pf.decision_cache[1]
            containers.append(entries)
            containers.extend(v for v in entries.values() if v is not True)
        if pf.context_cache is not None:
            containers += [pf.context_cache, pf.context_cache[1]]
        for obj in containers:
            if id(obj) not in seen:
                seen.add(id(obj))
                total += sys.getsizeof(obj)
    return total


class TestForkStorm:
    def _storm(self, mode):
        kernel, parent = build_fork_parent(mode)
        parent_bytes = substrate_bytes([parent])
        reset_substrate_stats()
        children = [kernel.sys.fork(parent) for _ in range(STORM_CHILDREN)]
        return parent_bytes, substrate_bytes([parent] + children), substrate_stats()

    def test_cow_storm_holds_one_copy(self):
        parent_bytes, storm_bytes, stats = self._storm("cow")
        assert stats["cow_forks"] == STORM_CHILDREN
        assert stats["state_copies"] == stats["decision_copies"] == 0
        # A thousand write-free children add not one byte of state.
        assert storm_bytes == parent_bytes

    def test_eager_storm_replicates(self):
        parent_bytes, storm_bytes, stats = self._storm("eager")
        assert stats["eager_forks"] == STORM_CHILDREN
        # The reference really copies: one replica per child.
        assert storm_bytes >= 500 * parent_bytes
