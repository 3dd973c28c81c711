"""Per-process firewall state: fork copies, execve and reap drop."""

from repro.firewall.procstate import ProcState


class TestProcStateFork:
    def _warm(self):
        pf = ProcState()
        pf.state["inv"] = 0x1234
        stamp = object()
        pf.decision_writable(stamp)[("op", "label")] = {("/bin/sh", 1)}
        pf.context_cache = (7, {"f": "v"})
        return pf, stamp

    def test_eager_fork_copies_everything(self):
        pf, stamp = self._warm()
        child = pf.fork()
        assert child.state == pf.state and child.state is not pf.state
        centries = child.decision_probe(stamp)
        pentries = pf.decision_probe(stamp)
        assert centries == pentries and centries is not pentries
        # The head sets inside must be copies too.
        assert centries[("op", "label")] is not pentries[("op", "label")]
        # The context cache is replaced wholesale, never mutated.
        assert child.context_cache is pf.context_cache

    def test_child_writes_do_not_reach_the_parent(self):
        pf, stamp = self._warm()
        child = pf.fork()
        child.state["inv"] = 0x5678
        wentries = child.decision_writable(stamp)
        wentries[("op2", "label")] = True
        wentries[("op", "label")].add(("/bin/sh", 2))
        assert pf.state["inv"] == 0x1234
        pentries = pf.decision_probe(stamp)
        assert ("op2", "label") not in pentries
        assert ("/bin/sh", 2) not in pentries[("op", "label")]

    def test_grandchild_writes_stay_its_own(self):
        pf, stamp = self._warm()
        child = pf.fork()
        grandchild = child.fork()
        assert grandchild.state == pf.state
        grandchild.state["own"] = 1
        grandchild.decision_writable(stamp)[("op", "label")].add(("/bin/sh", 3))
        for relative in (pf, child):
            assert "own" not in relative.state
            assert ("/bin/sh", 3) not in relative.decision_probe(stamp)[("op", "label")]

    def test_decision_writable_stamp_mismatch_discards(self):
        pf, _ = self._warm()
        fresh = pf.decision_writable(object())
        assert fresh == {}

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
        assert child.decision_cache is None

    def test_execve_reset_abandons_shared_state(self):
        pf, stamp = self._warm()
        child = pf.fork()
        child.release()
        assert len(child.state) == 0
        assert child.decision_probe(stamp) is None
        assert child.context_cache is None
        # The parent's view is untouched.
        assert pf.state["inv"] == 0x1234
        assert pf.decision_probe(stamp) is not None

    def test_decision_cache_tuple_view_roundtrip(self):
        pf = ProcState()
        assert pf.decision_cache is None
        stamp = object()
        pf.decision_writable(stamp)["k"] = True
        assert pf.decision_cache == (stamp, {"k": True})
        pf.decision_invalidate()
        assert pf.decision_cache is None
