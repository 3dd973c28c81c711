"""The rule-processing engine: verdicts, chains, caching, optimizations."""

import pytest

from repro import errors
from repro.firewall.context import ContextField
from repro.firewall.engine import EngineConfig, ProcessFirewall
from repro.security.lsm import Op, Operation
from repro.vfs.file import OpenFlags
from repro.world import build_world, spawn_adversary, spawn_root_shell


def make_world(config=None, rules=()):
    world = build_world()
    pf = ProcessFirewall(config or EngineConfig.optimized())
    world.attach_firewall(pf)
    pf.install_all(list(rules))
    return world, pf


class TestVerdicts:
    def test_default_allow(self):
        world, pf = make_world()
        root = spawn_root_shell(world)
        world.sys.open(root, "/etc/passwd")
        assert pf.stats.drops == 0

    def test_drop_raises_pfdenied_with_rule(self):
        world, pf = make_world(rules=["pftables -A input -o FILE_OPEN -d etc_t -j DROP"])
        root = spawn_root_shell(world)
        with pytest.raises(errors.PFDenied) as excinfo:
            world.sys.open(root, "/etc/passwd")
        assert excinfo.value.rule is not None
        assert "etc_t" in excinfo.value.rule.text

    def test_pfdenied_is_eacces(self):
        world, pf = make_world(rules=["pftables -A input -o FILE_OPEN -d etc_t -j DROP"])
        root = spawn_root_shell(world)
        with pytest.raises(errors.EACCES):
            world.sys.open(root, "/etc/passwd")

    def test_accept_short_circuits_later_drop(self):
        world, pf = make_world(
            rules=[
                "pftables -A input -o FILE_OPEN -d etc_t -j ACCEPT",
                "pftables -A input -o FILE_OPEN -d etc_t -j DROP",
            ]
        )
        root = spawn_root_shell(world)
        world.sys.open(root, "/etc/passwd")  # not dropped

    def test_disabled_engine_never_blocks(self):
        world, pf = make_world(
            config=EngineConfig.disabled(),
            rules=["pftables -A input -o FILE_OPEN -d etc_t -j DROP"],
        )
        root = spawn_root_shell(world)
        world.sys.open(root, "/etc/passwd")
        assert pf.stats.invocations == 0

    def test_detach_firewall_restores_stock(self):
        world, pf = make_world(rules=["pftables -A input -o FILE_OPEN -d etc_t -j DROP"])
        root = spawn_root_shell(world)
        world.detach_firewall()
        world.sys.open(root, "/etc/passwd")

    def test_drop_recorded_in_audit(self):
        world, pf = make_world(rules=["pftables -A input -o FILE_OPEN -d etc_t -j DROP"])
        root = spawn_root_shell(world)
        with pytest.raises(errors.PFDenied):
            world.sys.open(root, "/etc/passwd")
        assert any(rec.decision == "pf_drop" for rec in world.audit)


class TestChains:
    def test_jump_and_return(self):
        world, pf = make_world(
            rules=[
                "pftables -A input -o FILE_OPEN -j sidechain",
                "pftables -A sidechain -d shadow_t -j DROP",
            ]
        )
        root = spawn_root_shell(world)
        world.sys.open(root, "/etc/passwd")  # passes through side chain
        with pytest.raises(errors.PFDenied):
            world.sys.open(root, "/etc/shadow")

    def test_return_target_resumes_parent(self):
        world, pf = make_world(
            rules=[
                "pftables -A input -o FILE_OPEN -j sidechain",
                "pftables -A sidechain -j RETURN",
                "pftables -A sidechain -j DROP",
                "pftables -A input -o FILE_OPEN -d shadow_t -j DROP",
            ]
        )
        root = spawn_root_shell(world)
        world.sys.open(root, "/etc/passwd")
        with pytest.raises(errors.PFDenied):
            world.sys.open(root, "/etc/shadow")

    def test_jump_loop_guard(self):
        world, pf = make_world(
            rules=[
                "pftables -A loopchain -j loopchain",
                "pftables -A input -o FILE_OPEN -j loopchain",
            ]
        )
        root = spawn_root_shell(world)
        with pytest.raises(errors.EINVAL):
            world.sys.open(root, "/etc/passwd")

    def test_syscallbegin_chain_sees_every_syscall(self):
        world, pf = make_world(
            rules=["pftables -A syscallbegin -m SYSCALL_ARGS --arg 0 --equal getpid -j DROP"]
        )
        root = spawn_root_shell(world)
        with pytest.raises(errors.PFDenied):
            world.sys.getpid(root)
        world.sys.getuid(root)  # different name: allowed

    def test_create_chain_sees_file_creates(self):
        world, pf = make_world(rules=["pftables -A create -d tmp_t -j DROP"])
        root = spawn_root_shell(world)
        with pytest.raises(errors.PFDenied):
            world.sys.open(root, "/tmp/new", flags=OpenFlags.O_CREAT)
        world.sys.open(root, "/etc/passwd")  # plain opens unaffected


class TestStateAndLog:
    def test_state_target_and_match_roundtrip(self):
        world, pf = make_world(
            rules=[
                "pftables -A input -o SOCKET_BIND -j STATE --set --key 0xbeef --value C_INO",
                "pftables -A input -o SOCKET_SETATTR -m STATE --key 0xbeef --cmp C_INO --nequal -j DROP",
            ]
        )
        root = spawn_root_shell(world)
        inode = world.sys.bind(root, "/tmp/sock")
        assert root.pf.state[0xBEEF] == inode.ino
        world.sys.chmod(root, "/tmp/sock", 0o666)  # same inode: allowed

    def test_log_target_records_context(self):
        world, pf = make_world(rules=["pftables -A input -o FILE_OPEN -j LOG --prefix trace"])
        root = spawn_root_shell(world)
        root.call(root.binary, 0x42)
        world.sys.open(root, "/etc/passwd")
        record = pf.audit.records(kind="log")[-1]
        assert record["prefix"] == "trace"
        assert record["op"] == "FILE_OPEN"
        assert record["object_label"] == "etc_t"
        assert record["entrypoint"] == ["/bin/sh", 0x42]
        assert record["adv_writable"] is False

    def test_log_does_not_block(self):
        world, pf = make_world(rules=["pftables -A input -o FILE_OPEN -j LOG"])
        root = spawn_root_shell(world)
        world.sys.open(root, "/etc/passwd")


class TestOptimizationEquivalence:
    CONFIGS = ["unoptimized", "concache", "lazycon", "optimized", "compiled"]

    RULES = [
        "pftables -A input -o FILE_OPEN -d shadow_t -j DROP",
        "pftables -A input -o LNK_FILE_READ -m ADVERSARY --writable "
        "-m COMPARE --v1 C_DAC_OWNER --v2 C_TGT_DAC_OWNER --nequal -j DROP",
        "pftables -A input -i 0x2d637 -p /bin/sh -o FILE_OPEN -d tmp_t -j DROP",
    ]

    def _outcomes(self, config_name):
        world, pf = make_world(config=getattr(EngineConfig, config_name)(), rules=self.RULES)
        root = spawn_root_shell(world)
        adversary = spawn_adversary(world)
        world.add_file("/tmp/data", b"x", uid=1000, mode=0o666)
        world.sys.symlink(adversary, "/etc/passwd", "/tmp/trap")
        outcomes = []
        for action in [
            lambda: world.sys.open(root, "/etc/passwd"),
            lambda: world.sys.open(root, "/etc/shadow"),
            lambda: world.sys.open(root, "/tmp/trap"),
            lambda: world.sys.open(root, "/tmp/data"),
        ]:
            try:
                action()
                outcomes.append("allow")
            except errors.PFDenied:
                outcomes.append("drop")
        # Entry-pointed rule: open /tmp/data from the watched call site.
        root.call(root.binary, 0x2D637)
        try:
            world.sys.open(root, "/tmp/data")
            outcomes.append("allow")
        except errors.PFDenied:
            outcomes.append("drop")
        root.ret()
        return outcomes

    @pytest.mark.parametrize("config_name", CONFIGS)
    def test_all_configs_agree(self, config_name):
        expected = ["allow", "drop", "drop", "allow", "drop"]
        assert self._outcomes(config_name) == expected

    def test_eager_collects_more_context(self):
        lazy_world, lazy_pf = make_world(config=EngineConfig.optimized(), rules=self.RULES)
        eager_world, eager_pf = make_world(config=EngineConfig.unoptimized(), rules=self.RULES)
        for world in (lazy_world, eager_world):
            root = spawn_root_shell(world)
            world.sys.open(root, "/etc/passwd")
        lazy_unwinds = lazy_pf.stats.context_collections.get("ENTRYPOINT", 0)
        eager_unwinds = eager_pf.stats.context_collections.get("ENTRYPOINT", 0)
        assert eager_unwinds > lazy_unwinds

    def test_context_cache_hits_within_syscall(self):
        world, pf = make_world(
            config=EngineConfig.optimized(),
            rules=["pftables -A input -i 0x10 -p /bin/sh -o DIR_SEARCH -j DROP"],
        )
        root = spawn_root_shell(world)
        root.call(root.binary, 0x99)
        world.sys.open(root, "/etc/passwd")  # multi-component walk
        assert pf.stats.cache_hits > 0

    def test_without_cache_no_hits(self):
        world, pf = make_world(
            config=EngineConfig.unoptimized(),
            rules=["pftables -A input -i 0x10 -p /bin/sh -o DIR_SEARCH -j DROP"],
        )
        root = spawn_root_shell(world)
        world.sys.open(root, "/etc/passwd")
        assert pf.stats.cache_hits == 0

    def test_entrypoint_chains_skip_rules(self):
        rules = [
            "pftables -A input -i {:#x} -p /usr/bin/other -o FILE_OPEN -j DROP".format(0x1000 + i)
            for i in range(50)
        ]
        linear_world, linear_pf = make_world(config=EngineConfig.lazycon(), rules=rules)
        indexed_world, indexed_pf = make_world(config=EngineConfig.optimized(), rules=rules)
        for world in (linear_world, indexed_world):
            root = spawn_root_shell(world)
            world.sys.open(root, "/etc/passwd")
        assert indexed_pf.stats.rules_evaluated < linear_pf.stats.rules_evaluated


class TestCacheHitAccounting:
    """``stats.cache_hits`` counts fields a rule *used* from the
    per-process context cache — not every field the cache carried."""

    RULES = [
        # DIR_SEARCH reads the entrypoint (bucket resolution); the
        # FILE_OPEN rule reads only the object label.
        "pftables -A input -i 0x10 -p /bin/sh -o DIR_SEARCH -j DROP",
        "pftables -A input -o FILE_OPEN -d shadow_t -j DROP",
    ]

    def test_hits_count_uses_not_absorptions(self):
        world, pf = make_world(config=EngineConfig.optimized(), rules=self.RULES)
        root = spawn_root_shell(world)
        root.call(root.binary, 0x99)
        # open("/etc/passwd"): DIR_SEARCH on "/" collects ENTRYPOINT
        # (a miss), DIR_SEARCH on "/etc" reads it from the cache (one
        # hit).  The FILE_OPEN mediation absorbs the cached entrypoint
        # but never reads it — the old accounting charged a hit there
        # too.
        world.sys.open(root, "/etc/passwd")
        assert pf.stats.cache_hits == 1

    def test_unused_cached_fields_never_counted(self):
        world, pf = make_world(
            config=EngineConfig.optimized(),
            rules=["pftables -A input -o FILE_OPEN -d shadow_t -j DROP"],
        )
        root = spawn_root_shell(world)
        # No rule reads any syscall-scoped field: nothing is cached,
        # nothing is hit.
        world.sys.open(root, "/etc/passwd")
        assert pf.stats.cache_hits == 0

    def test_eager_mode_counts_cache_absorbed_collections(self):
        # In eager (CONCACHE) mode the cache stands in for whole
        # collections, so an absorbed *needed* field counts even
        # without a rule-level read.
        world, pf = make_world(
            config=EngineConfig.concache(),
            rules=["pftables -A input -i 0x10 -p /bin/sh -o DIR_SEARCH -j DROP"],
        )
        root = spawn_root_shell(world)
        world.sys.open(root, "/etc/passwd")
        assert pf.stats.cache_hits > 0


class TestDecisionCache:
    """The COMPILED negative-decision cache (beyond-EPTSPC rung)."""

    RULES = [
        "pftables -A input -o FILE_OPEN -d shadow_t -j DROP",
        "pftables -A input -i 0x2d637 -p /bin/sh -o FILE_GETATTR -j DROP",
    ]

    def _world(self, rules=None):
        world, pf = make_world(config=EngineConfig.compiled(), rules=rules or self.RULES)
        return world, pf, spawn_root_shell(world)

    def test_repeat_allows_short_circuit(self):
        world, pf, root = self._world()
        for _ in range(5):
            world.sys.stat(root, "/etc/passwd")
        assert pf.stats.decision_cache_hits > 0
        assert pf.stats.drops == 0

    def test_verdicts_unchanged_by_cache(self):
        world, pf, root = self._world()
        for _ in range(3):
            world.sys.stat(root, "/etc/passwd")  # warm the memo
        with pytest.raises(errors.PFDenied):
            world.sys.open(root, "/etc/shadow")
        root.call(root.binary, 0x2D637)
        with pytest.raises(errors.PFDenied):
            world.sys.stat(root, "/etc/passwd")  # watched call site
        root.ret()
        world.sys.stat(root, "/etc/passwd")  # and back to allowed

    def test_rule_install_invalidates(self):
        world, pf, root = self._world()
        for _ in range(3):
            world.sys.stat(root, "/etc/passwd")
        assert pf.stats.decision_cache_hits > 0
        pf.install("pftables -A input -o FILE_GETATTR -d etc_t -j DROP")
        with pytest.raises(errors.PFDenied):
            world.sys.stat(root, "/etc/passwd")

    def test_state_target_clears_per_task_cache(self):
        world, pf, root = self._world(
            rules=self.RULES
            + ["pftables -A input -o SOCKET_BIND -j STATE --set --key 0x1 --value C_INO"]
        )
        for _ in range(2):
            world.sys.stat(root, "/etc/passwd")
        assert root.pf.decision_cache is not None
        world.sys.bind(root, "/tmp/sock")  # STATE target fires
        assert root.pf.decision_cache is None

    def test_matched_rules_never_memoized(self):
        # A LOG rule matches every FILE_OPEN: each open must emit a
        # fresh record, so none of these traversals may be cached.
        world, pf, root = self._world(
            rules=["pftables -A input -o FILE_OPEN -j LOG --prefix t"]
        )
        for _ in range(4):
            world.sys.open(root, "/etc/passwd")
        assert len([r for r in pf.audit.records(kind="log") if r["prefix"] == "t"]) == 4

    def test_fork_inherits_and_execve_clears(self):
        world, pf, root = self._world()
        for _ in range(2):
            world.sys.stat(root, "/etc/passwd")
        assert root.pf.decision_cache is not None
        child = world.sys.fork(root)
        assert child.pf.decision_cache is not None
        # CoW contract: the entries are structurally shared right after
        # fork (O(1) inheritance) ...
        assert child.pf.decision_cache[1] is root.pf.decision_cache[1]
        before = {k: set(v) if v is not True else True for k, v in root.pf.decision_cache[1].items()}
        # ... and the first memoization on either side breaks the share:
        # the child warming a new entrypoint head must not leak into
        # the parent.
        child.call(child.binary, 0x1)
        world.sys.stat(child, "/etc/passwd")
        assert child.pf.decision_cache[1] is not root.pf.decision_cache[1]
        assert root.pf.decision_cache[1] == before
        world.sys.execve(child, "/bin/sh")
        assert child.pf.decision_cache is None
        assert root.pf.decision_cache is not None

    def test_flush_invalidates_via_stamp(self):
        world, pf, root = self._world()
        for _ in range(2):
            world.sys.stat(root, "/etc/passwd")
        pf.flush()
        pf.install("pftables -A input -o FILE_GETATTR -d etc_t -j DROP")
        with pytest.raises(errors.PFDenied):
            world.sys.stat(root, "/etc/passwd")

    def test_eptspc_config_has_no_decision_hits(self):
        world, pf = make_world(config=EngineConfig.optimized(), rules=self.RULES)
        root = spawn_root_shell(world)
        for _ in range(3):
            world.sys.stat(root, "/etc/passwd")
        assert pf.stats.decision_cache_hits == 0


class TestReentrancy:
    def test_per_process_traversal_state(self):
        """§5.1: traversal state lives on the task, so concurrent
        processes mid-walk never corrupt each other."""
        world, pf = make_world(rules=["pftables -A input -o FILE_OPEN -d shadow_t -j DROP"])
        a = spawn_root_shell(world)
        b = spawn_root_shell(world)
        # Interleave two processes' syscalls; both must be judged
        # correctly and no irq-disable emulation should trigger.
        world.sys.open(a, "/etc/passwd")
        with pytest.raises(errors.PFDenied):
            world.sys.open(b, "/etc/shadow")
        world.sys.open(a, "/etc/passwd")
        assert pf.stats.irq_disables == 0

    def test_global_state_ablation_counts_irq_disables(self):
        config = EngineConfig.optimized().clone(global_traversal_state=True)
        world, pf = make_world(config=config, rules=["pftables -A input -o FILE_OPEN -d shadow_t -j DROP"])
        root = spawn_root_shell(world)
        world.sys.open(root, "/etc/passwd")
        assert pf.stats.irq_disables > 0

    def test_denied_mediation_unwinds_shared_traversal_state(self):
        """Regression: a DROP must pop the iptables-style shared
        traversal entry on the way out — PFDenied used to propagate
        past the pop, leaving a phantom in-flight walk behind."""
        config = EngineConfig.optimized().clone(global_traversal_state=True)
        world, pf = make_world(config=config, rules=["pftables -A input -o FILE_OPEN -d shadow_t -j DROP"])
        root = spawn_root_shell(world)
        with pytest.raises(errors.PFDenied):
            world.sys.open(root, "/etc/shadow")
        assert pf._shared_traversal == []
        # The state machine still works after the denial: allowed
        # accesses go through and also leave the shared list empty.
        world.sys.open(root, "/etc/passwd")
        assert pf._shared_traversal == []


class TestMaliciousProcesses:
    def test_forged_stack_only_hurts_the_forger(self):
        """§4.4: a forged stack removes the forger's protection but the
        engine neither crashes nor blocks other processes."""
        world, pf = make_world(
            rules=["pftables -A input -i 0x2d637 -p /bin/sh -o FILE_OPEN -d etc_t -j DROP"]
        )
        honest = spawn_root_shell(world)
        forger = spawn_root_shell(world)
        forger.stack.push(0xDEADBEEF)  # unmapped PC
        world.sys.open(forger, "/etc/passwd")  # rule cannot match: allowed
        honest.call(honest.binary, 0x2D637)
        with pytest.raises(errors.PFDenied):
            world.sys.open(honest, "/etc/passwd")

    @pytest.mark.parametrize("corrupt_below", [0, 1])
    def test_corrupted_stack_graceful(self, corrupt_below):
        """A corrupted frame anywhere in the stack — the head itself,
        or one frame below a valid head — leaves no entrypoint, so an
        ``-i <head>`` rule cannot fire."""
        world, pf = make_world(
            rules=["pftables -A input -i 0x2d637 -p /bin/sh -o FILE_OPEN -d etc_t -j DROP"]
        )
        victim = spawn_root_shell(world)
        victim.call(victim.binary, 0x1000)
        victim.call(victim.binary, 0x2D637)
        with pytest.raises(errors.PFDenied):
            world.sys.open(victim, "/etc/passwd")  # intact stack: the rule fires
        victim.stack.corrupt_below = corrupt_below
        world.sys.open(victim, "/etc/passwd")  # unwind aborts: no match

    def test_flush_resets_everything(self):
        world, pf = make_world(rules=["pftables -A input -o FILE_OPEN -d etc_t -j DROP"])
        pf.flush()
        root = spawn_root_shell(world)
        world.sys.open(root, "/etc/passwd")
        assert pf.rules.rule_count() == 0


class TestFailureInjection:
    def test_context_module_efault_yields_none(self, monkeypatch):
        """A context module hitting bad memory must not fail the
        mediation — the value degrades to None (paper §4.4)."""
        from repro.firewall.modules import registry

        world, pf = make_world(
            rules=["pftables -A input -o FILE_OPEN -d shadow_t -j DROP"]
        )
        original = registry.CONTEXT_MODULES[
            __import__("repro.firewall.context", fromlist=["ContextField"]).ContextField.OBJECT_LABEL
        ].collect

        def exploding(operation, kernel):
            raise errors.EFAULT("bad userspace pointer")

        from repro.firewall.context import ContextField

        monkeypatch.setattr(registry.CONTEXT_MODULES[ContextField.OBJECT_LABEL], "collect", exploding)
        root = spawn_root_shell(world)
        # Label collection fails -> ObjectMatch sees None -> no match ->
        # allowed; crucially, no exception escapes to the syscall.
        world.sys.open(root, "/etc/shadow")
        assert pf.stats.drops == 0

    def test_eager_mode_survives_efault(self, monkeypatch):
        from repro.firewall.context import ContextField
        from repro.firewall.modules import registry

        world, pf = make_world(
            config=EngineConfig.unoptimized(),
            rules=["pftables -A input -o FILE_OPEN -d shadow_t -j DROP"],
        )

        def exploding(operation, kernel):
            raise errors.EFAULT("bad userspace pointer")

        monkeypatch.setattr(registry.CONTEXT_MODULES[ContextField.OBJECT_LABEL], "collect", exploding)
        root = spawn_root_shell(world)
        world.sys.open(root, "/etc/passwd")
