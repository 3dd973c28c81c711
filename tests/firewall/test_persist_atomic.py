"""load_rules atomicity: a corrupt or rejected file must not half-apply.

Regression tests for the staged-swap restore: install-time failures
(e.g. a DROP rule in the mangle table, which only the apply step
rejects) used to fire after earlier lines were already installed — and
``flush=True`` had already wiped the previous rule base, stats, and
log records.
"""

import pytest

from repro import errors
from repro.firewall.engine import EngineConfig, ProcessFirewall
from repro.firewall.persist import load_rules, save_rules
from repro.world import build_world, spawn_root_shell

GOOD_RULE = "pftables -A input -o FILE_OPEN -d shadow_t -j DROP"

#: Parses cleanly line-by-line, but the mangle DROP is rejected only at
#: install time — after the filter line would already have applied.
REJECTED_AT_INSTALL = """\
*filter
:input
-A input -o FILE_OPEN -d etc_t -j DROP
COMMIT
*mangle
:input
-A input -o FILE_OPEN -j DROP
COMMIT
"""

UNPARSEABLE = """\
*filter
-A input -o FILE_OPEN -d etc_t -j DROP
GARBAGE LINE
COMMIT
"""


def _loaded_firewall():
    """A firewall with one installed rule, traffic history, and logs."""
    world = build_world()
    pf = ProcessFirewall(EngineConfig.optimized())
    world.attach_firewall(pf)
    pf.install(GOOD_RULE)
    pf.install("pftables -A input -o FILE_GETATTR -j LOG --prefix keepme")
    root = spawn_root_shell(world)
    world.sys.stat(root, "/etc/passwd")
    with pytest.raises(errors.PFDenied):
        world.sys.open(root, "/etc/shadow")
    assert pf.stats.drops == 1 and pf.audit.records(kind="log")
    return world, pf, root


class TestAtomicRestore:
    @pytest.mark.parametrize("payload", [REJECTED_AT_INSTALL, UNPARSEABLE])
    @pytest.mark.parametrize("flush", [True, False])
    def test_failed_load_leaves_everything_untouched(self, payload, flush):
        world, pf, root = _loaded_firewall()
        before_rules = save_rules(pf)
        before_stats = (pf.stats.invocations, pf.stats.drops, pf.stats.accepts)
        before_logs = list(pf.audit.records(kind="log"))
        with pytest.raises(errors.EINVAL):
            load_rules(pf, payload, flush=flush)
        assert save_rules(pf) == before_rules
        assert (pf.stats.invocations, pf.stats.drops, pf.stats.accepts) == before_stats
        assert pf.audit.records(kind="log") == before_logs
        # The surviving base still enforces.
        with pytest.raises(errors.PFDenied):
            world.sys.open(root, "/etc/shadow")

    def test_successful_load_preserves_stats_and_logs(self):
        world, pf, root = _loaded_firewall()
        stats = pf.stats
        audit = pf.audit
        logs = list(pf.audit.records(kind="log"))
        drops = stats.drops
        load_rules(pf, save_rules(pf))
        # A restore replaces policy, not history: same stats object,
        # same audit ring, same counters, same records.
        assert pf.stats is stats and pf.stats.drops == drops
        assert pf.audit is audit
        assert pf.audit.records(kind="log") == logs
        with pytest.raises(errors.PFDenied):
            world.sys.open(root, "/etc/shadow")

    def test_flush_false_appends_after_existing(self):
        world, pf, root = _loaded_firewall()
        count = pf.rules.rule_count()
        load_rules(pf, "*filter\n-A input -o FILE_OPEN -d etc_t -j DROP\nCOMMIT\n", flush=False)
        assert pf.rules.rule_count() == count + 1
        # Old and new rules both enforce.
        with pytest.raises(errors.PFDenied):
            world.sys.open(root, "/etc/shadow")
        with pytest.raises(errors.PFDenied):
            world.sys.open(root, "/etc/passwd")

    def test_failed_flush_false_load_does_not_disturb_original(self):
        world, pf, root = _loaded_firewall()
        before = save_rules(pf)
        with pytest.raises(errors.EINVAL):
            load_rules(pf, REJECTED_AT_INSTALL, flush=False)
        assert save_rules(pf) == before
        with pytest.raises(errors.PFDenied):
            world.sys.open(root, "/etc/shadow")

    def test_empty_user_chain_survives_round_trip(self):
        pf = ProcessFirewall()
        pf.install("pftables -A side_chain -o FILE_OPEN -d etc_t -j DROP")
        rule = next(iter(pf.rules.table("filter").chain("side_chain")))
        pf.rules.remove("filter", "side_chain", rule)
        saved = save_rules(pf)
        assert ":side_chain" in saved
        clone = ProcessFirewall()
        load_rules(clone, saved)
        assert save_rules(clone) == saved
