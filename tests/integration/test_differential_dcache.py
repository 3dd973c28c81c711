"""The name-resolution fast path changes nothing: the ``dcache-off``
row of the differential matrix (``tests/differential.py``), cold walks
pinned to cached ones; and the symlink races still land under the
cache."""

import pytest

from repro.attacks.exploits import EXPLOITS
from repro.firewall.engine import EngineConfig, ProcessFirewall
from repro.firewall.persist import save_rules
from repro.rulesets.generated import install_full_rulebase
from repro.world import build_world
from tests.differential import EIDS, SERVICE, check, observe, tally


@pytest.mark.parametrize("eid", EIDS)
def test_exploits_identical_with_and_without_dcache(eid):
    check("dcache-off", eid + "/attack", eid + "/benign")


def test_dcache_actually_engaged_in_scenarios():
    columns = [eid + arm for eid in EIDS for arm in ("/attack", "/benign")]
    assert tally("dcache-off", "walk_hits", columns, side=1) > 0


def test_macro_replay_identical_with_and_without_dcache():
    check("dcache-off", "macro")
    assert tally("dcache-off", "walk_hits", ["macro"], side=1) > 0


def test_service_generators_identical_with_and_without_dcache():
    check("dcache-off", SERVICE)
    assert observe(SERVICE, "COMPILED")["loose"]["result"] > 0


@pytest.mark.parametrize("eid", ["E5", "E9"])
def test_race_exploits_still_fire_under_cache(eid):
    """Stamp-precise invalidation is the whole point: with no firewall,
    the adversary's namespace flip mid-race retargets the victim's
    *cached* resolution, so the attack lands exactly as it does cold."""
    cached = EXPLOITS[eid]()
    result = cached.run(with_firewall=False)
    assert cached.kernel.dcache.enabled
    assert result.succeeded and not result.blocked

    cold_scenario = EXPLOITS[eid]()
    cold_scenario.build(False)
    cold_scenario.kernel.dcache.enabled = False
    assert bool(cold_scenario._attack()) == result.succeeded


def test_save_rules_roundtrip_unaffected_by_dcache():
    """Rule persistence (pure string plumbing) sees no kernel state."""
    world = build_world()
    firewall = ProcessFirewall(EngineConfig.compiled())
    world.attach_firewall(firewall)
    install_full_rulebase(firewall)
    text = save_rules(firewall)
    world.dcache.enabled = False
    assert save_rules(firewall) == text
