"""Mangle table: mark in mangle, decide in filter."""

import pytest

from repro import errors
from repro.firewall.engine import ProcessFirewall
from repro.world import build_world, spawn_root_shell


@pytest.fixture
def world():
    return build_world()


@pytest.fixture
def firewall(world):
    pf = ProcessFirewall()
    world.attach_firewall(pf)
    return pf


class TestMangleSemantics:
    def test_mangle_runs_before_filter(self, world, firewall):
        """A mark set by mangle is visible to the filter rule mediating
        the very same operation."""
        firewall.install(
            "pftables -t mangle -A input -o FILE_OPEN -d shadow_t "
            "-j STATE --set --key 'tainted' --value 1"
        )
        firewall.install(
            "pftables -A input -o FILE_OPEN -m STATE --key 'tainted' --cmp 1 -j DROP"
        )
        root = spawn_root_shell(world)
        world.sys.open(root, "/etc/passwd")  # not marked: allowed
        with pytest.raises(errors.PFDenied):
            world.sys.open(root, "/etc/shadow")

    def test_mangle_drop_rejected_at_install(self, firewall):
        with pytest.raises(errors.EINVAL):
            firewall.install("pftables -t mangle -A input -o FILE_OPEN -j DROP")

    def test_mangle_accept_does_not_skip_filter(self, world, firewall):
        firewall.install("pftables -t mangle -A input -o FILE_OPEN -j ACCEPT")
        firewall.install("pftables -A input -o FILE_OPEN -d shadow_t -j DROP")
        root = spawn_root_shell(world)
        with pytest.raises(errors.PFDenied):
            world.sys.open(root, "/etc/shadow")

    def test_mangle_accept_skips_later_mangle_rules(self, world, firewall):
        firewall.install("pftables -t mangle -A input -o FILE_OPEN -j ACCEPT")
        firewall.install(
            "pftables -t mangle -A input -o FILE_OPEN -j STATE --set --key 'mark' --value 1"
        )
        root = spawn_root_shell(world)
        world.sys.open(root, "/etc/passwd")
        assert "mark" not in root.pf.state

    def test_mangle_log_collects(self, world, firewall):
        firewall.install("pftables -t mangle -A input -o FILE_OPEN -j LOG --prefix mg")
        root = spawn_root_shell(world)
        world.sys.open(root, "/etc/passwd")
        assert any(r["prefix"] == "mg" for r in firewall.audit.records(kind="log"))

    def test_mangle_alone_never_denies(self, world, firewall):
        firewall.install(
            "pftables -t mangle -A input -o FILE_OPEN -j STATE --set --key 'k' --value 1"
        )
        root = spawn_root_shell(world)
        world.sys.open(root, "/etc/shadow")
        assert firewall.stats.drops == 0

    def test_save_restore_preserves_mangle(self, world, firewall):
        from repro.firewall.persist import load_rules, save_rules

        firewall.install(
            "pftables -t mangle -A input -o FILE_OPEN -j STATE --set --key 'k' --value 1"
        )
        saved = save_rules(firewall)
        assert "*mangle" in saved
        clone = ProcessFirewall()
        load_rules(clone, saved)
        assert clone.rules.table("mangle").chain("input").rules
