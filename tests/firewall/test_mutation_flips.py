"""Verdict flips after state mutation, on every caching engine rung.

Every test follows the same shape: mediate once so the engine's caches
(the per-process decision and context caches, the dentry/walk caches)
have seen an answer, mutate system state through the VFS, the adversary
model or the rule base, and assert the next mediation sees the *new*
answer — a stale cache here is not a perf bug but a security hole (the
firewall would keep trusting a resource an adversary just gained access
to).
"""

import pytest

from repro import errors
from repro.firewall.engine import EngineConfig, ProcessFirewall
from repro.world import build_world, spawn_root_shell

WRITABLE_DROP = "pftables -A input -o FILE_OPEN -m ADVERSARY --writable -j DROP"
TMP_LABEL_DROP = "pftables -A input -o FILE_OPEN -d tmp_t -j DROP"


# "JITTED" is the retired spelling the repo benchmark still passes; it
# must resolve to a working COMPILED engine.
@pytest.fixture(params=["EPTSPC", "COMPILED", "JITTED"])
def preset(request):
    return request.param


def make_world(preset, *rules):
    world = build_world()
    pf = ProcessFirewall(EngineConfig.preset(preset))
    world.attach_firewall(pf)
    for rule in rules:
        pf.install(rule)
    root = spawn_root_shell(world)
    return world, pf, root


def attempt_open(world, proc, path):
    """One mediated open; returns "allow" or "drop"."""
    try:
        fd = world.sys.open(proc, path)
        world.sys.close(proc, fd)
        return "allow"
    except errors.PFDenied:
        return "drop"


class TestInvalidationFlips:
    """Each mutation must flip the verdict it affects."""

    def _adversarial_world(self, preset):
        """World with one non-root user (the DAC adversary)."""
        world, pf, root = make_world(preset, WRITABLE_DROP)
        world.spawn("adv", uid=1000, label="user_t", binary_path="/bin/sh")
        return world, pf, root

    def test_repeat_access_keeps_verdict(self, preset):
        world, pf, root = self._adversarial_world(preset)
        world.add_file("/tmp/victim", b"x", uid=0, mode=0o666, label="tmp_t")
        assert attempt_open(world, root, "/tmp/victim") == "drop"
        assert attempt_open(world, root, "/tmp/victim") == "drop"
        assert pf.stats.drops == 2

    def test_chmod_flips_adversary_writable(self, preset):
        world, pf, root = self._adversarial_world(preset)
        victim = world.add_file("/tmp/victim", b"x", uid=0, mode=0o666, label="tmp_t")
        assert attempt_open(world, root, "/tmp/victim") == "drop"
        world.fs.chmod(victim, 0o600)  # root-only: no adversary writers
        assert attempt_open(world, root, "/tmp/victim") == "allow"

    def test_chown_flips_adversary_writable(self, preset):
        world, pf, root = self._adversarial_world(preset)
        victim = world.add_file("/tmp/victim", b"x", uid=0, mode=0o644, label="tmp_t")
        assert attempt_open(world, root, "/tmp/victim") == "allow"
        world.fs.chown(victim, 1000)  # owner write bit now an adversary's
        assert attempt_open(world, root, "/tmp/victim") == "drop"

    def test_relabel_flips_object_label(self, preset):
        world, pf, root = make_world(preset, TMP_LABEL_DROP)
        victim = world.add_file("/tmp/victim", b"x", uid=0, mode=0o644, label="tmp_t")
        assert attempt_open(world, root, "/tmp/victim") == "drop"
        world.fs.relabel(victim, "etc_t")
        assert attempt_open(world, root, "/tmp/victim") == "allow"

    def test_rename_replacement_flips_answer(self, preset):
        """An adversary renaming their file over a trusted path must not
        inherit the trusted inode's accessibility."""
        world, pf, root = self._adversarial_world(preset)
        world.add_file("/etc/target", b"x", uid=0, mode=0o600, label="etc_t")
        evil = world.add_file("/tmp/evil", b"y", uid=1000, mode=0o666, label="tmp_t")
        assert attempt_open(world, root, "/etc/target") == "allow"
        assert attempt_open(world, root, "/tmp/evil") == "drop"
        world.fs.rename(world.lookup("/tmp"), "evil", world.lookup("/etc"), "target")
        assert world.lookup("/etc/target") is evil
        assert attempt_open(world, root, "/etc/target") == "drop"

    def test_unlink_then_recycled_inode_is_not_stale(self, preset):
        """The cryogenic-sleep shape: the inode *number* comes back but
        the generation differs, so nothing learnt about the prior tenant
        may apply."""
        world, pf, root = make_world(preset, TMP_LABEL_DROP)
        victim = world.add_file("/tmp/victim", b"x", uid=0, mode=0o644, label="tmp_t")
        assert attempt_open(world, root, "/tmp/victim") == "drop"
        world.sys.unlink(root, "/tmp/victim")
        fresh = world.add_file("/tmp/victim", b"y", uid=0, mode=0o644, label="etc_t")
        assert fresh.ino == victim.ino  # number recycled ...
        assert fresh.generation != victim.generation  # ... tenant changed
        assert attempt_open(world, root, "/tmp/victim") == "allow"

    def test_remount_invalidates(self, preset):
        world, pf, root = self._adversarial_world(preset)
        world.add_file("/tmp/victim", b"x", uid=0, mode=0o666, label="tmp_t")
        assert attempt_open(world, root, "/tmp/victim") == "drop"
        world.fs.remount()
        assert attempt_open(world, root, "/tmp/victim") == "drop"

    def test_new_uid_bumps_epoch_and_flips(self, preset):
        """A user added *after* the first answer is a brand-new
        adversary; "nobody can write this" must not survive."""
        world, pf, root = make_world(preset, WRITABLE_DROP)
        # Owner uid 2000 is not in the known-UID population yet, so the
        # owner-writable file has no adversary writers.
        world.add_file("/tmp/victim", b"x", uid=2000, mode=0o600, label="tmp_t")
        assert attempt_open(world, root, "/tmp/victim") == "allow"
        epoch = world.adversaries.epoch
        world.spawn("adv", uid=2000, label="user_t", binary_path="/bin/sh")
        assert world.adversaries.epoch > epoch
        assert attempt_open(world, root, "/tmp/victim") == "drop"

    def test_rule_base_stamp_invalidates(self, preset):
        world, pf, root = self._adversarial_world(preset)
        world.add_file("/tmp/victim", b"x", uid=0, mode=0o644, label="tmp_t")
        assert attempt_open(world, root, "/tmp/victim") == "allow"
        pf.install(TMP_LABEL_DROP)  # any rule mutation moves the stamp
        assert attempt_open(world, root, "/tmp/victim") == "drop"
