"""AuditRing: wraparound, severity filtering, and the log_records view."""

import json

import pytest

from repro import errors
from repro.firewall.engine import ProcessFirewall
from repro.obs import DEBUG, ERROR, INFO, WARNING, AuditRing, severity_level, severity_name
from repro.world import build_world, spawn_root_shell


class TestRingBasics:
    def test_emit_returns_monotonic_seq(self):
        ring = AuditRing(capacity=8)
        assert [ring.emit({"n": i}) for i in range(5)] == [0, 1, 2, 3, 4]
        assert len(ring) == 5
        assert ring.evicted == 0

    def test_wraparound_evicts_oldest_and_counts(self):
        ring = AuditRing(capacity=4)
        for i in range(10):
            ring.emit({"n": i})
        assert len(ring) == 4
        assert ring.evicted == 6
        # Survivors are the newest four, in emission order, with their
        # original sequence numbers intact.
        assert [e.record["n"] for e in ring.entries()] == [6, 7, 8, 9]
        assert [e.seq for e in ring.entries()] == [6, 7, 8, 9]

    def test_seq_survives_clear(self):
        ring = AuditRing(capacity=4)
        ring.emit({})
        ring.clear()
        assert len(ring) == 0
        assert ring.emit({}) == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            AuditRing(capacity=0)


class TestSeverity:
    def test_levels_are_ordered(self):
        assert DEBUG < INFO < WARNING < ERROR

    def test_name_level_round_trip(self):
        for name in ("debug", "info", "warning", "error"):
            assert severity_name(severity_level(name)) == name

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            severity_level("shouty")

    def test_min_severity_filter(self):
        ring = AuditRing(capacity=16)
        ring.emit({"n": 0}, severity=DEBUG)
        ring.emit({"n": 1}, severity="info")
        ring.emit({"n": 2}, severity=WARNING)
        ring.emit({"n": 3}, severity="error")
        assert [e.record["n"] for e in ring.entries(min_severity="warning")] == [2, 3]
        assert [e.record["n"] for e in ring.entries(min_severity=DEBUG)] == [0, 1, 2, 3]

    def test_kind_filter(self):
        ring = AuditRing(capacity=16)
        ring.emit({"n": 0}, kind="log")
        ring.emit({"n": 1}, kind="drop")
        ring.emit({"n": 2}, kind="log")
        assert [r["n"] for r in ring.records(kind="log")] == [0, 2]
        assert [r["n"] for r in ring.records(kind="drop")] == [1]

    def test_as_dict_flattens_metadata(self):
        ring = AuditRing()
        ring.emit({"path": "/etc/shadow"}, severity=WARNING, kind="drop")
        entry = ring.entries()[0]
        flat = entry.as_dict()
        assert flat["seq"] == 0
        assert flat["severity"] == "warning"
        assert flat["kind"] == "drop"
        assert flat["path"] == "/etc/shadow"


def _shadow_world(extra_rules=()):
    world = build_world()
    firewall = ProcessFirewall()
    world.attach_firewall(firewall)
    firewall.install("pftables -A input -o FILE_OPEN -d shadow_t -j LOG --prefix shadow")
    for line in extra_rules:
        firewall.install(line)
    shell = spawn_root_shell(world)
    return world, firewall, shell


class TestLogRecordsView:
    def test_log_records_is_plain_json_ready_list(self):
        world, firewall, shell = _shadow_world()
        fd = world.sys.open(shell, "/etc/shadow")
        world.sys.close(shell, fd)
        records = firewall.audit.records(kind="log")
        assert isinstance(records, list) and len(records) == 1
        assert records[0]["prefix"] == "shadow"
        json.dumps(records)  # rulegen consumes this via json.dumps

    def test_drop_records_do_not_leak_into_log_view(self):
        world, firewall, shell = _shadow_world(
            ["pftables -A input -o FILE_OPEN -d shadow_t -j DROP"])
        with pytest.raises(errors.PFDenied):
            world.sys.open(shell, "/etc/shadow")
        # One LOG record; the drop notification lives on its own channel.
        assert len(firewall.audit.records(kind="log")) == 1
        drops = firewall.audit.records(kind="drop")
        assert len(drops) == 1
        assert drops[0]["path"] == "/etc/shadow"
        assert drops[0]["rule"].endswith("-j DROP")
        assert firewall.audit.entries(kind="drop")[0].severity == WARNING

    def test_log_level_option_sets_severity(self):
        world, firewall, shell = _shadow_world(
            ["pftables -A input -o FILE_READ -d shadow_t -j LOG --level error"])
        fd = world.sys.open(shell, "/etc/shadow")
        world.sys.read(shell, fd, 16)
        world.sys.close(shell, fd)
        severities = [e.severity for e in firewall.audit.entries(kind="log")]
        assert INFO in severities and ERROR in severities
        # Filtering by severity keeps only the --level error record.
        errors_only = firewall.audit.records(min_severity="error", kind="log")
        assert len(errors_only) == 1

    def test_bad_level_rejected_at_install(self):
        firewall = ProcessFirewall()
        with pytest.raises(errors.EINVAL):
            firewall.install(
                "pftables -A input -o FILE_OPEN -d shadow_t -j LOG --level loud")


class TestForkExecInteraction:
    def test_ring_is_per_firewall_not_per_process(self):
        world, firewall, shell = _shadow_world()
        child = world.sys.fork(shell)
        fd = world.sys.open(child, "/etc/shadow")
        world.sys.close(child, fd)
        world.sys.execve(child, "/bin/sh", argv=["/bin/sh"])
        fd = world.sys.open(child, "/etc/shadow")
        world.sys.close(child, fd)
        # Records from before and after fork/execve accumulate in the
        # same ring; execve resets per-process firewall state, never
        # the audit history.
        assert len(firewall.audit.records(kind="log")) == 2
        assert firewall.audit.evicted == 0
