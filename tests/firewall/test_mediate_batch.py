"""Unit coverage for ``engine.mediate_batch`` and its helpers.

The byte-identity contract itself is hammered by the randomized
differential suite (``tests/integration/test_differential_batch.py``);
these tests pin the mechanics: which records bulk, which fall back,
and the stats/preset/serialization helpers around the engine.
"""

import pytest

from repro.firewall.engine import (
    EngineConfig,
    EngineStats,
    ProcessFirewall,
    record_mutates,
)
from repro.rulesets.generated import install_full_rulebase
from repro.service.core import record_mediations
from repro.world import build_world, spawn_root_shell
from repro.vfs.file import OpenFlags
from tests.mediation_replay import replay_mediations, reset_mediation_state


def _world(config=None):
    kernel = build_world()
    kernel.audit_enabled = False
    firewall = ProcessFirewall(config or EngineConfig.compiled())
    kernel.attach_firewall(firewall)
    install_full_rulebase(firewall)
    return kernel, firewall, spawn_root_shell(kernel)


def _capture(kernel, firewall, workload):
    with record_mediations(firewall) as operations:
        workload(kernel)
    return operations


def _observables(firewall):
    return (
        firewall.stats.as_dict(),
        [dict(r) for r in firewall.audit.records(kind="log")],
        [e.record for e in firewall.audit.entries(kind="drop")],
    )


def _differential(firewall, operations):
    """Per-call vs batched over the same stream; returns the verdicts."""
    reset_mediation_state(firewall)
    percall = replay_mediations(firewall, operations, batched=False)
    percall_obs = _observables(firewall)
    reset_mediation_state(firewall)
    batched = replay_mediations(firewall, operations, batched=True)
    batched_obs = _observables(firewall)
    assert batched == percall
    assert batched_obs == percall_obs
    return percall


def _count_mediate_calls(firewall, operations):
    """How many records mediate_batch routes through mediate()."""
    calls = []
    with record_mediations(firewall) as calls:
        reset_mediation_state(firewall)
        firewall.mediate_batch(operations)
    return len(calls)


def test_disabled_engine_allows_everything_without_counting():
    kernel, firewall, root = _world(EngineConfig.disabled())
    with record_mediations(firewall) as operations:
        kernel.sys.stat(root, "/etc/passwd")
    # Disabled engines mediate nothing, so capture happens at the
    # kernel hook but the stream reaching mediate_batch may be empty;
    # synthesize a batch from a live stat operation instead.
    kernel2, firewall2, root2 = _world()
    operations = _capture(
        kernel2, firewall2, lambda k: k.sys.stat(root2, "/etc/passwd"))
    verdicts = firewall.mediate_batch(operations)
    assert verdicts == ["allow"] * len(operations)
    assert firewall.stats.invocations == 0


#: Records of a homogeneous run that ``mediate_batch`` routes through
#: ``mediate()``: the first walks the rules and fills the decision
#: cache, the second hits it, and the rest of the syscall group repeats
#: that hit without a call.  The count does not grow with the batch.
BULK_PATH_MEDIATE_CALLS = 2


@pytest.mark.parametrize("length", [50, 1500])
def test_homogeneous_run_is_bulked_and_identical(length):
    kernel, firewall, root = _world()
    operations = _capture(
        kernel, firewall, lambda k: k.sys.stat(root, "/etc/passwd"))
    getattr_op = next(op for op in operations if op.op.value == "FILE_GETATTR")
    batch = [getattr_op] * length
    _differential(firewall, batch)
    # The bulk path must actually fire, at a cost independent of the
    # batch length: the same few records go through mediate() whether
    # the run is 50 or 1,500 long.
    reset_mediation_state(firewall)
    assert _count_mediate_calls(firewall, batch) == BULK_PATH_MEDIATE_CALLS


def test_syscallbegin_runs_split_by_syscall():
    """A ``SYSCALL_BEGIN`` run bulks only while the syscall stays the
    same: ``getuid``, which a rule names, must not ride on the
    fast-path probe of ``getpid``, which none does."""
    kernel, firewall, root = _world()
    firewall.install(
        "pftables -A syscallbegin -m SYSCALL_ARGS --arg 0 --equal NR_getuid -j LOG --prefix uid")
    operations = _capture(kernel, firewall, lambda k: [
        call(root) for call in (k.sys.getpid, k.sys.getuid) * 3])
    assert [op.syscall for op in operations] == ["getpid", "getuid"] * 3
    _differential(firewall, operations)
    assert len(firewall.audit.records(kind="log")) == 3


def test_decision_cached_run_is_keyed_by_syscall():
    """A ``getpid`` walk that the syscall index kept out of the filter
    chain naming ``getuid`` caches an allow for ``getpid`` only: the
    ``getuid`` run that follows must not bulk on that entry."""
    kernel = build_world()
    kernel.audit_enabled = False
    firewall = ProcessFirewall(EngineConfig.compiled())
    kernel.attach_firewall(firewall)
    firewall.install_all([
        "pftables -t mangle -A syscallbegin -s etc_t -j LOG --prefix m",
        "pftables -A syscallbegin -m SYSCALL_ARGS --arg 0 --equal NR_getuid -j LOG --prefix uid",
    ])
    root = spawn_root_shell(kernel)
    operations = _capture(kernel, firewall, lambda k: [
        call(root) for call in (k.sys.getpid, k.sys.getuid, k.sys.getuid)])
    assert [op.syscall for op in operations] == ["getpid", "getuid", "getuid"]
    _differential(firewall, operations)
    assert len(firewall.audit.records(kind="log")) == 2


def test_mutating_records_split_runs_and_fall_back():
    kernel, firewall, root = _world()

    def workload(k):
        for i in range(6):
            k.sys.stat(root, "/etc/passwd")
        k.sys.chmod(root, "/tmp", 0o1777)
        for i in range(6):
            k.sys.stat(root, "/etc/passwd")

    operations = _capture(kernel, firewall, workload)
    assert any(record_mutates(op) for op in operations)
    _differential(firewall, operations)


def test_write_open_counts_as_mutating():
    kernel, firewall, root = _world()

    def workload(k):
        fd = k.sys.open(root, "/tmp/batchfile",
                        flags=OpenFlags.O_CREAT | OpenFlags.O_WRONLY)
        k.sys.write(root, fd, b"x")
        k.sys.close(root, fd)

    operations = _capture(kernel, firewall, workload)
    mutators = [op for op in operations if record_mutates(op)]
    assert mutators, "create/write opens must be classified as mutating"
    _differential(firewall, operations)


def test_metered_firewall_falls_back_per_call():
    kernel, firewall, root = _world()
    operations = _capture(
        kernel, firewall, lambda k: k.sys.stat(root, "/etc/passwd"))
    batch = [operations[-1]] * 20
    firewall.metrics.enable()
    try:
        reset_mediation_state(firewall)
        assert _count_mediate_calls(firewall, batch) == len(batch)
        _differential(firewall, batch)
    finally:
        firewall.metrics.disable()


def test_traced_firewall_falls_back_per_call():
    kernel, firewall, root = _world()
    operations = _capture(
        kernel, firewall, lambda k: k.sys.stat(root, "/etc/passwd"))
    batch = [operations[-1]] * 20
    firewall.enable_tracing(capacity=512)
    try:
        reset_mediation_state(firewall)
        assert _count_mediate_calls(firewall, batch) == len(batch)
    finally:
        firewall.disable_tracing() if hasattr(firewall, "disable_tracing") else None


def test_unoptimized_config_stays_identical():
    kernel, firewall, root = _world(EngineConfig.unoptimized())
    operations = _capture(
        kernel, firewall, lambda k: k.sys.stat(root, "/etc/passwd"))
    _differential(firewall, [operations[-1]] * 10 + operations)


def test_record_mutates_classification():
    kernel, firewall, root = _world()
    operations = _capture(kernel, firewall, lambda k: (
        k.sys.stat(root, "/etc/passwd"),
        k.sys.chmod(root, "/tmp", 0o1777),
    ))
    by_syscall = {}
    for op in operations:
        by_syscall.setdefault(op.syscall, []).append(op)
    assert all(not record_mutates(op) for op in by_syscall["stat"])
    assert all(record_mutates(op) for op in by_syscall["chmod"])


def test_engine_config_preset_resolution():
    assert EngineConfig.preset("compiled").compiled_dispatch
    jitted = EngineConfig.preset("JITTED")  # retired spelling, kept as an alias
    assert all(getattr(jitted, name) == getattr(EngineConfig.compiled(), name)
               for name in EngineConfig.__slots__)
    assert not EngineConfig.preset("DISABLED").enabled
    with pytest.raises(ValueError):
        EngineConfig.preset("TURBO")


def test_engine_stats_snapshot_round_trip_and_merge():
    a = EngineStats()
    a.invocations = 10
    a.accepts = 9
    a.drops = 1
    a.context_collections = {"ENTRYPOINT": 4}
    payload = a.as_dict()
    rebuilt = EngineStats.from_dict(payload)
    assert rebuilt.as_dict() == payload

    b = EngineStats()
    b.invocations = 5
    b.accepts = 5
    b.context_collections = {"ENTRYPOINT": 1, "SYSCALL_ARGS": 2}
    merged = EngineStats().merge(a).merge(b.as_dict())
    assert merged.invocations == 15
    assert merged.drops == 1
    assert merged.context_collections == {"ENTRYPOINT": 5, "SYSCALL_ARGS": 2}
