"""Differential harness: batched mediation is invisible.

``mediate_batch`` over the operation streams of every Table 4 exploit
(attack *and* benign arms) and over randomized mutation-heavy batches
must match a per-call ``mediate`` loop byte for byte: verdicts, stats,
log records, audit entries.
"""

import contextlib
import random

import pytest

from repro import errors
from repro.attacks.exploits import EXPLOITS
from repro.firewall.engine import EngineConfig, ProcessFirewall, record_mutates
from repro.parallel.merge import strip_volatile
from repro.rulesets.generated import install_full_rulebase
from repro.service.core import record_mediations
from repro.vfs.file import OpenFlags
from repro.world import build_world, spawn_root_shell
from tests.mediation_replay import replay_mediations, reset_mediation_state


def _strip_times(records):
    return [{k: v for k, v in rec.items() if k != "time"} for rec in records]


def _batch_observables(firewall):
    return (
        firewall.stats.as_dict(),
        _strip_times([dict(r) for r in firewall.audit.records(kind="log")]),
        [(e.kind, e.severity, strip_volatile(e.record, ("time",)))
         for e in firewall.audit.entries()],
    )


def _assert_batched_identical(firewall, operations):
    reset_mediation_state(firewall)
    percall = replay_mediations(firewall, operations, batched=False)
    percall_obs = _batch_observables(firewall)
    reset_mediation_state(firewall)
    batched = replay_mediations(firewall, operations, batched=True)
    assert batched == percall
    assert _batch_observables(firewall) == percall_obs
    return percall


def _captured_scenario_stream(scenario, mode):
    """Run one scenario arm under JITTED, capturing its operation
    stream through the instrument hook; returns (firewall, ops)."""
    holder = {}
    with contextlib.ExitStack() as stack:
        def instrument(firewall):
            holder["firewall"] = firewall
            holder["ops"] = stack.enter_context(record_mediations(firewall))

        getattr(scenario, mode)(with_firewall=True,
                                config=EngineConfig.jitted(),
                                instrument=instrument)
    return holder["firewall"], holder["ops"]


@pytest.mark.parametrize("eid", sorted(EXPLOITS))
@pytest.mark.parametrize("mode", ["run", "run_benign"])
def test_exploit_streams_batched_identical(eid, mode):
    firewall, operations = _captured_scenario_stream(EXPLOITS[eid](), mode)
    assert operations, "scenario produced no mediations to batch"
    _assert_batched_identical(firewall, operations)


def _mutation_workload(kernel, proc, rng):
    """Read-heavy stream with chmod/rename/unlink/create churn mixed in
    at random — every mutation forces the batched path to fall back."""
    sys = kernel.sys
    created = []
    serial = [0]

    def create():
        path = "/tmp/mut{}".format(serial[0])
        serial[0] += 1
        fd = sys.open(proc, path, flags=OpenFlags.O_CREAT | OpenFlags.O_WRONLY)
        sys.write(proc, fd, b"x")
        sys.close(proc, fd)
        created.append(path)

    actions = [
        lambda: sys.stat(proc, "/etc/passwd"),
        lambda: sys.access(proc, "/etc/passwd"),
        lambda: sys.getpid(proc),
        create,
        lambda: created and sys.chmod(proc, rng.choice(created), 0o640),
        lambda: created and sys.rename(proc, created[-1], created[-1] + ".r")
        and None,
        lambda: created and sys.unlink(proc, created.pop()),
    ]
    weights = [5, 3, 3, 2, 1, 1, 1]
    for _ in range(150):
        action = rng.choices(actions, weights=weights)[0]
        try:
            action()
        except errors.KernelError:
            pass  # denials/noise are part of the stream


@pytest.mark.parametrize("seed", range(10))
def test_randomized_mutation_batches_identical(seed):
    kernel = build_world()
    kernel.audit_enabled = False
    firewall = ProcessFirewall(EngineConfig.jitted())
    kernel.attach_firewall(firewall)
    install_full_rulebase(firewall)
    shell = spawn_root_shell(kernel)
    rng = random.Random(seed)
    with record_mediations(firewall) as operations:
        _mutation_workload(kernel, shell, rng)
    assert any(record_mutates(op) for op in operations)
    assert any(not record_mutates(op) for op in operations)
    _assert_batched_identical(firewall, operations)
