"""The Session facade: construction shapes and lifecycle."""

import pytest

from repro.api import WORLD_BUILDERS, Session, register_world, resolve_engine
from repro.firewall.engine import EngineConfig
from repro.firewall.persist import save_rules
from repro.firewall.procstate import ProcState
from repro.kernel import Kernel
from repro.rulesets.default import safe_open_pf_rules
from repro.security.selinux import reference_policy
from repro.workloads.generators import SERVICE_ROOT
from repro.world import build_world


# ---------------------------------------------------------------------------
# resolve_engine
# ---------------------------------------------------------------------------

def _config_dict(config):
    return {name: getattr(config, name) for name in EngineConfig.__slots__}


def test_resolve_engine_none_is_optimized():
    assert _config_dict(resolve_engine(None)) == _config_dict(EngineConfig.optimized())


def test_resolve_engine_preset_string_case_insensitive():
    expected = _config_dict(EngineConfig.compiled())
    assert _config_dict(resolve_engine("COMPILED")) == expected
    assert _config_dict(resolve_engine("compiled")) == expected
    # The retired JITTED spelling is an alias of COMPILED.
    assert _config_dict(resolve_engine("jitted")) == expected


def test_resolve_engine_config_passthrough():
    config = EngineConfig(decision_cache=True)
    assert resolve_engine(config) is config


def test_resolve_engine_rejects_other_types():
    with pytest.raises(TypeError):
        resolve_engine(42)
    with pytest.raises(ValueError):
        resolve_engine("NO-SUCH-COLUMN")


# ---------------------------------------------------------------------------
# construction shapes
# ---------------------------------------------------------------------------

def test_default_session_builds_standard_world():
    session = Session()
    assert session.kernel.lookup("/etc/passwd") is not None
    assert session.firewall is session.kernel.firewall
    assert session.sys is session.kernel.sys


def test_world_accepts_existing_kernel():
    kernel = build_world()
    session = Session(world=kernel)
    assert session.kernel is kernel


def test_world_kernel_rejects_kwargs():
    with pytest.raises(ValueError):
        Session(world=build_world(), world_kwargs={"x": 1})


def test_world_accepts_callable_and_tuple():
    from repro import errors

    direct = Session(world=lambda: Kernel(policy=reference_policy()))
    with pytest.raises(errors.ENOENT):
        direct.kernel.lookup("/etc/passwd")
    named = Session(world=("service", {}))
    assert named.kernel.lookup(SERVICE_ROOT) is not None
    assert not named.kernel.audit_enabled


def test_world_unknown_name_and_bad_type():
    with pytest.raises(ValueError):
        Session(world="no-such-world")
    with pytest.raises(TypeError):
        Session(world=42)


def test_register_world_extends_registry():
    register_world("tests-tiny", lambda: Kernel(policy=reference_policy()))
    try:
        assert Session(world="tests-tiny").kernel.processes == {}
    finally:
        del WORLD_BUILDERS["tests-tiny"]


def test_rules_shapes_agree():
    """Installer callable, save_rules text, and line list install alike."""
    lines = safe_open_pf_rules()
    from_lines = Session(rules=lines)
    text = save_rules(from_lines.firewall)
    from_text = Session(rules=text)
    from_callable = Session(rules=lambda fw: fw.install_all(lines))
    counts = {
        s.firewall.rules.rule_count()
        for s in (from_lines, from_text, from_callable)
    }
    assert counts == {from_lines.firewall.rules.rule_count()}
    assert from_lines.firewall.rules.rule_count() > 0


def test_kernel_audit_override():
    assert Session(kernel_audit=False).kernel.audit_enabled is False
    assert Session(kernel_audit=True).kernel.audit_enabled is True


def test_metered_and_traced_flags():
    session = Session(metered=True, traced=True)
    assert session.metrics.enabled
    assert session.firewall.tracer is not None
    plain = Session()
    assert not plain.metrics.enabled


# ---------------------------------------------------------------------------
# mediation verdict vocabulary
# ---------------------------------------------------------------------------

def test_mediate_returns_allow_drop():
    """The facade verdict vocabulary: strings out, no exceptions."""
    from repro.service.core import record_mediations
    from repro.world import ADVERSARY_UID

    session = Session(rules=safe_open_pf_rules())
    shell = session.spawn("sh", binary_path="/bin/sh")
    session.kernel.add_symlink("/tmp/api-trap", "/etc/passwd",
                               uid=ADVERSARY_UID)
    with record_mediations(session.firewall) as stream:
        fd = session.sys.open(shell, "/etc/passwd")
        session.sys.close(shell, fd)
        with pytest.raises(Exception):
            session.sys.open(shell, "/tmp/api-trap")
    verdicts = {session.mediate(op) for op in stream}
    assert verdicts == {"allow", "drop"}
    batch = [op for op in stream]
    assert session.mediate_batch(batch) == [session.mediate(op) for op in batch]


# ---------------------------------------------------------------------------
# reap + snapshot
# ---------------------------------------------------------------------------

def test_reap_frees_census_and_state(monkeypatch):
    released = []
    release = ProcState.release
    monkeypatch.setattr(ProcState, "release", lambda self: released.append(release(self)))
    session = Session(rules=safe_open_pf_rules())
    baseline = sorted(session.kernel.processes)
    proc = session.spawn("churn", binary_path="/bin/sh")
    fd = session.sys.open(proc, "/etc/passwd")
    assert fd in proc.fds
    session.reap(proc)
    assert sorted(session.kernel.processes) == baseline
    assert not proc.alive
    assert proc.fds == {}
    assert len(proc.pf.state) == 0
    assert len(released) == 1


def test_snapshot_shape():
    session = Session(metered=True)
    snap = session.snapshot()
    assert set(snap) == {"stats", "metrics_prom", "live_pids", "audit_next_seq"}
    assert snap["live_pids"] == sorted(session.kernel.processes)
    assert isinstance(snap["metrics_prom"], str)
    assert Session().snapshot()["metrics_prom"] is None
