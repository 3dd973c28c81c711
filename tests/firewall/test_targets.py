"""Target modules."""

import pytest

from repro.firewall import targets as tg
from repro.firewall.context import ContextFrame
from repro.firewall.engine import EngineConfig, ProcessFirewall
from repro.security.lsm import Op, Operation
from repro.world import build_world


@pytest.fixture
def world():
    return build_world()


@pytest.fixture
def engine(world):
    pf = ProcessFirewall(EngineConfig.optimized())
    world.attach_firewall(pf)
    return pf


@pytest.fixture
def proc(world):
    return world.spawn("p", uid=0, label="unconfined_t", binary_path="/bin/sh")


def op(world, proc, path="/etc/passwd"):
    return Operation(proc, Op.FILE_OPEN, obj=world.lookup(path), path=path)


class TestVerdictTargets:
    def test_drop(self, engine, world, proc):
        assert tg.DropTarget().execute(engine, op(world, proc), ContextFrame()) == (tg.DROP, None)

    def test_accept(self, engine, world, proc):
        assert tg.AcceptTarget().execute(engine, op(world, proc), ContextFrame()) == (tg.ACCEPT, None)

    def test_return(self, engine, world, proc):
        assert tg.ReturnTarget().execute(engine, op(world, proc), ContextFrame()) == (tg.RETURN, None)

    def test_renders(self):
        assert tg.DropTarget().render() == "-j DROP"
        assert tg.AcceptTarget().render() == "-j ACCEPT"


class TestStateTarget:
    def test_sets_literal(self, engine, world, proc):
        target = tg.StateTarget("'sig'", "1")
        verdict, _ = target.execute(engine, op(world, proc), ContextFrame())
        assert verdict == tg.CONTINUE
        assert proc.pf.state["sig"] == 1

    def test_sets_atom_value(self, engine, world, proc):
        target = tg.StateTarget("0xbeef", "C_INO")
        target.execute(engine, op(world, proc), ContextFrame())
        assert proc.pf.state[0xBEEF] == world.lookup("/etc/passwd").ino

    def test_required_fields_cover_atoms(self):
        from repro.firewall.context import ContextField

        target = tg.StateTarget("k", "C_INO")
        assert target.required_fields & ContextField.RESOURCE_ID

    def test_overwrites(self, engine, world, proc):
        tg.StateTarget("k", "1").execute(engine, op(world, proc), ContextFrame())
        tg.StateTarget("k", "2").execute(engine, op(world, proc), ContextFrame())
        assert proc.pf.state["k"] == 2


class TestLogTarget:
    def test_record_shape(self, engine, world, proc):
        proc.call(proc.binary, 0x77)
        target = tg.LogTarget(prefix="x")
        verdict, _ = target.execute(engine, op(world, proc), ContextFrame())
        assert verdict == tg.CONTINUE
        record = engine.audit.records(kind="log")[-1]
        for key in ("pid", "comm", "program", "entrypoint", "op", "object_label", "resource_id",
                    "adv_writable", "adv_readable", "path", "time", "prefix"):
            assert key in record

    def test_json_serializable(self, engine, world, proc):
        import json

        tg.LogTarget().execute(engine, op(world, proc), ContextFrame())
        assert json.dumps(engine.audit.records(kind="log")[-1])


class TestJumpTarget:
    def test_lowercases_chain(self, engine, world, proc):
        target = tg.JumpTarget("SIGNAL_CHAIN")
        assert target.execute(engine, op(world, proc), ContextFrame()) == (tg.JUMP, "signal_chain")
