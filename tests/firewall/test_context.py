"""Context fields, frames, and context modules."""

import pytest

from repro import errors
from repro.api import Session
from repro.firewall.context import ContextField, ContextFrame, SYSCALL_SCOPED, field_scope
from repro.firewall.modules.registry import CONTEXT_MODULES, collect_field
from repro.proc.stack import BinaryImage
from repro.security.lsm import Op, Operation
from repro.world import build_world


@pytest.fixture
def world():
    return build_world()


@pytest.fixture
def proc(world):
    return world.spawn("prog", uid=0, label="httpd_t", binary_path="/usr/bin/apache2")


def file_operation(world, proc, path="/etc/passwd", op=Op.FILE_OPEN):
    return Operation(proc, op, obj=world.lookup(path), path=path)


class TestFrame:
    def test_bitmask_tracks_collection(self):
        frame = ContextFrame()
        assert not frame.has(ContextField.ENTRYPOINT)
        frame.put(ContextField.ENTRYPOINT, ())
        assert frame.has(ContextField.ENTRYPOINT)
        assert frame.get(ContextField.ENTRYPOINT) == ()

    def test_scopes(self):
        assert field_scope(ContextField.ENTRYPOINT) == "syscall"
        assert field_scope(ContextField.OBJECT_LABEL) == "operation"
        assert field_scope(ContextField.RESOURCE_ID) == "operation"
        # Each operation carries its own args (SYSCALL_BEGIN adds the
        # syscall), so they are never cached across operations.
        assert field_scope(ContextField.SYSCALL_ARGS) == "operation"

    def test_syscall_scoped_extraction(self):
        frame = ContextFrame()
        frame.put(ContextField.ENTRYPOINT, (("/x", 1),))
        frame.put(ContextField.OBJECT_LABEL, "tmp_t")
        cached = frame.syscall_scoped_values()
        assert ContextField.ENTRYPOINT in cached
        assert ContextField.OBJECT_LABEL not in cached

    def test_absorb_cached(self):
        frame = ContextFrame()
        frame.absorb_cached({ContextField.PROGRAM: "/bin/sh"})
        assert frame.get(ContextField.PROGRAM) == "/bin/sh"


class TestModules:
    def test_every_field_has_module(self):
        for field in ContextField:
            assert field in CONTEXT_MODULES

    def test_subject_label(self, world, proc):
        op = file_operation(world, proc)
        assert CONTEXT_MODULES[ContextField.SUBJECT_LABEL].collect(op, world) == "httpd_t"

    def test_object_label(self, world, proc):
        op = file_operation(world, proc)
        assert CONTEXT_MODULES[ContextField.OBJECT_LABEL].collect(op, world) == "etc_t"

    def test_resource_id(self, world, proc):
        op = file_operation(world, proc)
        dev, ino = CONTEXT_MODULES[ContextField.RESOURCE_ID].collect(op, world)
        assert (dev, ino) == world.lookup("/etc/passwd").identity()

    def test_resource_id_for_signal(self, world, proc):
        op = Operation(proc, Op.PROCESS_SIGNAL_DELIVERY)
        op.extra["signum"] = 14
        assert CONTEXT_MODULES[ContextField.RESOURCE_ID].collect(op, world) == ("signal", 14)

    def test_program(self, world, proc):
        op = file_operation(world, proc)
        assert CONTEXT_MODULES[ContextField.PROGRAM].collect(op, world) == "/usr/bin/apache2"

    def test_entrypoint_innermost_first(self, world, proc):
        proc.call(proc.binary, 0x100, "outer")
        proc.call(proc.binary, 0x200, "inner")
        op = file_operation(world, proc)
        entries = CONTEXT_MODULES[ContextField.ENTRYPOINT].collect(op, world)
        assert entries[0] == ("/usr/bin/apache2", 0x200)
        assert entries[1] == ("/usr/bin/apache2", 0x100)

    @pytest.mark.parametrize("valid_below", [(), (0x100, 0x200)])
    def test_entrypoint_skips_forged_frames(self, world, proc, valid_below):
        """A forged head frame is skipped; valid frames beneath it are
        still reported, innermost first."""
        for offset in valid_below:
            proc.call(proc.binary, offset)
        proc.stack.push(0xDEAD)  # no image
        op = file_operation(world, proc)
        expected = tuple(("/usr/bin/apache2", offset) for offset in reversed(valid_below))
        assert CONTEXT_MODULES[ContextField.ENTRYPOINT].collect(op, world) == expected

    @pytest.mark.parametrize("corrupt_below", [0, 1, 2])
    def test_entrypoint_corrupt_stack_graceful(self, world, proc, corrupt_below):
        """§4.4: a corrupted stack yields empty context, not a crash —
        at any depth, even below a valid head frame: frames recovered
        above the corruption are discarded, not reported."""
        for offset in (0x100, 0x200, 0x300):
            proc.call(proc.binary, offset)
        proc.stack.corrupt_below = corrupt_below
        op = file_operation(world, proc)
        assert CONTEXT_MODULES[ContextField.ENTRYPOINT].collect(op, world) == ()

    @pytest.mark.parametrize("offsets", [(0x100,), (0x100, 0x200, 0x300)])
    def test_entrypoint_infinite_stack_bounded(self, world, proc, offsets):
        """A looping unwind is capped, and the innermost frame still
        comes first."""
        for offset in offsets:
            proc.call(proc.binary, offset)
        proc.stack.infinite = True
        op = file_operation(world, proc)
        entries = CONTEXT_MODULES[ContextField.ENTRYPOINT].collect(op, world)
        assert len(entries) <= proc.stack.MAX_UNWIND_FRAMES
        assert entries[0] == ("/usr/bin/apache2", offsets[-1])

    def test_adversary_writable(self, world, proc):
        world.add_file("/tmp/loose", mode=0o666)
        op = file_operation(world, proc, "/tmp/loose")
        assert CONTEXT_MODULES[ContextField.ADV_WRITABLE].collect(op, world) is True
        op2 = file_operation(world, proc, "/etc/passwd")
        assert CONTEXT_MODULES[ContextField.ADV_WRITABLE].collect(op2, world) is False

    def test_tgt_dac_owner_uses_resolver(self, world, proc):
        op = file_operation(world, proc)
        op.extra["link_target_resolver"] = lambda: world.lookup("/etc/passwd")
        assert CONTEXT_MODULES[ContextField.TGT_DAC_OWNER].collect(op, world) == 0

    def test_tgt_dac_owner_without_resolver(self, world, proc):
        op = file_operation(world, proc)
        assert CONTEXT_MODULES[ContextField.TGT_DAC_OWNER].collect(op, world) is None

    def test_collect_field_records_stats(self, world, proc):
        from repro.firewall.engine import EngineStats

        stats = EngineStats()
        frame = ContextFrame()
        collect_field(ContextField.ENTRYPOINT, file_operation(world, proc), world, frame, stats)
        assert frame.has(ContextField.ENTRYPOINT)
        assert stats.context_collections["ENTRYPOINT"] == 1
        assert stats.context_cost >= CONTEXT_MODULES[ContextField.ENTRYPOINT].cost


@pytest.mark.parametrize("preset", ["FULL", "CONCACHE", "LAZYCON", "EPTSPC", "COMPILED"])
def test_resource_rule_sees_its_own_syscall_args(preset):
    """A ``syscallbegin`` rule that reads ``SYSCALL_ARGS`` must not leak
    the begin operation's ``(syscall, *args)`` into a later resource
    operation of the same syscall: every rung, cached or cold, drops
    the path the input rule names."""
    session = Session(engine=preset, rules=[
        "pftables -A syscallbegin -m SYSCALL_ARGS --arg 0 --equal NR_stat -j LOG",
        "pftables -A input -m SYSCALL_ARGS --arg 0 --equal /etc/shadow -j DROP",
    ])
    shell = session.spawn("sh", binary_path="/bin/sh")
    with pytest.raises(errors.PFDenied):
        session.sys.stat(shell, "/etc/shadow")
    session.sys.stat(shell, "/etc/passwd")
    assert len(session.firewall.audit.records(kind="log")) == 2
