"""Match modules and label specs."""

import pytest

from repro.firewall.context import ContextFrame
from repro.firewall.engine import EngineConfig, ProcessFirewall
from repro.firewall import matches as mm
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
    return world.spawn("prog", uid=0, label="httpd_t", binary_path="/usr/bin/apache2")


def operation(world, proc, path="/etc/passwd", op=Op.FILE_OPEN):
    return Operation(proc, op, obj=world.lookup(path), path=path)


class TestLabelSpec:
    def test_single_label(self):
        spec = mm.LabelSpec.parse("tmp_t")
        assert spec.member("tmp_t", frozenset())
        assert not spec.member("etc_t", frozenset())

    def test_set(self):
        spec = mm.LabelSpec.parse("{a_t|b_t}")
        assert spec.member("a_t", frozenset()) and spec.member("b_t", frozenset())

    def test_negated_set(self):
        spec = mm.LabelSpec.parse("~{a_t|b_t}")
        assert not spec.member("a_t", frozenset())
        assert spec.member("c_t", frozenset())

    def test_syshigh_expands_via_tcb(self):
        spec = mm.LabelSpec.parse("SYSHIGH")
        assert spec.member("lib_t", frozenset({"lib_t"}))
        assert not spec.member("tmp_t", frozenset({"lib_t"}))

    def test_negated_syshigh(self):
        spec = mm.LabelSpec.parse("~{SYSHIGH}")
        assert spec.member("tmp_t", frozenset({"lib_t"}))
        assert not spec.member("lib_t", frozenset({"lib_t"}))

    def test_mixed_set_with_syshigh(self):
        spec = mm.LabelSpec.parse("{extra_t|SYSHIGH}")
        assert spec.member("extra_t", frozenset())
        assert spec.member("lib_t", frozenset({"lib_t"}))

    def test_render_roundtrip(self):
        for text in ["tmp_t", "{a_t|b_t}", "~{a_t|b_t}", "SYSHIGH", "~{SYSHIGH}"]:
            spec = mm.LabelSpec.parse(text)
            again = mm.LabelSpec.parse(spec.render())
            assert again.labels == spec.labels
            assert again.negated == spec.negated
            assert again.syshigh == spec.syshigh


class TestDefaultMatches:
    def test_op_match(self, engine, world, proc):
        match = mm.OpMatch("FILE_OPEN")
        assert match.matches(engine, operation(world, proc), ContextFrame())
        assert not match.matches(engine, operation(world, proc, op=Op.FILE_READ), ContextFrame())

    def test_op_match_link_alias(self, engine, world, proc):
        match = mm.OpMatch("LINK_READ")
        assert match.matches(engine, operation(world, proc, op=Op.LNK_FILE_READ), ContextFrame())

    def test_subject_match_syshigh(self, engine, world, proc):
        match = mm.SubjectMatch("SYSHIGH")
        assert match.matches(engine, operation(world, proc), ContextFrame())
        user_proc = world.spawn("u", uid=1000, label="user_t")
        assert not match.matches(engine, operation(world, user_proc), ContextFrame())

    def test_object_match(self, engine, world, proc):
        match = mm.ObjectMatch("etc_t")
        assert match.matches(engine, operation(world, proc), ContextFrame())

    def test_object_match_none_label_never_matches(self, engine, world, proc):
        match = mm.ObjectMatch("~{anything_t}")
        op = Operation(proc, Op.PROCESS_SIGNAL_DELIVERY, obj=None)
        assert not match.matches(engine, op, ContextFrame())

    def test_entrypoint_match_innermost(self, engine, world, proc):
        proc.call(proc.binary, 0x2D637)
        match = mm.EntrypointMatch("/usr/bin/apache2", 0x2D637)
        assert match.matches(engine, operation(world, proc), ContextFrame())

    def test_entrypoint_match_wrong_offset(self, engine, world, proc):
        proc.call(proc.binary, 0x111)
        match = mm.EntrypointMatch("/usr/bin/apache2", 0x2D637)
        assert not match.matches(engine, operation(world, proc), ContextFrame())

    def test_entrypoint_match_outer_frame_not_considered(self, engine, world, proc):
        proc.call(proc.binary, 0x2D637)  # outer
        proc.call(proc.binary, 0x999)  # innermost
        match = mm.EntrypointMatch("/usr/bin/apache2", 0x2D637)
        assert not match.matches(engine, operation(world, proc), ContextFrame())

    def test_entrypoint_empty_stack_no_match(self, engine, world, proc):
        match = mm.EntrypointMatch("/usr/bin/apache2", 0x2D637)
        assert not match.matches(engine, operation(world, proc), ContextFrame())

    def test_program_match(self, engine, world, proc):
        assert mm.ProgramMatch("/usr/bin/apache2").matches(engine, operation(world, proc), ContextFrame())
        assert not mm.ProgramMatch("/bin/sh").matches(engine, operation(world, proc), ContextFrame())


class TestStateMatch:
    def test_missing_key_never_matches(self, engine, world, proc):
        match = mm.StateMatch("k", 1, equal=True)
        assert not match.matches(engine, operation(world, proc), ContextFrame())
        match_ne = mm.StateMatch("k", 1, equal=False)
        assert not match_ne.matches(engine, operation(world, proc), ContextFrame())

    def test_equal(self, engine, world, proc):
        proc.pf.state["k"] = 1
        assert mm.StateMatch("k", 1).matches(engine, operation(world, proc), ContextFrame())
        assert not mm.StateMatch("k", 2).matches(engine, operation(world, proc), ContextFrame())

    def test_nequal_against_atom(self, engine, world, proc):
        op = operation(world, proc)
        proc.pf.state[0xBEEF] = world.lookup("/etc/passwd").ino
        match = mm.StateMatch("0xbeef", "C_INO", equal=False)
        assert not match.matches(engine, op, ContextFrame())
        proc.pf.state[0xBEEF] = 999999
        assert match.matches(engine, op, ContextFrame())


class TestCompareMatch:
    def test_owner_compare(self, engine, world, proc):
        op = operation(world, proc)
        op.extra["link_target_resolver"] = lambda: world.lookup("/etc/shadow")
        match = mm.CompareMatch("C_DAC_OWNER", "C_TGT_DAC_OWNER", equal=True)
        assert match.matches(engine, op, ContextFrame())  # both root-owned

    def test_unresolvable_never_matches(self, engine, world, proc):
        op = operation(world, proc)
        op.extra["link_target_resolver"] = lambda: None
        match = mm.CompareMatch("C_DAC_OWNER", "C_TGT_DAC_OWNER", equal=False)
        assert not match.matches(engine, op, ContextFrame())

    def test_literal_compare(self, engine, world, proc):
        assert mm.CompareMatch("5", "5").matches(engine, operation(world, proc), ContextFrame())
        assert not mm.CompareMatch("5", "6").matches(engine, operation(world, proc), ContextFrame())


class TestSignalAndArgsMatches:
    def test_signal_match_handled(self, engine, world, proc):
        from repro.proc.signals import SignalDisposition

        op = Operation(proc, Op.PROCESS_SIGNAL_DELIVERY)
        op.extra["signum"] = 14
        op.extra["disposition"] = SignalDisposition(handler_pc=0x1)
        assert mm.SignalMatch().matches(engine, op, ContextFrame())

    def test_signal_match_unhandled(self, engine, world, proc):
        from repro.proc.signals import SignalDisposition

        op = Operation(proc, Op.PROCESS_SIGNAL_DELIVERY)
        op.extra["signum"] = 14
        op.extra["disposition"] = SignalDisposition()
        assert not mm.SignalMatch().matches(engine, op, ContextFrame())

    def test_signal_match_unblockable(self, engine, world, proc):
        from repro.proc.signals import SignalDisposition

        op = Operation(proc, Op.PROCESS_SIGNAL_DELIVERY)
        op.extra["signum"] = 9  # SIGKILL
        op.extra["disposition"] = SignalDisposition(handler_pc=0x1)
        assert not mm.SignalMatch().matches(engine, op, ContextFrame())

    def test_signal_match_non_signal_op(self, engine, world, proc):
        assert not mm.SignalMatch().matches(engine, operation(world, proc), ContextFrame())

    def test_syscall_args_nr_prefix(self, engine, world, proc):
        op = Operation(proc, Op.SYSCALL_BEGIN, args=("sigreturn",))
        match = mm.SyscallArgsMatch(0, "NR_sigreturn")
        assert match.matches(engine, op, ContextFrame())

    def test_syscall_args_index_out_of_range(self, engine, world, proc):
        op = Operation(proc, Op.SYSCALL_BEGIN, args=())
        assert not mm.SyscallArgsMatch(0, "open").matches(engine, op, ContextFrame())

    def test_adversary_match(self, engine, world, proc):
        world.add_file("/tmp/loose", mode=0o666)
        loose = operation(world, proc, "/tmp/loose")
        tight = operation(world, proc, "/etc/passwd")
        match = mm.AdversaryMatch(writable=True)
        assert match.matches(engine, loose, ContextFrame())
        assert not match.matches(engine, tight, ContextFrame())
