"""LSM dispatch and operation records."""

import pickle

import pytest

from repro import errors
from repro.proc.process import Process
from repro.security.lsm import LSMDispatcher, OP_CLASS, OP_PERM, Op, Operation


class _DenyAll:
    def __init__(self):
        self.seen = []

    def authorize(self, operation):
        self.seen.append(operation)
        raise errors.EACCES("deny-all")


class _AllowAll:
    def __init__(self):
        self.seen = []

    def authorize(self, operation):
        self.seen.append(operation)


class TestDispatcher:
    def test_modules_run_in_order(self):
        dispatcher = LSMDispatcher()
        first, second = _AllowAll(), _AllowAll()
        dispatcher.register(first)
        dispatcher.register(second)
        operation = Operation(Process(1, "t"), Op.FILE_OPEN)
        dispatcher.authorize(operation)
        assert first.seen == [operation] and second.seen == [operation]

    def test_first_denial_stops_chain(self):
        dispatcher = LSMDispatcher()
        deny, after = _DenyAll(), _AllowAll()
        dispatcher.register(deny)
        dispatcher.register(after)
        with pytest.raises(errors.EACCES):
            dispatcher.authorize(Operation(Process(1, "t"), Op.FILE_OPEN))
        assert after.seen == []

    def test_invocation_counter(self):
        dispatcher = LSMDispatcher()
        dispatcher.authorize(Operation(Process(1, "t"), Op.FILE_OPEN))
        assert dispatcher.invocations == 1

    def test_unregister(self):
        dispatcher = LSMDispatcher()
        deny = _DenyAll()
        dispatcher.register(deny)
        dispatcher.unregister(deny)
        dispatcher.authorize(Operation(Process(1, "t"), Op.FILE_OPEN))


class TestOpNames:
    def test_alias_link_read(self):
        assert Op.from_name("LINK_READ") is Op.LNK_FILE_READ

    def test_alias_socket_connect(self):
        assert Op.from_name("SOCKET_CONNECT") is Op.UNIX_STREAM_SOCKET_CONNECT

    def test_case_insensitive(self):
        assert Op.from_name("file_open") is Op.FILE_OPEN

    def test_unknown_raises(self):
        with pytest.raises(errors.EINVAL):
            Op.from_name("NOT_AN_OP")

    def test_every_op_has_class_and_perm(self):
        for op in Op:
            assert op in OP_CLASS
            assert op in OP_PERM


class TestOpHash:
    def test_hash_is_identity(self):
        assert Op.__hash__ is object.__hash__
        assert len({hash(op) for op in Op}) == len(Op)

    @pytest.mark.parametrize("protocol", [2, pickle.HIGHEST_PROTOCOL])
    def test_pickle_round_trip_keeps_member_and_dict_slot(self, protocol):
        slots = {op: index for index, op in enumerate(Op)}
        loaded = pickle.loads(pickle.dumps((list(Op), slots), protocol=protocol))
        members, loaded_slots = loaded
        for index, (op, back) in enumerate(zip(Op, members)):
            assert back is op and hash(back) == hash(op)
            assert slots[back] == index and loaded_slots[op] == index
            assert OP_CLASS[back] == OP_CLASS[op] and OP_PERM[back] == OP_PERM[op]


class TestOperation:
    def test_fields(self):
        proc = Process(3, "x")
        operation = Operation(proc, Op.FILE_READ, obj=None, path="/p", syscall="read", args=(1, 2))
        assert operation.proc is proc
        assert operation.args == (1, 2)
        assert operation.extra == {}

    def test_extra_isolated_per_operation(self):
        a = Operation(Process(1, "t"), Op.FILE_OPEN)
        b = Operation(Process(1, "t"), Op.FILE_OPEN)
        a.extra["k"] = 1
        assert "k" not in b.extra
