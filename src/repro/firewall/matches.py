"""Match modules: default matches plus the extensible ``-m`` modules.

Default matches (paper Table 3) cover the five context values a rule's
``def_match`` can name: process label (``-s``), object label (``-d``),
entrypoint (``-i`` + ``-p``), LSM operation (``-o``) and program binary
(``-p``/``-b``).  Custom modules mirror the paper's: ``STATE``,
``COMPARE``, ``SIGNAL_MATCH``, ``SYSCALL_ARGS``.
"""

from __future__ import annotations

from repro.firewall.context import ContextField
from repro.firewall.values import Value
from repro.security.lsm import Op

#: The keyword denoting the SELinux TCB set (paper §5.2).
SYSHIGH = "SYSHIGH"


class LabelSpec:
    """A label set operand: ``tmp_t``, ``{a|b}``, ``~{a|b}``, ``SYSHIGH``.

    ``SYSHIGH`` expands to the policy's TCB set at match time, so the
    same rule text works across deployments with different policies —
    the portability property §6.3 relies on.
    """

    __slots__ = ("labels", "negated", "syshigh")

    def __init__(self, labels, negated=False, syshigh=False):
        self.labels = frozenset(labels)
        self.negated = negated
        self.syshigh = syshigh

    @classmethod
    def parse(cls, text):
        """Parse ``label``, ``{a|b}``, ``~{a|b}``, ``SYSHIGH``, ``~{SYSHIGH}``."""
        negated = text.startswith("~")
        if negated:
            text = text[1:]
        if text.startswith("{") and text.endswith("}"):
            parts = [p.strip() for p in text[1:-1].split("|") if p.strip()]
        else:
            parts = [text.strip()]
        syshigh = SYSHIGH in parts
        labels = frozenset(p for p in parts if p != SYSHIGH)
        return cls(labels, negated=negated, syshigh=syshigh)

    def member(self, label, tcb_set):
        inside = label in self.labels or (self.syshigh and label in tcb_set)
        return inside != self.negated

    def render(self):
        parts = sorted(self.labels) + ([SYSHIGH] if self.syshigh else [])
        body = parts[0] if len(parts) == 1 and not self.negated else "{" + "|".join(parts) + "}"
        return ("~" if self.negated else "") + body

    def __repr__(self):  # pragma: no cover - debugging aid
        return "<LabelSpec {}>".format(self.render())


class MatchModule:
    """Base class for all matches (default and ``-m`` modules)."""

    #: Context fields this match needs, for lazy retrieval planning.
    required_fields = ContextField(0)

    def matches(self, engine, operation, frame):  # pragma: no cover - interface
        raise NotImplementedError

    def render(self):  # pragma: no cover - interface
        raise NotImplementedError


class OpMatch(MatchModule):
    """``-o`` — restrict to one LSM operation."""

    def __init__(self, op):
        self.op = op if isinstance(op, Op) else Op.from_name(op)

    def matches(self, engine, operation, frame):
        if self.op is Op.LNK_FILE_READ:
            return operation.op in (Op.LNK_FILE_READ, Op.LINK_READ)
        return operation.op is self.op

    def render(self):
        return "-o {}".format(self.op.value)


class SubjectMatch(MatchModule):
    """``-s`` — process (subject) label."""

    required_fields = ContextField.SUBJECT_LABEL

    def __init__(self, spec):
        self.spec = spec if isinstance(spec, LabelSpec) else LabelSpec.parse(spec)

    def matches(self, engine, operation, frame):
        label = engine.ensure(ContextField.SUBJECT_LABEL, operation, frame)
        return self.spec.member(label, engine.tcb_subjects())

    def render(self):
        return "-s {}".format(self.spec.render())


class ObjectMatch(MatchModule):
    """``-d`` — resource (object) label."""

    required_fields = ContextField.OBJECT_LABEL

    def __init__(self, spec):
        self.spec = spec if isinstance(spec, LabelSpec) else LabelSpec.parse(spec)

    def matches(self, engine, operation, frame):
        label = engine.ensure(ContextField.OBJECT_LABEL, operation, frame)
        if label is None:
            return False
        return self.spec.member(label, engine.tcb_objects())

    def render(self):
        return "-d {}".format(self.spec.render())


class EntrypointMatch(MatchModule):
    """``-i`` + ``-p`` — the resource-requesting call site.

    Matches when the innermost resolvable frame of the process's user
    stack lies at ``offset`` within the image loaded from ``program``.
    Offsets are base-relative, so the match is ASLR-stable (§5.2).
    """

    required_fields = ContextField.ENTRYPOINT

    def __init__(self, program, offset):
        self.program = program
        self.offset = offset

    def matches(self, engine, operation, frame):
        head = engine.ensure(ContextField.ENTRYPOINT, operation, frame)
        return head == (self.program, self.offset)

    def render(self):
        return "-p {} -i {:#x}".format(self.program, self.offset)

    def chain_key(self):
        """The entrypoint-chain index key (§4.3)."""
        return (self.program, self.offset)


class ProgramMatch(MatchModule):
    """``-p``/``-b`` without ``-i`` — restrict to a program binary."""

    required_fields = ContextField.PROGRAM

    def __init__(self, program):
        self.program = program

    def matches(self, engine, operation, frame):
        return engine.ensure(ContextField.PROGRAM, operation, frame) == self.program

    def render(self):
        return "-p {}".format(self.program)


class StateMatch(MatchModule):
    """``-m STATE`` — compare a key in the per-process dictionary.

    Used by the TOCTTOU template (compare the inode recorded at the
    "check" call to the one at the "use" call) and the signal-race rules
    (key ``'sig'`` tracks in-handler state).  A missing key never
    matches: the invariant only applies once the earlier call recorded
    its state.
    """

    def __init__(self, key, cmp_value, equal=True):
        self.key = Value(key)
        self.cmp_value = Value(cmp_value)
        self.equal = equal

    @property
    def required_fields(self):
        fields = ContextField(0)
        for value in (self.key, self.cmp_value):
            if value.required_field is not None:
                fields |= value.required_field
        return fields

    def matches(self, engine, operation, frame):
        # Reads the mutable process dictionary directly (no ensure()
        # call), so it must poison the negative-decision cache itself.
        frame.decision_unsafe = True
        key = self.key.resolve(engine, operation, frame)
        state = operation.proc.pf.state
        if key not in state:
            return False
        stored = state[key]
        current = self.cmp_value.resolve(engine, operation, frame)
        return (stored == current) if self.equal else (stored != current)

    def render(self):
        flag = "--equal" if self.equal else "--nequal"
        return "-m STATE --key {} --cmp {} {}".format(
            self.key.atom or self.key.literal, self.cmp_value.atom or self.cmp_value.literal, flag
        )


class CompareMatch(MatchModule):
    """``-m COMPARE`` — compare two runtime values (rule R8).

    Unresolvable operands (e.g. a dangling link's target owner) never
    match, keeping the rule free of false positives at the cost of a
    false negative — the paper's stated trade (§4.1).
    """

    def __init__(self, v1, v2, equal=True):
        self.v1 = Value(v1)
        self.v2 = Value(v2)
        self.equal = equal

    @property
    def required_fields(self):
        fields = ContextField(0)
        for value in (self.v1, self.v2):
            if value.required_field is not None:
                fields |= value.required_field
        return fields

    def matches(self, engine, operation, frame):
        a = self.v1.resolve(engine, operation, frame)
        b = self.v2.resolve(engine, operation, frame)
        if a is None or b is None:
            return False
        return (a == b) if self.equal else (a != b)

    def render(self):
        flag = "--equal" if self.equal else "--nequal"
        return "-m COMPARE --v1 {} --v2 {} {}".format(
            self.v1.atom or self.v1.literal, self.v2.atom or self.v2.literal, flag
        )


class SignalMatch(MatchModule):
    """``-m SIGNAL_MATCH`` — delivery of a catchable, handled signal.

    Paper rule R10: "if ... signal to be delivered has a handler and is
    not unblockable".
    """

    required_fields = ContextField.SIGNAL_INFO

    def matches(self, engine, operation, frame):
        info = engine.ensure(ContextField.SIGNAL_INFO, operation, frame)
        if info is None:
            return False
        return info["handled"] and not info["unblockable"]

    def render(self):
        return "-m SIGNAL_MATCH"


def _strip_nr(value):
    """``NR_open`` names the syscall ``open``."""
    if isinstance(value, str) and value.startswith("NR_"):
        return value[3:]
    return value


class SyscallArgsMatch(MatchModule):
    """``-m SYSCALL_ARGS`` — match a positional syscall argument (R12)."""

    required_fields = ContextField.SYSCALL_ARGS

    def __init__(self, arg_index, value, equal=True):
        self.arg_index = int(str(arg_index), 0)
        self.value = Value(value)
        self.equal = equal

    def matches(self, engine, operation, frame):
        args = engine.ensure(ContextField.SYSCALL_ARGS, operation, frame)
        if args is None or self.arg_index >= len(args):
            return False
        expected = _strip_nr(self.value.resolve(engine, operation, frame))
        actual = args[self.arg_index]
        return (actual == expected) if self.equal else (actual != expected)

    def syscall(self):
        """The value this match requires of ``args[0]`` — for a
        ``SYSCALL_BEGIN`` operation, the syscall — or ``None`` when it
        pins nothing (``--nequal``, another ``--arg``, an atom operand)."""
        if self.arg_index != 0 or not self.equal or self.value.atom is not None:
            return None
        return _strip_nr(self.value.literal)

    def render(self):
        flag = "--equal" if self.equal else "--nequal"
        return "-m SYSCALL_ARGS --arg {} {} {}".format(self.arg_index, flag, self.value.atom or self.value.literal)


class ScriptMatch(MatchModule):
    """``-m SCRIPT`` — interpreter-level entrypoint (extension).

    The native ``-i`` entrypoint for an interpreted program is always
    the same opcode handler inside the interpreter binary; this match
    pins the *script* file (and optionally line) whose call actually
    requested the resource, using the kernel-side interpreter backtrace
    of paper §4.4.
    """

    required_fields = ContextField.SCRIPT_ENTRYPOINT

    def __init__(self, file, line=None):
        self.file = file
        self.line = None if line is None else int(str(line), 0)

    def matches(self, engine, operation, frame):
        head = engine.ensure(ContextField.SCRIPT_ENTRYPOINT, operation, frame)
        if not head:
            return False
        path, line = head
        if path != self.file:
            return False
        return self.line is None or line == self.line

    def render(self):
        parts = ["-m SCRIPT --file {}".format(self.file)]
        if self.line is not None:
            parts.append("--line {}".format(self.line))
        return " ".join(parts)


class AdversaryMatch(MatchModule):
    """``-m ADVERSARY`` — adversary accessibility of the resource.

    Not in the paper's printed rule set but implied by Table 2's
    resource contexts; used by generated rules that predicate directly
    on integrity rather than on label sets.
    """

    def __init__(self, writable=None, readable=None):
        self.writable = writable
        self.readable = readable

    @property
    def required_fields(self):
        fields = ContextField(0)
        if self.writable is not None:
            fields |= ContextField.ADV_WRITABLE
        if self.readable is not None:
            fields |= ContextField.ADV_READABLE
        return fields

    def matches(self, engine, operation, frame):
        if self.writable is not None:
            if engine.ensure(ContextField.ADV_WRITABLE, operation, frame) != self.writable:
                return False
        if self.readable is not None:
            if engine.ensure(ContextField.ADV_READABLE, operation, frame) != self.readable:
                return False
        return True

    def render(self):
        parts = ["-m ADVERSARY"]
        if self.writable is not None:
            parts.append("--writable" if self.writable else "--not-writable")
        if self.readable is not None:
            parts.append("--readable" if self.readable else "--not-readable")
        return " ".join(parts)
