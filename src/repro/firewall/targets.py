"""Target modules: what happens when a rule matches.

Verdict targets (``DROP``/``ACCEPT``) end traversal; side-effect targets
(``STATE``, ``LOG``) continue it; ``JUMP`` transfers to a user chain
(like iptables jumps, §5.1).
"""

from __future__ import annotations

from repro.firewall.context import ContextField
from repro.firewall.values import Value
from repro.obs.audit import INFO, severity_level, severity_name

#: Traversal verdicts returned by Target.execute.
DROP = "DROP"
ACCEPT = "ACCEPT"
CONTINUE = "CONTINUE"
JUMP = "JUMP"
RETURN = "RETURN"


class Target:
    """Base class for target modules."""

    required_fields = ContextField(0)

    def execute(self, engine, operation, frame):  # pragma: no cover - interface
        raise NotImplementedError

    def render(self):  # pragma: no cover - interface
        raise NotImplementedError


class DropTarget(Target):
    """``-j DROP`` — deny the resource access."""

    def execute(self, engine, operation, frame):
        return (DROP, None)

    def render(self):
        return "-j DROP"


class AcceptTarget(Target):
    """``-j ACCEPT`` — allow, ending traversal."""

    def execute(self, engine, operation, frame):
        return (ACCEPT, None)

    def render(self):
        return "-j ACCEPT"


class ReturnTarget(Target):
    """``-j RETURN`` — return from the current user chain."""

    def execute(self, engine, operation, frame):
        return (RETURN, None)

    def render(self):
        return "-j RETURN"


class StateTarget(Target):
    """``-j STATE --set`` — record a key/value in the process dictionary.

    This is the stateful half of the TOCTTOU template (record the inode
    at the "check" call) and of the signal rules (mark handler entry and
    exit).  The backing store is the ``task_struct`` extension
    ``proc.pf.state`` (§5.1).
    """

    def __init__(self, key, value):
        self.key = Value(key)
        self.value = Value(value)

    @property
    def required_fields(self):
        fields = ContextField(0)
        for value in (self.key, self.value):
            if value.required_field is not None:
                fields |= value.required_field
        return fields

    def execute(self, engine, operation, frame):
        key = self.key.resolve(engine, operation, frame)
        value = self.value.resolve(engine, operation, frame)
        pf = operation.proc.pf
        # CoW write: a map shared with fork relatives is copied here,
        # once, and only our side diverges.
        pf.state[key] = value
        # The process dictionary changed: this traversal is not
        # memoizable, and any verdict this process memoized earlier
        # could now be answered differently by a STATE match.
        frame.decision_unsafe = True
        pf.decision_invalidate()
        return (CONTINUE, None)

    def render(self):
        return "-j STATE --set --key {} --value {}".format(
            self.key.atom or self.key.literal, self.value.atom or self.value.literal
        )


class LogTarget(Target):
    """``-j LOG`` — emit a JSON-shaped record of the access (§5.2).

    The record carries the context rule generation needs: entrypoint,
    object label, resource id, and adversary accessibility.  Collecting
    those fields is exactly why trace-gathering runs are slower than
    enforcement runs.
    """

    required_fields = (
        ContextField.ENTRYPOINT
        | ContextField.PROGRAM
        | ContextField.OBJECT_LABEL
        | ContextField.RESOURCE_ID
        | ContextField.ADV_WRITABLE
        | ContextField.ADV_READABLE
    )

    def __init__(self, prefix="", level="info"):
        self.prefix = prefix
        #: Audit severity the record is emitted at (``--level``);
        #: normalized to the numeric scale at install time so a bad
        #: name fails the rule install, not the mediation.
        self.level = severity_level(level)

    def execute(self, engine, operation, frame):
        # A log record is an externally visible side effect — never
        # memoize a traversal that emitted one.
        frame.decision_unsafe = True
        head = engine.ensure(ContextField.ENTRYPOINT, operation, frame)
        record = {
            "prefix": self.prefix,
            "time": engine.kernel.clock.now() if engine.kernel else 0,
            "pid": operation.proc.pid,
            "comm": operation.proc.comm,
            "program": engine.ensure(ContextField.PROGRAM, operation, frame),
            "entrypoint": list(head) if head else None,
            "op": operation.op.value,
            "path": operation.path,
            "object_label": engine.ensure(ContextField.OBJECT_LABEL, operation, frame),
            "resource_id": engine.ensure(ContextField.RESOURCE_ID, operation, frame),
            "adv_writable": engine.ensure(ContextField.ADV_WRITABLE, operation, frame),
            "adv_readable": engine.ensure(ContextField.ADV_READABLE, operation, frame),
        }
        # Interpreted programs also log the script-level call site, so
        # rule generation can emit -m SCRIPT rules.
        if getattr(operation.proc, "script_stack", None) is not None:
            script_head = engine.ensure(ContextField.SCRIPT_ENTRYPOINT, operation, frame)
            record["script"] = list(script_head) if script_head else None
        engine.audit.emit(record, severity=self.level, kind="log")
        return (CONTINUE, None)

    def render(self):
        text = "-j LOG"
        if self.prefix:
            text += " --prefix {}".format(self.prefix)
        if self.level != INFO:
            text += " --level {}".format(severity_name(self.level))
        return text


class JumpTarget(Target):
    """``-j <chain>`` — jump to a user-defined chain."""

    def __init__(self, chain_name):
        self.chain_name = chain_name.lower()

    def execute(self, engine, operation, frame):
        return (JUMP, self.chain_name)

    def render(self):
        return "-j {}".format(self.chain_name.upper())
