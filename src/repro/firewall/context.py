"""Context fields, the context bitmask, and per-operation frames.

The paper §4.2: "The Process Firewall associates each context field with
a bit in a context bit mask that shows which context field values have
already been collected."  A :class:`ContextFrame` is that bitmask plus
the collected values for one mediated operation; fields whose scope is
``"syscall"`` may be reused across operations within the same syscall
when context caching is enabled.
"""

from __future__ import annotations

import enum
from typing import Dict


class ContextField(enum.IntFlag):
    """Every kind of context a rule can require (bitmask members)."""

    SUBJECT_LABEL = 1 << 0
    OBJECT_LABEL = 1 << 1
    RESOURCE_ID = 1 << 2
    PROGRAM = 1 << 3
    ENTRYPOINT = 1 << 4
    ADV_WRITABLE = 1 << 5
    ADV_READABLE = 1 << 6
    DAC_OWNER = 1 << 7
    TGT_DAC_OWNER = 1 << 8
    SIGNAL_INFO = 1 << 9
    SYSCALL_ARGS = 1 << 10
    SCRIPT_ENTRYPOINT = 1 << 11
    OBJ_IDENTITY = 1 << 12


#: Fields that stay valid for the whole syscall (process-derived), and
#: may therefore be cached across multiple hook invocations (§4.2: "the
#: process call stack used to find program entrypoints is valid
#: throughout a single system call, but multiple resource requests may
#: be made, e.g., in pathname resolution").  ``SYSCALL_ARGS`` is not
#: one of them: the ``SYSCALL_BEGIN`` operation carries ``(syscall,
#: *args)`` while each resource operation carries its own arguments, so
#: a value cached from one would answer wrongly for the next.
SYSCALL_SCOPED = (
    ContextField.SUBJECT_LABEL
    | ContextField.PROGRAM
    | ContextField.ENTRYPOINT
    | ContextField.SCRIPT_ENTRYPOINT
)


def field_scope(field):
    """Return "syscall" or "operation" for a context field."""
    return "syscall" if field & SYSCALL_SCOPED else "operation"


#: Fields whose value is a pure function of the process identity for a
#: fixed rule base: the subject label and entrypoint are part of the
#: decision-cache key, and the program only changes on ``execve`` (which
#: invalidates the per-task cache).  A traversal that consulted *only*
#: these fields is eligible for the negative-decision cache; touching
#: anything else (object labels, resource ids, adversary accessibility,
#: syscall arguments, signal info, script frames) makes the verdict
#: resource- or call-dependent and therefore uncacheable.
DECISION_STABLE = (
    ContextField.SUBJECT_LABEL
    | ContextField.PROGRAM
    | ContextField.ENTRYPOINT
)

#: Plain-int view of the syscall-scoped mask (hot-path comparisons use
#: int arithmetic; IntFlag operator dispatch is measurably slower).
_SYSCALL_SCOPED_INT = int(SYSCALL_SCOPED)

#: Plain-int view of the decision-stable mask (see above).
_DECISION_STABLE_INT = int(DECISION_STABLE)

#: The same set as a frozenset for hot-path membership tests.
_SYSCALL_SCOPED_FIELDS = frozenset(
    field for field in ContextField if int(field) & _SYSCALL_SCOPED_INT
)

#: Plain-int bit of every field.  ``field.value`` is a Python-level
#: enum property; this probe hashes the member as an int instead.
FIELD_BITS = {field: int(field) for field in ContextField}

#: Name of every field (``field.name`` is an enum property too).
FIELD_NAMES = {field: field.name for field in ContextField}


class ContextFrame:
    """Collected context for one mediated operation.

    Attributes:
        mask: bitwise OR (plain int) of the collected field bits.
        values: field -> collected value.
    """

    __slots__ = (
        "mask",
        "values",
        "scoped_dirty",
        "cached_mask",
        "decision_unsafe",
        "used_entrypoint",
        "rule_matched",
        "trace",
    )

    def __init__(self):
        self.mask = 0
        self.values = {}  # type: Dict[ContextField, object]
        #: True when a syscall-scoped field was collected *this frame*
        #: (as opposed to absorbed from the cache) — tells the engine
        #: whether the per-process cache needs rewriting.
        self.scoped_dirty = False
        #: Bits absorbed from the per-process context cache that have
        #: not yet been *used* — `engine.ensure` clears a bit (and
        #: counts one cache hit) the first time a rule actually reads
        #: the field, so absorbed-but-unread fields never inflate the
        #: CONCACHE accounting.
        self.cached_mask = 0
        #: Decision-cache bookkeeping for this traversal: set when any
        #: non-decision-stable field was consulted, when a STATE
        #: match/target touched the process dictionary, or when a
        #: side-effect target fired.
        self.decision_unsafe = False
        #: True when the traversal consulted the entrypoint — the
        #: memoized verdict must then be keyed on the entrypoint head.
        self.used_entrypoint = False
        #: True when any rule fully matched (its target executed);
        #: such traversals are never memoized, so side effects and hit
        #: counters replay faithfully.
        self.rule_matched = False
        #: The :class:`repro.obs.trace.DecisionTrace` recording this
        #: mediation, or ``None`` (the default) when tracing is off.
        #: Carried on the frame so the chain walk and ``ensure`` can
        #: reach it without widening their signatures.
        self.trace = None

    def has(self, field):
        """Whether ``field`` is already in this frame."""
        # Plain-int bits: IntFlag's reflected operators would otherwise
        # hijack ``int op IntFlag`` and pay enum-member construction.
        return bool(self.mask & FIELD_BITS[field])

    def get(self, field):
        """The value of a field already in this frame."""
        return self.values[field]

    def put(self, field, value):
        """Record a freshly collected value."""
        bits = FIELD_BITS[field]
        self.mask |= bits
        if bits & _SYSCALL_SCOPED_INT:
            self.scoped_dirty = True
        self.values[field] = value

    def absorb_cached(self, cached_values):
        """Seed this frame with syscall-scoped values from the cache."""
        mask = self.mask
        absorbed = 0
        values = self.values
        for field, value in cached_values.items():
            bits = FIELD_BITS[field]
            mask |= bits
            absorbed |= bits
            values[field] = value
        self.mask = mask
        self.cached_mask |= absorbed

    def seed_used(self, field, value):
        """Hold a value the engine read (and counted) before this frame
        existed, as already used: a later lookup is neither a second
        collection nor a cache hit."""
        bits = FIELD_BITS[field]
        self.mask |= bits
        self.cached_mask &= ~bits
        self.values[field] = value

    def syscall_scoped_values(self):
        """Extract the fields eligible for cross-operation caching."""
        if not self.mask & _SYSCALL_SCOPED_INT:
            return {}
        return {
            field: value
            for field, value in self.values.items()
            if field in _SYSCALL_SCOPED_FIELDS
        }
