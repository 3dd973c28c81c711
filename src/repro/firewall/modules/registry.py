"""The context-module registry.

Each module implements ``collect(operation, kernel) -> value``.  Modules
touching process memory (the entrypoint modules) must be defensive: a
forged or corrupted user stack aborts collection gracefully, yielding an
empty value ``()`` — per the paper §4.4, a malicious process "only
affects its own protection".  An entrypoint value is the stack's head
(the innermost resolvable call site), not the whole walk.
"""

from __future__ import annotations

from typing import Dict

from repro import errors
from repro.firewall.context import FIELD_NAMES, ContextField
from repro.proc import signals as sig


class ContextModule:
    """One registered context retriever.

    Attributes:
        field: the :class:`ContextField` this module produces.
        collect: callable ``(operation, kernel) -> value``.
        cost: abstract cost units, surfaced in engine statistics so the
            benchmarks can attribute where collection time goes.
    """

    __slots__ = ("field", "collect", "cost", "name")

    def __init__(self, field, collect, cost=1, name=""):
        self.field = field
        self.collect = collect
        self.cost = cost
        self.name = name or field.name.lower()


# ----------------------------------------------------------------------
# collectors
# ----------------------------------------------------------------------


def _subject_label(operation, kernel):
    return operation.proc.label


def _object_label(operation, kernel):
    return getattr(operation.obj, "label", None)


def _resource_id(operation, kernel):
    obj = operation.obj
    if obj is None:
        signum = operation.extra.get("signum")
        return ("signal", signum) if signum is not None else None
    return (obj.device, obj.ino)


def _program(operation, kernel):
    binary = operation.proc.binary
    return binary.path if binary is not None else None


def _entrypoint(operation, kernel):
    return entrypoint_head(operation.proc)


def entrypoint_head(proc):
    """The innermost resolvable call site of ``proc``: ``(image_path, rel_pc)``.

    The whole stack is unwound and validated first, so a corrupted
    frame at any depth inside the frame cap aborts collection and
    yields ``()`` — frames recovered above it are discarded, and no
    exception escapes (paper §4.4).  Frames are then resolved innermost
    first and resolution stops at the first one that maps into an
    image: forged PCs above it are skipped, and frames below it are
    never resolved, because every consumer (``-i`` matches, the §4.3
    entrypoint buckets, the decision-cache head, ``LOG`` records) reads
    only this head.  ``()`` when no frame maps.
    """
    try:
        frames = proc.stack.unwind()
    except errors.EFAULT:
        return ()
    for frame in frames:
        head = frame.entrypoint()
        if head is not None:
            return head
    return ()


def _adv_writable(operation, kernel):
    if operation.obj is None:
        return False
    return kernel.adversaries.is_low_integrity(operation.proc, operation.obj)


def _adv_readable(operation, kernel):
    if operation.obj is None:
        return False
    return kernel.adversaries.is_low_secrecy(operation.proc, operation.obj)


def _dac_owner(operation, kernel):
    return getattr(operation.obj, "uid", None)


def _tgt_dac_owner(operation, kernel):
    """Owner of the inode a traversed symlink points at (rule R8)."""
    resolver = operation.extra.get("link_target_resolver")
    if resolver is None:
        return None
    target = resolver()
    return None if target is None else target.uid


def _signal_info(operation, kernel):
    signum = operation.extra.get("signum")
    if signum is None:
        return None
    disposition = operation.extra.get("disposition")
    handled = bool(disposition is not None and disposition.is_handled)
    return {
        "signum": signum,
        "handled": handled,
        "unblockable": signum in sig.UNBLOCKABLE_SIGNALS,
        "sender_pid": operation.extra.get("sender_pid"),
    }


def _syscall_args(operation, kernel):
    return operation.args


def _obj_identity(operation, kernel):
    """Kernel-internal object identity: ``(dev, ino, generation)``.

    Extension beyond the paper's printed ``C_INO``: because the firewall
    runs in the kernel it can bind state to an identity that survives
    inode-number recycling (real kernels would use the in-memory inode
    pointer or ``i_generation``).  T2 rules keyed on this identity
    remain sound under the cryogenic-sleep attack, where number-based
    comparison is defeated.
    """
    obj = operation.obj
    if obj is None:
        signum = operation.extra.get("signum")
        return ("signal", signum) if signum is not None else None
    return (obj.device, obj.ino, obj.generation)


def _script_entrypoint(operation, kernel):
    """The innermost script-level call site: ``(script_path, line)``.

    The whole interpreter stack is unwound and validated first; ``()``
    for native programs, empty script stacks, or when the script stack
    is corrupted (same degrade-to-nothing discipline as the native
    unwinder, paper §4.4).
    """
    stack = getattr(operation.proc, "script_stack", None)
    if stack is None:
        return ()
    try:
        frames = stack.unwind()
    except errors.EFAULT:
        return ()
    return frames[0].entrypoint() if frames else ()


#: field -> module.  Costs reflect the paper's observation that the
#: entrypoint module dominates (1735 of 2451 module LOC; stack unwinds
#: and memory introspection are the expensive part).
CONTEXT_MODULES = {
    ContextField.SUBJECT_LABEL: ContextModule(ContextField.SUBJECT_LABEL, _subject_label, cost=1),
    ContextField.OBJECT_LABEL: ContextModule(ContextField.OBJECT_LABEL, _object_label, cost=1),
    ContextField.RESOURCE_ID: ContextModule(ContextField.RESOURCE_ID, _resource_id, cost=1),
    ContextField.PROGRAM: ContextModule(ContextField.PROGRAM, _program, cost=1),
    ContextField.ENTRYPOINT: ContextModule(ContextField.ENTRYPOINT, _entrypoint, cost=8),
    ContextField.ADV_WRITABLE: ContextModule(ContextField.ADV_WRITABLE, _adv_writable, cost=4),
    ContextField.ADV_READABLE: ContextModule(ContextField.ADV_READABLE, _adv_readable, cost=4),
    ContextField.DAC_OWNER: ContextModule(ContextField.DAC_OWNER, _dac_owner, cost=1),
    ContextField.TGT_DAC_OWNER: ContextModule(ContextField.TGT_DAC_OWNER, _tgt_dac_owner, cost=4),
    ContextField.SIGNAL_INFO: ContextModule(ContextField.SIGNAL_INFO, _signal_info, cost=1),
    ContextField.SYSCALL_ARGS: ContextModule(ContextField.SYSCALL_ARGS, _syscall_args, cost=1),
    ContextField.SCRIPT_ENTRYPOINT: ContextModule(ContextField.SCRIPT_ENTRYPOINT, _script_entrypoint, cost=6),
    ContextField.OBJ_IDENTITY: ContextModule(ContextField.OBJ_IDENTITY, _obj_identity, cost=1),
}  # type: Dict[ContextField, ContextModule]


def collect_field(field, operation, kernel, frame, stats=None):
    """Run the module for ``field`` and record the value in ``frame``
    (``None``: only return it)."""
    module = CONTEXT_MODULES[field]
    value = module.collect(operation, kernel)
    if frame is not None:
        frame.put(field, value)
    if stats is not None:
        collections = stats.context_collections
        name = FIELD_NAMES[field]
        collections[name] = collections.get(name, 0) + 1
        stats.context_cost += module.cost
    return value


def count_collection(field, stats):
    """Book one collection of ``field`` (and its module's cost) in
    ``stats``, as :func:`collect_field` does, for a value read without
    an operation.  :func:`collect_field` keeps the same lines inline:
    it runs on every collection, and the call would cost each one."""
    collections = stats.context_collections
    name = FIELD_NAMES[field]
    collections[name] = collections.get(name, 0) + 1
    stats.context_cost += CONTEXT_MODULES[field].cost
