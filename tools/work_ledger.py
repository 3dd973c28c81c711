#!/usr/bin/env python
"""Work ledger: executed Python bytecodes per mediation layer.

Counts every bytecode instruction the interpreter executes while a
workload runs (``sys.settrace`` with ``f_trace_opcodes``) and books it
to a layer by the code object's module, and for a few modules by its
qualified name, through the one fixed table :data:`LAYERS`.  Code no
entry covers (the standard library, ``enum.py`` included, and the
workload code) is ``other``, so the layers sum to the total by
construction.

Run from the repository root::

    PYTHONPATH=src python tools/work_ledger.py

It prints bytecodes per op, by layer and for the :data:`TOP_MODULES`
busiest modules, over the counted sessions (``COUNTED``) of the
deterministic COMPILED workloads of ``tests/plumbing_workloads.py``
(:data:`WORKLOADS`): the lmbench mix (9 syscalls a round), the same mix
with the kernel audit trail off (repobench ``static_lookup``'s
setting), and the compile job.

Limits: a bytecode is not a unit of time.  A call into C (a
``dict.copy`` of 10,000 entries, a sort, ``str.split``) is one
instruction however much it does, so the ledger cannot see C-level
work; timed benchmark runs stay the basis of every speed claim.  The
counts are exact and repeatable: they do not depend on host speed or
on the hash seed.  Tracing slows a run about 25x.
"""

from __future__ import annotations

import gc
import os
import sys
from collections import Counter

#: Layer names, in print order.
LAYER_NAMES = ("syscall", "namei", "dac", "mac", "lsm", "pf_context", "pf_eval", "audit", "other")

#: ``path[:qualname]`` prefix -> layer; the longest matching prefix
#: wins.  Paths are relative to ``src/``; a qualname entry claims the
#: functions of one class or one method out of its module's layer.
LAYERS = {
    "repro/syscalls/": "syscall",
    "repro/kernel.py": "syscall",
    "repro/clock.py": "syscall",
    "repro/proc/process.py": "syscall",
    "repro/proc/signals.py": "syscall",
    "repro/vfs/": "syscall",
    "repro/vfs/namei.py": "namei",
    "repro/vfs/dcache.py": "namei",
    "repro/security/dac.py": "dac",
    "repro/security/selinux.py": "mac",
    "repro/security/lsm.py": "lsm",
    "repro/kernel.py:Kernel.mediate": "lsm",
    "repro/kernel.py:Kernel.authorize_walk": "lsm",
    "repro/kernel.py:WalkGrant": "lsm",
    "repro/firewall/": "pf_eval",
    "repro/firewall/context.py": "pf_context",
    "repro/firewall/modules/": "pf_context",
    "repro/firewall/procstate.py": "pf_context",
    "repro/firewall/engine.py:ProcessFirewall.ensure": "pf_context",
    "repro/firewall/engine.py:ProcessFirewall._note_cache_hit": "pf_context",
    "repro/firewall/engine.py:ProcessFirewall._collect_checked": "pf_context",
    "repro/firewall/engine.py:ProcessFirewall._entrypoint_head": "pf_context",
    "repro/firewall/engine.py:ProcessFirewall._new_frame": "pf_context",
    "repro/firewall/engine.py:ProcessFirewall._writeback_context": "pf_context",
    "repro/proc/stack.py": "pf_context",
    "repro/proc/interp.py": "pf_context",
    "repro/security/adversary.py": "pf_context",
    "repro/obs/audit.py": "audit",
    "repro/kernel.py:AuditTrail": "audit",
    "repro/kernel.py:AuditRecord": "audit",
    "repro/kernel.py:Kernel._audit": "audit",
}

#: Modules listed after the layers, busiest first.
TOP_MODULES = 8

#: The measured workloads, in print order.
WORKLOADS = ("lmbench", "lmbench_audit_off", "build")

_SRC_MARK = os.sep + "src" + os.sep


def code_key(code):
    """The ``path:qualname`` :data:`LAYERS` is matched against, with
    the path relative to ``src/`` (``None`` outside it)."""
    filename = code.co_filename
    at = filename.rfind(_SRC_MARK)
    if at < 0:
        return None
    return filename[at + len(_SRC_MARK):].replace(os.sep, "/") + ":" + code.co_qualname


def layer_of(key):
    """The layer of a :func:`code_key` (``other`` when none matches)."""
    if key is None:
        return "other"
    best = ""
    for prefix in LAYERS:
        if key.startswith(prefix) and len(prefix) > len(best):
            best = prefix
    return LAYERS[best] if best else "other"


def count_bytecodes(fn):
    """Run ``fn()`` under the tracer; returns a ``Counter`` of the
    bytecodes executed per code object.

    The cyclic garbage collector is paused meanwhile, as ``timeit``
    pauses it: a collection would run the finalizers of whatever
    garbage the process held before, which is not ``fn``'s work.
    """
    counts = Counter()
    tracers = {}

    def tracer_for(code):
        def local(frame, event, arg):
            if event == "opcode":
                counts[code] += 1
            return local
        return local

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        code = frame.f_code
        local = tracers.get(code)
        if local is None:
            local = tracers[code] = tracer_for(code)
        return local

    collecting = gc.isenabled()
    gc.disable()
    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        fn()
    finally:
        sys.settrace(previous)
        if collecting:
            gc.enable()
    return counts


def ledger(counts):
    """Fold per-code counts into ``({layer: n}, {module: n})``; both
    sum to the same total."""
    layers = dict.fromkeys(LAYER_NAMES, 0)
    modules = Counter()
    for code, n in counts.items():
        key = code_key(code)
        layers[layer_of(key)] += n
        module = key.split(":", 1)[0] if key is not None else os.path.basename(code.co_filename)
        modules[module] += n
    return layers, modules


def measure(workload, sessions):
    """Bytecodes of ``sessions`` counted rounds (``"lmbench"``, or
    ``"lmbench_audit_off"`` with the kernel audit trail off) or compile
    jobs (``"build"``) of ``tests/plumbing_workloads.py``, run after its
    untimed warm-up; returns ``(counts, syscalls issued)``."""
    from tests import plumbing_workloads as pw

    if workload in ("lmbench", "lmbench_audit_off"):
        suite = pw.LmbenchSuite("COMPILED")
        kernel = suite.kernel
        kernel.audit_enabled = workload == "lmbench"

        def session(index):
            pw.lmbench_round(suite)
    else:
        tree = pw.BuildTree()
        kernel = tree.kernel

        def session(index):
            tree.job(index % len(tree.jobs))
    for index in range(pw.WARMUP):
        session(index)

    def counted():
        for index in range(pw.WARMUP, pw.WARMUP + sessions):
            session(index)

    before = kernel.stats.total_syscalls
    counts = count_bytecodes(counted)
    return counts, kernel.stats.total_syscalls - before


def main():
    from tests import plumbing_workloads as pw

    for workload in WORKLOADS:
        counts, ops = measure(workload, pw.COUNTED)
        layers, modules = ledger(counts)
        total = sum(layers.values())
        print("{}: {} sessions, {} ops, {:.1f} bytecodes/op".format(
            workload, pw.COUNTED, ops, total / ops))
        for name in LAYER_NAMES:
            print("  {:<11s}{:>10.1f}".format(name, layers[name] / ops))
        print("  top modules:")
        for module, n in modules.most_common(TOP_MODULES):
            print("    {:<36s}{:>10.1f}".format(module, n / ops))
        print("    {:<36s}{:>10.1f}".format("enum.py", modules.get("enum.py", 0) / ops))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
    sys.exit(main())
