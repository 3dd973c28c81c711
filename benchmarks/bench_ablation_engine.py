"""Ablations of the design choices DESIGN.md calls out.

1. **Entrypoint chains vs linear scan** (§4.3): rules-evaluated per
   operation as the rule base grows — the index keeps work flat while
   the linear scan grows linearly.
2. **Per-process vs global traversal state** (§5.1): the iptables-style
   global state forces one interrupt-disable per traversal (every
   mediation the op and syscall indexes do not skip); the per-process
   design needs none.
3. **Lazy vs eager context retrieval** (§4.2): context-module
   collections per syscall.
4. **Compiled dispatch + negative-decision cache** (beyond the paper's
   ladder): whole traversals short-circuited per process once a
   default-allow verdict is proven context-independent.
"""

import pytest

from repro.analysis.tables import format_table
from repro.firewall.engine import EngineConfig, ProcessFirewall
from repro.rulesets.generated import generate_full_rulebase
from repro.world import build_world, spawn_root_shell

SIZES = [50, 200, 800]


def _run_firewall(config, rule_count, metered=False):
    world = build_world()
    world.audit_enabled = False
    pf = ProcessFirewall(config)
    world.attach_firewall(pf)
    pf.install_all(generate_full_rulebase(size=rule_count))
    if metered:
        pf.metrics.enable()
    root = spawn_root_shell(world)
    for _ in range(50):
        world.sys.stat(root, "/etc/passwd")
    return pf


def _run_workload(config, rule_count):
    return _run_firewall(config, rule_count).stats


def test_entrypoint_chain_scaling(run_once, emit):
    def sweep():
        rows = []
        for size in SIZES:
            linear = _run_workload(EngineConfig.lazycon(), size)
            indexed = _run_workload(EngineConfig.optimized(), size)
            rows.append((size, linear.rules_evaluated, indexed.rules_evaluated))
        return rows

    rows = run_once(sweep)
    emit(
        format_table(
            ["rules installed", "linear scan evals", "EPTSPC evals"],
            rows,
            title="Ablation: entrypoint-specific chains vs linear scan",
        )
    )
    # Linear grows with the rule base; the index stays flat.
    assert rows[-1][1] > rows[0][1] * 2
    assert rows[-1][2] <= rows[0][2] * 1.5


def test_traversal_state_ablation(run_once, emit):
    def compare():
        per_process = _run_workload(EngineConfig.optimized(), 100)
        global_pf = _run_firewall(
            EngineConfig.optimized().clone(global_traversal_state=True), 100, metered=True
        )
        return per_process, global_pf.stats, global_pf.metrics.value("pf_fast_path_total")

    per_process, global_state, fast_paths = run_once(compare)
    traversals = global_state.invocations - fast_paths
    emit(
        format_table(
            ["design", "invocations", "traversals", "irq disables"],
            [
                ("per-process state (paper)", per_process.invocations, traversals,
                 per_process.irq_disables),
                ("global state (iptables)", global_state.invocations, traversals,
                 global_state.irq_disables),
            ],
            title="Ablation: traversal-state placement",
        )
    )
    assert per_process.irq_disables == 0
    # A fast-path accept walks no chain, so it needs no disable.
    assert global_state.irq_disables == traversals > 0


def test_lazy_context_ablation(run_once, emit):
    def compare():
        eager = _run_workload(EngineConfig.concache(), 400)
        lazy = _run_workload(EngineConfig.lazycon(), 400)
        return eager, lazy

    eager, lazy = run_once(compare)
    eager_total = sum(eager.context_collections.values())
    lazy_total = sum(lazy.context_collections.values())
    emit(
        format_table(
            ["mode", "context collections", "abstract cost"],
            [
                ("eager (CONCACHE)", eager_total, eager.context_cost),
                ("lazy (LAZYCON)", lazy_total, lazy.context_cost),
            ],
            title="Ablation: lazy vs eager context retrieval",
        )
    )
    assert lazy_total < eager_total
    assert lazy.context_cost < eager.context_cost


def test_compiled_dispatch_ablation(run_once, emit):
    def compare():
        eptspc = _run_workload(EngineConfig.optimized(), 400)
        compiled = _run_workload(EngineConfig.compiled(), 400)
        return eptspc, compiled

    eptspc, compiled = run_once(compare)
    emit(
        format_table(
            ["engine", "invocations", "rules evaluated", "decision-cache hits"],
            [
                ("EPTSPC", eptspc.invocations, eptspc.rules_evaluated, eptspc.decision_cache_hits),
                (
                    "COMPILED",
                    compiled.invocations,
                    compiled.rules_evaluated,
                    compiled.decision_cache_hits,
                ),
            ],
            title="Ablation: compiled dispatch + negative-decision cache",
        )
    )
    # The repeated stat loop is exactly the shape the decision cache
    # eats: after the first traversal per (op, entrypoint) shape, whole
    # walks are skipped — so COMPILED evaluates no more rules, and the
    # hit counter proves the short-circuit actually fires.
    assert compiled.decision_cache_hits > 0
    assert compiled.rules_evaluated <= eptspc.rules_evaluated
