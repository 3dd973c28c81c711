"""Ablations of the design choices DESIGN.md calls out.

1. **Entrypoint chains vs linear scan** (§4.3): rules-evaluated per
   operation as the rule base grows — the index keeps work flat while
   the linear scan grows linearly.
2. **Lazy vs eager context retrieval** (§4.2): context-module
   collections per syscall.
3. **Compiled dispatch + negative-decision cache** (beyond the paper's
   ladder): whole traversals short-circuited per process once a
   default-allow verdict is proven context-independent.

Per-process vs global traversal state (§5.1) is no longer an ablation:
the engine keeps a walk's state in the locals of one invocation, so
there is no global state to emulate (EXPERIMENTS.md, "History: global
traversal-state ablation").
"""

import pytest

from repro.analysis.tables import format_table
from repro.firewall.engine import EngineConfig, ProcessFirewall
from repro.rulesets.generated import generate_full_rulebase
from repro.world import build_world, spawn_root_shell

SIZES = [50, 200, 800]


def _run_workload(config, rule_count):
    world = build_world()
    world.audit_enabled = False
    pf = ProcessFirewall(config)
    world.attach_firewall(pf)
    pf.install_all(generate_full_rulebase(size=rule_count))
    root = spawn_root_shell(world)
    for _ in range(50):
        world.sys.stat(root, "/etc/passwd")
    return pf.stats


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
