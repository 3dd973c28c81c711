"""The Process Firewall engine: the rule-processing loop of Figure 3.

Invoked by the kernel after DAC + MAC authorization for every mediated
operation.  The engine builds its "packet" on demand from context
modules, walks the applicable chains, and raises
:class:`repro.errors.PFDenied` when a ``DROP`` rule matches.  The
default verdict is allow (§4.1: deny-only rules + default allow).

Engine optimizations are individually switchable so Table 6's columns
are directly expressible:

====================  ==========================================
Column                :class:`EngineConfig` preset
====================  ==========================================
DISABLED              ``EngineConfig.disabled()``
BASE / FULL           ``EngineConfig.unoptimized()``
CONCACHE              ``EngineConfig.concache()``
LAZYCON               ``EngineConfig.lazycon()``
EPTSPC                ``EngineConfig.optimized()`` (the default)
COMPILED              ``EngineConfig.compiled()``
====================  ==========================================

(BASE vs FULL differ by rule-base size, not engine configuration.)

The COMPILED rung tops the paper's ladder: chains pre-compile flat
per-``(op, entrypoint)`` dispatch tuples at first use (invalidated on
every rule mutation), and a per-process **negative-decision cache**
memoizes default-allow verdicts whose traversal consulted nothing
resource- or call-dependent — see ``docs/INTERNALS.md``.  Both
entrypoint-chain rungs (EPTSPC, COMPILED) also skip a ``syscallbegin``
chain whose syscall index (``Chain.syscalls``) excludes the syscall
being begun.  See ``docs/COMPILATION.md`` for the full ladder.

The engine also hosts the :mod:`repro.obs` observability layer:
decision traces (opt-in via :meth:`ProcessFirewall.enable_tracing`),
the metrics registry (:attr:`ProcessFirewall.metrics`, disabled by
default), and the bounded audit ring
(:attr:`ProcessFirewall.audit`, always on — it replaces the old
unbounded list of ``-j LOG`` records).  With tracing off and metrics
disabled the hot path pays only ``is None`` / boolean checks; the
differential harness pins that enabling them changes no verdict.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict

from repro import errors
from repro.firewall import targets as tg
from repro.firewall.context import _DECISION_STABLE_INT, ContextField, ContextFrame
from repro.firewall.modules.registry import collect_field
from repro.firewall.rule import RuleBase
from repro.obs.audit import WARNING, AuditRing
from repro.obs.metrics import (
    PHASE_CACHE_PROBE,
    PHASE_CHAIN_WALK,
    PHASE_CONTEXT,
    MetricsRegistry,
)
from repro.obs.trace import (
    FIELD_CACHED,
    FIELD_COLLECTED,
    STAGE_DECISION_CACHE,
    STAGE_FAST_PATH,
    RuleEval,
    Tracer,
)
from repro.security.lsm import Op

#: Maximum user-chain jump depth, like iptables' traversal limits.
MAX_CHAIN_DEPTH = 16

#: Syscall names whose execution mutates VFS or adversary-visible state.
#: :meth:`ProcessFirewall.mediate_batch` never amortizes across a record
#: of one of these: the record is mediated individually and acts as a
#: run barrier, so any verdict the batch pre-proved before the mutation
#: is never reused after it (``docs/INTERNALS.md`` "Batched mediation").
MUTATING_SYSCALLS = frozenset((
    "bind", "chdir", "chmod", "chown", "connect", "execve", "exit",
    "fork", "kill", "link", "mkdir", "mmap", "relabel", "remount",
    "rename", "rmdir", "seteuid", "setuid", "sigaction", "sigprocmask",
    "sigreturn", "symlink", "unlink", "write",
))

#: ``open(2)`` flag bits that make an open record mutating (create,
#: truncate, or any write mode).
_OPEN_WRITE_BITS = 0x1 | 0x2 | 0x40 | 0x200 | 0x400  # WRONLY|RDWR|CREAT|TRUNC|APPEND


def record_mutates(operation):
    """Whether a mediated record's *syscall* mutates shared state.

    Used by :meth:`ProcessFirewall.mediate_batch` to bound its
    amortization runs: mediation itself never writes to the VFS, but
    the syscall a record belongs to may, and a batch caller interleaves
    execution with mediation.  Conservative by construction — read-only
    opens are recognized by their flag bits; everything in
    :data:`MUTATING_SYSCALLS` (and any ``FILE_CREATE`` operation)
    counts as mutating.
    """
    syscall = operation.syscall
    if syscall in MUTATING_SYSCALLS:
        return True
    if operation.op is Op.FILE_CREATE:
        return True
    if syscall == "open":
        for arg in operation.args:
            if isinstance(arg, int) and arg & _OPEN_WRITE_BITS:
                return True
    return False


#: Retired preset spellings, mapped to the rung that replaced them.
#: ``"JITTED"`` (per-rule codegen) folded into COMPILED once the
#: syscall index removed the one walk it flattened; the repo benchmark
#: still passes that spelling.
PRESET_ALIASES = {"JITTED": "COMPILED"}


#: Bound once: enum class attribute lookups are slow on the hot path.
_SYSCALL_BEGIN = Op.SYSCALL_BEGIN


def syscall_arg0(operation):
    """The syscall a ``SYSCALL_BEGIN`` operation begins (its
    ``args[0]``); ``None`` for every other operation."""
    if operation.op is _SYSCALL_BEGIN and operation.args:
        return operation.args[0]
    return None


class EngineConfig:
    """Feature switches for the engine optimizations (paper §4.2-4.3)."""

    __slots__ = (
        "enabled",
        "context_cache",
        "lazy_context",
        "entrypoint_chains",
        "compiled_dispatch",
        "decision_cache",
        "global_traversal_state",
    )

    def __init__(
        self,
        enabled=True,
        context_cache=True,
        lazy_context=True,
        entrypoint_chains=True,
        compiled_dispatch=False,
        decision_cache=False,
        global_traversal_state=False,
    ):
        self.enabled = enabled
        self.context_cache = context_cache
        self.lazy_context = lazy_context
        self.entrypoint_chains = entrypoint_chains
        #: Walk precompiled per-(op, entrypoint) dispatch tuples
        #: instead of re-filtering/merging rule lists per mediation.
        self.compiled_dispatch = compiled_dispatch
        #: Memoize default-allow verdicts per process for traversals
        #: that touched no resource- or call-dependent context.
        self.decision_cache = decision_cache
        #: Ablation: emulate iptables' global traversal state, which
        #: requires disabling preemption/interrupts per invocation
        #: (counted in ``stats.irq_disables``) instead of the paper's
        #: per-process state (§5.1).
        self.global_traversal_state = global_traversal_state

    # ---- Table 6 column presets ----

    @classmethod
    def disabled(cls):
        """DISABLED: the firewall is attached but mediates nothing."""
        return cls(enabled=False)

    @classmethod
    def unoptimized(cls):
        """FULL: every optimization off — eager context, linear scan."""
        return cls(context_cache=False, lazy_context=False, entrypoint_chains=False)

    @classmethod
    def concache(cls):
        """FULL + context caching."""
        return cls(context_cache=True, lazy_context=False, entrypoint_chains=False)

    @classmethod
    def lazycon(cls):
        """CONCACHE + lazy context retrieval."""
        return cls(context_cache=True, lazy_context=True, entrypoint_chains=False)

    @classmethod
    def optimized(cls):
        """EPTSPC: all paper optimizations (the shipping default)."""
        return cls()

    @classmethod
    def compiled(cls):
        """COMPILED: EPTSPC + compiled dispatch + decision cache."""
        return cls(compiled_dispatch=True, decision_cache=True)

    @classmethod
    def preset(cls, name):
        """Resolve a Table 6 column name to its configuration.

        Accepts the column spellings used across the benchmarks and the
        service worker payloads (``"COMPILED"``, ``"eptspc"``, ...) and
        the retired ones in :data:`PRESET_ALIASES`; raises
        ``ValueError`` for unknown names so a typo in a worker payload
        fails loudly instead of silently running EPTSPC.
        """
        presets = {
            "DISABLED": cls.disabled,
            "FULL": cls.unoptimized,
            "BASE": cls.unoptimized,
            "CONCACHE": cls.concache,
            "LAZYCON": cls.lazycon,
            "EPTSPC": cls.optimized,
            "COMPILED": cls.compiled,
        }
        key = str(name).upper()
        factory = presets.get(PRESET_ALIASES.get(key, key))
        if factory is None:
            raise ValueError("unknown engine preset {!r} (expected one of {})".format(
                name, "/".join(sorted(presets))))
        return factory()

    def clone(self, **overrides):
        """Copy this configuration, overriding selected switches."""
        values = {name: getattr(self, name) for name in self.__slots__}
        values.update(overrides)
        return EngineConfig(**values)


class EngineStats:
    """Flat counters exposed to the benchmark harness.

    The aggregate view; per-rule / per-chain / per-table breakdowns
    live in the firewall's :class:`repro.obs.metrics.MetricsRegistry`.
    """

    def __init__(self):
        self.invocations = 0
        self.rules_evaluated = 0
        self.drops = 0
        self.accepts = 0
        self.context_collections = {}  # type: Dict[str, int]
        self.context_cost = 0
        #: Context-collection work actually avoided by the per-process
        #: context cache: counted at lookup time, the first time a rule
        #: (or the eager collector) reads an absorbed field — never for
        #: fields the cache carried but nothing consulted.
        self.cache_hits = 0
        #: Whole traversals short-circuited by the negative-decision
        #: cache (COMPILED configurations only).
        self.decision_cache_hits = 0
        self.irq_disables = 0

    #: Fixed at zero for ``repobench/common.py::kernel_counters``.
    rescache_hits = rescache_misses = 0

    #: Scalar counters, in declaration order; ``context_collections``
    #: (a per-field dict) is handled separately by the snapshot/merge
    #: helpers below.
    SCALAR_FIELDS = (
        "invocations",
        "rules_evaluated",
        "drops",
        "accepts",
        "context_cost",
        "cache_hits",
        "decision_cache_hits",
        "irq_disables",
    )

    def reset(self):
        """Zero every counter (the engine's other memos are untouched —
        resetting statistics must not change decisions, and the memos
        are invalidated by rule-base stamps, not by this method)."""
        self.__init__()

    def as_dict(self):
        """JSON-ready snapshot of every counter.

        The transport format for crossing a process boundary (service
        workers ship these back to the driver in their snapshots);
        :meth:`from_dict` inverts it and :meth:`merge` folds snapshots
        together.
        """
        out = {name: getattr(self, name) for name in self.SCALAR_FIELDS}
        out["context_collections"] = dict(self.context_collections)
        return out

    @classmethod
    def from_dict(cls, payload):
        """Rebuild a stats object from an :meth:`as_dict` snapshot."""
        stats = cls()
        for name in cls.SCALAR_FIELDS:
            setattr(stats, name, payload.get(name, 0))
        stats.context_collections = dict(payload.get("context_collections", {}))
        return stats

    def merge(self, other):
        """Fold another stats object (or snapshot dict) into this one.

        Pure counter addition, so the operation is associative and
        commutative: merging per-worker stats in any order yields the
        same totals.  Returns ``self`` for chaining.
        """
        if isinstance(other, dict):
            other = EngineStats.from_dict(other)
        for name in self.SCALAR_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for field, count in other.context_collections.items():
            self.context_collections[field] = self.context_collections.get(field, 0) + count
        return self


class ProcessFirewall:
    """The firewall proper: rule base + engine + statistics.

    Observability attachments:

    - :attr:`stats` — flat :class:`EngineStats` counters (always on).
    - :attr:`audit` — bounded :class:`repro.obs.audit.AuditRing`; the
      ``-j LOG`` target and drop notifications land here; read the
      ``-j LOG`` records with ``audit.records(kind="log")``.
    - :attr:`metrics` — :class:`repro.obs.metrics.MetricsRegistry`
      (call ``firewall.metrics.enable()`` to start counting).
    - :attr:`tracer` — ``None`` until :meth:`enable_tracing`; then a
      :class:`repro.obs.trace.Tracer` recording one
      :class:`~repro.obs.trace.DecisionTrace` per mediation.
    """

    def __init__(self, config=None, audit_capacity=4096):
        self.config = config or EngineConfig.optimized()
        self.rules = RuleBase()
        self.kernel = None  # set by Kernel.attach_firewall
        self.stats = EngineStats()
        #: Bounded audit ring (replaces the unbounded ``-j LOG`` list).
        self.audit = AuditRing(capacity=audit_capacity)
        #: Per-rule/per-chain counters and phase timers; disabled by
        #: default so the hot path pays one boolean test per site.
        self.metrics = MetricsRegistry()
        #: Decision tracer; ``None`` (the default) disables tracing.
        self.tracer = None
        #: Shared traversal stack used only in the iptables-emulation
        #: ablation (global_traversal_state).
        self._shared_traversal = []
        #: Memo of relevant top-level chains per op (and per syscall,
        #: for SYSCALL_BEGIN), keyed by rule-base stamp (hot-path
        #: optimization for the op- and syscall-index skips).  The
        #: stamp, not the bare version, so an atomically swapped rule
        #: base (persist restore) can never alias a stale memo.
        self._chain_memo = {}
        self._chain_memo_stamp = None

    # ------------------------------------------------------------------
    # policy plumbing
    # ------------------------------------------------------------------

    def tcb_subjects(self):
        """Subject labels the MAC policy treats as trusted (SYSHIGH)."""
        policy = self.kernel.adversaries.policy if self.kernel else None
        return policy.tcb_subjects if policy is not None else frozenset()

    def tcb_objects(self):
        """Object labels the MAC policy treats as trusted (SYSHIGH)."""
        policy = self.kernel.adversaries.policy if self.kernel else None
        return policy.tcb_objects if policy is not None else frozenset()

    def install(self, rule_text):
        """Install one ``pftables`` rule line (convenience wrapper)."""
        # Lazy on purpose (circular: pftables imports engine types), and
        # cold — installs happen at setup, never per mediation.
        from repro.firewall.pftables import pftables  # hot-import: ok

        return pftables(self, rule_text)

    def install_all(self, rule_texts):
        """Install a sequence of ``pftables`` lines; returns the rules."""
        return [self.install(text) for text in rule_texts]

    def flush(self):
        """Remove every rule and reset the engine's observable history.

        Installs a fresh :class:`RuleBase` (a new ``uid`` ⇒ a new
        ``stamp``), zeroes :attr:`stats`, clears the audit ring, the
        metrics registry's values, and any retained traces.  The
        installed-chain memo is dropped eagerly, and per-process
        decision caches — which the engine cannot enumerate — are
        neutralized by the stamp change: any entry recorded under the
        old rule base can no longer match
        (``tests/firewall/test_flush_invalidation.py`` pins both).
        """
        self.rules = RuleBase()
        self.stats.reset()
        self.audit.clear()
        self.metrics.reset()
        if self.tracer is not None:
            self.tracer.clear()
        self._chain_memo = {}
        self._chain_memo_stamp = None

    # ------------------------------------------------------------------
    # observability plumbing
    # ------------------------------------------------------------------

    def enable_tracing(self, capacity=256):
        """Start recording one decision trace per mediation.

        Returns the installed :class:`repro.obs.trace.Tracer` (an
        existing tracer is kept, so repeated calls are idempotent).
        Tracing changes no verdict, counter, or log record — only what
        is additionally *recorded*; the observability differential
        harness pins this.
        """
        if self.tracer is None:
            self.tracer = Tracer(capacity=capacity)
        return self.tracer

    def disable_tracing(self):
        """Stop tracing and drop the tracer (and its retained traces)."""
        self.tracer = None

    # ------------------------------------------------------------------
    # context retrieval (lazy, bitmask-guarded — §4.2)
    # ------------------------------------------------------------------

    def ensure(self, field, operation, frame):
        """Return the context value, collecting it if not yet present.

        A context module hitting malformed process memory (EFAULT)
        yields ``None`` rather than failing the mediation — paper §4.4:
        the engine "aborts evaluation of malformed context without
        itself exiting or functioning incorrectly", at the cost of the
        malformed process's own protection.

        Every lookup also feeds two kinds of bookkeeping: a field that
        is not decision-stable poisons the negative-decision cache for
        this traversal, and the first read of a field absorbed from the
        per-process context cache counts one ``cache_hits`` (the
        collection the cache actually avoided).  When tracing is on,
        the first use of a field is recorded on the frame's trace as
        ``collected`` or ``cached``; when metrics are enabled, the
        collection is timed into the ``context`` phase.
        """
        bits = field.value
        if bits & _DECISION_STABLE_INT:
            if field is ContextField.ENTRYPOINT:
                frame.used_entrypoint = True
        else:
            frame.decision_unsafe = True
        if frame.mask & bits:
            if frame.cached_mask & bits:
                frame.cached_mask &= ~bits
                self.stats.cache_hits += 1
                trace = frame.trace
                if trace is not None:
                    trace.note_field(field.name, FIELD_CACHED)
                if self.metrics.enabled:
                    self.metrics.inc(
                        "pf_context_cache_hits_total", {"field": field.name}
                    )
            return frame.get(field)
        return self._collect_checked(field, operation, frame)

    def _collect_checked(self, field, operation, frame):
        """Collect one field with trace/metrics bookkeeping and the
        EFAULT degrade-to-``None`` discipline of :meth:`ensure`."""
        trace = frame.trace
        if trace is not None:
            trace.note_field(field.name, FIELD_COLLECTED)
        metrics = self.metrics
        if metrics.enabled:
            started = perf_counter()
            try:
                return collect_field(field, operation, self.kernel, frame, self.stats)
            except errors.EFAULT:
                frame.put(field, None)
                return None
            finally:
                metrics.observe_phase(PHASE_CONTEXT, perf_counter() - started)
                metrics.inc("pf_context_collections_total", {"field": field.name})
        try:
            return collect_field(field, operation, self.kernel, frame, self.stats)
        except errors.EFAULT:
            frame.put(field, None)
            return None

    # ------------------------------------------------------------------
    # the main loop (Figure 3)
    # ------------------------------------------------------------------

    def mediate(self, operation):
        """Evaluate the rule base; raise :class:`PFDenied` on DROP.

        The pipeline stages (named as in ``docs/INTERNALS.md`` and in
        trace records): *fast_path* (op- and syscall-index skip),
        *decision_cache* (COMPILED's memoized default-allows),
        *context* (frame build + field collection), *chain_walk*
        (mangle then filter), and *verdict*.
        """
        if not self.config.enabled:
            return
        self.stats.invocations += 1
        metrics = self.metrics
        metered = metrics.enabled
        tracer = self.tracer
        trace = tracer.begin(operation) if tracer is not None else None
        if metered:
            metrics.inc("pf_mediations_total", {"op": operation.op.value})

        if self.config.entrypoint_chains and not self._relevant_chains(
            operation.op, syscall_arg0(operation)
        ):
            # Fast path: no installed chain can match this operation.
            # Safe because the base is deny-only with default allow —
            # skipping non-matching rules cannot change the verdict.
            self.stats.accepts += 1
            if trace is not None:
                trace.enter_stage(STAGE_FAST_PATH)
                trace.finish("ALLOW")
            if metered:
                metrics.inc("pf_fast_path_total")
                metrics.inc("pf_verdicts_total", {"verdict": "allow"})
            return

        if self.config.global_traversal_state:
            # iptables-style: traversal state is global, so the walk
            # must run with "interrupts disabled" (counted, not real).
            # The push/pop pair brackets the whole slow path in
            # try/finally: a DROP (PFDenied) or a mid-walk error must
            # not leak an entry in the shared stack.
            self.stats.irq_disables += 1
            self._shared_traversal.append(operation)
            try:
                return self._mediate_slow(operation, trace, metrics, metered)
            finally:
                self._shared_traversal.pop()
        return self._mediate_slow(operation, trace, metrics, metered)

    def mediate_batch(self, operations):
        """Mediate a sequence of operations; returns per-record verdicts.

        The batched fast path behind the service runner's step loop
        (:meth:`repro.service.core.SessionRunner._replayable_step`).
        The contract is strict:
        calling this must be *observably identical* to the per-call
        loop — ``mediate(op)`` catching :class:`~repro.errors.PFDenied`
        for each record — in verdicts, :class:`EngineStats`, audit
        records, metrics, and every cache the engine maintains.  The
        returned list holds ``"allow"`` or ``"drop"`` per record, in
        order; nothing is raised.

        Amortization applies only to **runs**: maximal stretches of
        consecutive records sharing ``(op kind, subject process,
        syscall_arg0)`` in which no record's syscall mutates VFS or
        adversary state (:func:`record_mutates`).  Two run shapes skip
        the per-record engine prologue:

        - *fast-path runs* — no installed chain is relevant to the op
          kind (and, for ``SYSCALL_BEGIN``, the syscall), so one
          chain-memo probe proves the default allow for the whole run;
        - *decision-cached runs* — the subject's negative-decision
          cache already holds an unconditional (subject-keyed) allow
          for ``(op, subject label, syscall_arg0)`` under the current
          rule-base stamp, so one probe covers the run.

        Runs that miss both probes still amortize per **syscall-seq
        group** (records emitted by one syscall invocation): the first
        record of each group is mediated per-call — the one
        context-collection prologue — and when that mediation resolves
        to a decision-cache hit, the group's remaining records are
        proven to repeat it exactly (same subject, same stack, same
        per-seq context-cache frame), so their counters are applied
        without re-running the prologue
        (:meth:`_mediate_run_cached`).  Everything else — traced or
        metered mediations, the global-traversal ablation,
        configurations without entrypoint chains or the context cache,
        and every mutating record — falls back to ``mediate()`` record
        by record (see ``docs/INTERNALS.md`` "Batched mediation" for
        the invalidation rules).
        """
        verdicts = []
        config = self.config
        if not config.enabled:
            # mediate() is a no-op when the engine is disabled.
            return ["allow"] * len(operations)
        batchable = (
            self.tracer is None
            and not self.metrics.enabled
            and not config.global_traversal_state
            and config.entrypoint_chains
        )
        stats = self.stats
        n = len(operations)
        i = 0
        while i < n:
            operation = operations[i]
            if batchable and not record_mutates(operation):
                kind = operation.op
                proc = operation.proc
                nr = syscall_arg0(operation)
                j = i + 1
                while (
                    j < n
                    and operations[j].op is kind
                    and operations[j].proc is proc
                    and (kind is not _SYSCALL_BEGIN or syscall_arg0(operations[j]) == nr)
                    and not record_mutates(operations[j])
                ):
                    j += 1
                k = j - i
                if k >= 2:
                    if not self._relevant_chains(kind, nr):
                        # One op-index probe proves the whole run.
                        stats.invocations += k
                        stats.accepts += k
                        verdicts.extend(["allow"] * k)
                        i = j
                        continue
                    if config.decision_cache and proc is not None:
                        dentries = proc.pf.decision_probe(self.rules.stamp)
                        if (
                            dentries is not None
                            and dentries.get((kind, proc.label, nr)) is True
                        ):
                            # One cache probe proves the whole run.
                            stats.invocations += k
                            stats.decision_cache_hits += k
                            stats.accepts += k
                            verdicts.extend(["allow"] * k)
                            i = j
                            continue
                        if config.context_cache:
                            self._mediate_run_cached(operations, i, j, verdicts)
                            i = j
                            continue
            try:
                self.mediate(operation)
            except errors.PFDenied:
                verdicts.append("drop")
            else:
                verdicts.append("allow")
            i += 1
        return verdicts

    def _mediate_run_cached(self, operations, start, end, verdicts):
        """Mediate one non-mutating run, amortizing decision-cache hits.

        Called by :meth:`mediate_batch` for a run (same op kind, same
        subject, no mutating syscalls) under a decision-cache +
        context-cache configuration.  The run is processed in
        **syscall-seq groups**: records sharing ``syscall_seq`` were
        emitted by the same syscall invocation, so between them the
        subject's stack, label, and per-seq context-cache frame cannot
        change.  The group's first record runs through ``mediate()``
        untouched; if exactly one decision-cache hit resulted and the
        cache entry for ``(op, label, syscall_arg0)`` is still present
        under the current stamp, every remaining record in the group would
        retrace that hit verbatim, so its counters are applied
        directly:

        - subject-keyed entry (``True``): probe, hit, allow — no frame;
        - entrypoint-keyed entry (head set): frame rebuilt from the
          per-seq context cache (one absorbed ``ENTRYPOINT`` read →
          ``cache_hits``), same head, same membership, allow.

        Any other outcome — a drop, a full walk, a stale cache — keeps
        mediating per-call, so behavior stays byte-identical to the
        per-call loop (pinned by the batch differential suite).
        """
        stats = self.stats
        idx = start
        while idx < end:
            operation = operations[idx]
            seq = operation.extra.get("syscall_seq")
            group_end = idx + 1
            if seq is not None:
                while (
                    group_end < end
                    and operations[group_end].extra.get("syscall_seq") == seq
                ):
                    group_end += 1
            hits_before = stats.decision_cache_hits
            try:
                self.mediate(operation)
            except errors.PFDenied:
                verdicts.append("drop")
                idx += 1
                continue
            verdicts.append("allow")
            idx += 1
            rest = group_end - idx
            if rest <= 0 or stats.decision_cache_hits != hits_before + 1:
                continue
            proc = operation.proc
            dentries = proc.pf.decision_probe(self.rules.stamp)
            if dentries is None:
                continue
            known = dentries.get((operation.op, proc.label, syscall_arg0(operation)))
            if known is True:
                stats.invocations += rest
                stats.decision_cache_hits += rest
                stats.accepts += rest
                verdicts.extend(["allow"] * rest)
                idx = group_end
            elif isinstance(known, (set, frozenset)):
                stats.invocations += rest
                stats.cache_hits += rest
                stats.decision_cache_hits += rest
                stats.accepts += rest
                verdicts.extend(["allow"] * rest)
                idx = group_end

    def _mediate_slow(self, operation, trace, metrics, metered):
        """Post-fast-path mediation: cache probe, context, walk, verdict.

        Factored out of :meth:`mediate` so the shared-traversal push of
        the ``global_traversal_state`` ablation brackets every exit —
        including the ``PFDenied`` raise — with its balancing pop.
        """
        frame = None
        proc = operation.proc
        seq = operation.extra.get("syscall_seq")

        # Negative-decision cache probe: a previous traversal of the
        # same (op, subject label, syscall[, entrypoint head]) under
        # this exact rule base proved the default-allow verdict depends
        # on nothing else — skip the walk entirely.  The syscall is part
        # of the key because the syscall index picks the chains walked:
        # a getpid walk that skipped a chain naming getuid proves
        # nothing about getuid.  An entrypoint-independent hit needs no
        # context frame at all; an entrypoint-keyed one only needs the
        # (per-syscall-cached) stack unwind.
        dkey = stamp = None
        if self.config.decision_cache and proc is not None:
            probe_started = perf_counter() if metered else 0.0
            if trace is not None:
                trace.enter_stage(STAGE_DECISION_CACHE)
            stamp = self.rules.stamp
            dkey = (operation.op, proc.label, syscall_arg0(operation))
            # A stale or absent cache is not rebuilt here: allocation
            # waits for the first recordable verdict, so uncacheable
            # workloads (and short-lived forks) pay only this probe.
            # The probe view may be fork-shared — reads only; the
            # memoization below goes through decision_writable().
            dentries = proc.pf.decision_probe(stamp)
            if dentries is not None:
                known = dentries.get(dkey)
                if known is not None:
                    if known is True:
                        self.stats.decision_cache_hits += 1
                        self.stats.accepts += 1
                        if trace is not None:
                            trace.decision_cache = "hit"
                            trace.finish("ALLOW")
                        if metered:
                            metrics.observe_phase(
                                PHASE_CACHE_PROBE, perf_counter() - probe_started
                            )
                            metrics.inc("pf_decision_cache_total", {"result": "hit"})
                            metrics.inc("pf_verdicts_total", {"verdict": "allow"})
                        return
                    frame = self._new_frame(proc, seq, trace)
                    if self.ensure(ContextField.ENTRYPOINT, operation, frame) in known:
                        self.stats.decision_cache_hits += 1
                        self.stats.accepts += 1
                        if trace is not None:
                            trace.decision_cache = "hit-entrypoint"
                            trace.finish("ALLOW")
                        if metered:
                            metrics.observe_phase(
                                PHASE_CACHE_PROBE, perf_counter() - probe_started
                            )
                            metrics.inc("pf_decision_cache_total", {"result": "hit"})
                            metrics.inc("pf_verdicts_total", {"verdict": "allow"})
                        self._writeback_context(proc, seq, frame)
                        return
            if trace is not None:
                trace.decision_cache = "miss"
            if metered:
                metrics.observe_phase(PHASE_CACHE_PROBE, perf_counter() - probe_started)
                metrics.inc("pf_decision_cache_total", {"result": "miss"})

        if frame is None:
            frame = self._new_frame(proc, seq, trace)

        if not self.config.lazy_context:
            # Eager collection of every field any installed rule uses.
            needed = self.rules.required_fields
            for field in ContextField:
                if needed & field:
                    if frame.has(field):
                        bits = field.value
                        if frame.cached_mask & bits:
                            # The cache saved this eager collection.
                            frame.cached_mask &= ~bits
                            self.stats.cache_hits += 1
                            if trace is not None:
                                trace.note_field(field.name, FIELD_CACHED)
                        continue
                    self._collect_checked(field, operation, frame)

        walk_started = perf_counter() if metered else 0.0
        try:
            verdict, rule = self._traverse(operation, frame)
        finally:
            if metered:
                metrics.observe_phase(PHASE_CHAIN_WALK, perf_counter() - walk_started)
            self._writeback_context(proc, seq, frame)

        if verdict == tg.DROP:
            self.stats.drops += 1
            if trace is not None:
                trace.finish("DROP", rule)
            if metered:
                metrics.inc("pf_verdicts_total", {"verdict": "drop"})
            self.audit.emit(
                {
                    "time": self.kernel.clock.now() if self.kernel else 0,
                    "pid": proc.pid if proc is not None else None,
                    "comm": proc.comm if proc is not None else None,
                    "op": operation.op.value,
                    "syscall": operation.syscall,
                    "path": operation.path,
                    "rule": rule.text,
                },
                severity=WARNING,
                kind="drop",
            )
            raise errors.PFDenied("rule matched: {}".format(rule.text), rule=rule)
        self.stats.accepts += 1
        if trace is not None:
            trace.finish("ALLOW")
        if metered:
            metrics.inc("pf_verdicts_total", {"verdict": "allow"})

        if (
            dkey is not None
            and verdict == tg.CONTINUE
            and not frame.rule_matched
            and not frame.decision_unsafe
        ):
            # Clean default allow: no rule matched, nothing resource-
            # or call-dependent was consulted.  Memoize, keyed on the
            # entrypoint head only when the traversal looked at it.
            # decision_writable() allocates on the first recordable
            # verdict under this stamp and breaks any fork share, so
            # the mutation below never leaks into a relative.
            wentries = proc.pf.decision_writable(stamp)
            if frame.used_entrypoint:
                head = frame.get(ContextField.ENTRYPOINT)
                known = wentries.get(dkey)
                if known is None:
                    wentries[dkey] = {head}
                elif known is not True and len(known) < 1024:
                    known.add(head)
            else:
                wentries[dkey] = True

    def _new_frame(self, proc, seq, trace=None):
        """Fresh context frame, pre-seeded from the per-process cache."""
        frame = ContextFrame()
        frame.trace = trace
        if self.config.context_cache and seq is not None and proc is not None:
            cache = proc.pf.context_cache
            if cache is not None and cache[0] == seq:
                frame.absorb_cached(cache[1])
        return frame

    def _writeback_context(self, proc, seq, frame):
        """Refresh the per-process context cache after a mediation."""
        if (
            self.config.context_cache
            and seq is not None
            and proc is not None
            and frame.scoped_dirty
        ):
            # Replace-on-write: fork relatives may hold the old tuple,
            # which stays valid for them (their seq can never collide —
            # the kernel's syscall seq is monotonic).
            proc.pf.context_cache = (seq, frame.syscall_scoped_values())

    def _chains_for(self, op):
        """Built-in chain names a given operation is routed through."""
        if op is Op.SYSCALL_BEGIN:
            return ("syscallbegin",)
        if op is Op.FILE_CREATE:
            return ("create", "input")
        return ("input",)

    def _routed_chains(self, op):
        """Non-empty ``(table, chain)`` pairs ``op`` is routed through,
        mangle first (marking), then filter (verdicts)."""
        out = []
        for table_name in ("mangle", "filter"):
            table = self.rules.tables[table_name]
            for chain_name in self._chains_for(op):
                chain = table.chains.get(chain_name)
                if chain is not None and len(chain):
                    out.append((table, chain))
        return out

    def _relevant_chains(self, op, args0=None):
        """Routed ``(table, chain)`` pairs that could match ``op``.

        The op-index skip drops a chain no rule of which has a ``-o``
        covering ``op``; the syscall index drops a ``syscallbegin``
        chain whose ``Chain.syscalls`` excludes ``args0``, the syscall
        a ``SYSCALL_BEGIN`` operation begins (:func:`syscall_arg0`).
        Memoized per rule-base stamp: the result only changes when
        rules are installed or removed.
        """
        stamp = self.rules.stamp
        if self._chain_memo_stamp != stamp:
            self._chain_memo = {}
            self._chain_memo_stamp = stamp
        key = op if args0 is None else (op, args0)
        cached = self._chain_memo.get(key)
        if cached is not None:
            return cached
        out = []
        for table, chain in self._routed_chains(op):
            ops = chain.relevant_ops
            if ops is not None and op not in ops:
                if not (op is Op.LINK_READ and Op.LNK_FILE_READ in ops):
                    continue
            nrs = chain.syscalls
            if op is _SYSCALL_BEGIN and nrs is not None and args0 not in nrs:
                continue
            out.append((table, chain))
        self._chain_memo[key] = out
        return out

    def _traverse(self, operation, frame):
        """Walk mangle first (marking), then filter (verdicts).

        The mangle table mirrors iptables' mark-then-filter idiom: its
        rules annotate (``STATE``/``LOG``) and may ``ACCEPT`` to skip
        further mangle rules, but cannot ``DROP`` — verdicts belong to
        the filter table (enforced at install time).  With entrypoint
        chains on, only the :meth:`_relevant_chains` are walked.
        """
        proc = operation.proc
        metered = self.metrics.enabled
        if self.config.entrypoint_chains:
            pairs = self._relevant_chains(operation.op, syscall_arg0(operation))
        else:
            pairs = self._routed_chains(operation.op)
        accepted = None  # the table whose chains a mangle ACCEPT ended
        for table, chain in pairs:
            if table is accepted:
                continue
            if metered:
                self.metrics.inc(
                    "pf_chain_traversals_total",
                    {"table": table.name, "chain": chain.name},
                )
            if proc is not None:
                proc.pf_traversal.append(chain.name)
            try:
                verdict, rule = self._walk_chain(table, chain, operation, frame, depth=0)
            finally:
                if proc is not None:
                    proc.pf_traversal.pop()
            if verdict == tg.DROP:
                return verdict, rule
            if verdict == tg.ACCEPT:
                if table.name == "filter":
                    return verdict, rule
                accepted = table  # mangle ACCEPT: stop mangle, proceed to filter
        return (tg.CONTINUE, None)

    def _walk_chain(self, table, chain, operation, frame, depth):
        """Evaluate one chain (and any user-chain jumps) for an operation."""
        if depth > MAX_CHAIN_DEPTH:
            raise errors.EINVAL("chain jump depth exceeded in {!r}".format(chain.name))

        op = operation.op
        prefiltered = False
        if self.config.entrypoint_chains:
            if self.config.compiled_dispatch:
                # COMPILED: one flat, already op-filtered tuple per
                # (op, entrypoint) shape — no merging, no per-rule op
                # compare.  The entrypoint is only resolved (a stack
                # unwind) when some bucket rule could handle this op,
                # and only keys actually installed reach dispatch(), so
                # the memo stays bounded.
                ept_key = None
                if chain.by_entrypoint:
                    ept_ops = chain.ept_ops
                    wanted = (
                        ept_ops is None
                        or op in ept_ops
                        or (op is Op.LINK_READ and Op.LNK_FILE_READ in ept_ops)
                    )
                    if wanted:
                        head = self.ensure(ContextField.ENTRYPOINT, operation, frame)
                        if head in chain.by_entrypoint:
                            ept_key = head
                sequences = (chain.dispatch(op, ept_key),)
                prefiltered = True
            else:
                # §4.3: non-entrypoint rules first (narrowed to those
                # whose -o could match), then only the bucket for the
                # current entrypoint — and only when some bucket rule
                # handles this operation at all (otherwise the stack
                # unwind is skipped).
                sequences = [chain.preamble_for(op)]
                if chain.by_entrypoint:
                    ept_ops = chain.ept_ops
                    wanted = (
                        ept_ops is None
                        or op in ept_ops
                        or (op is Op.LINK_READ and Op.LNK_FILE_READ in ept_ops)
                    )
                    if wanted:
                        bucket = chain.by_entrypoint.get(
                            self.ensure(ContextField.ENTRYPOINT, operation, frame)
                        )
                        if bucket:
                            sequences.append(bucket)
        else:
            sequences = [chain.rules]

        trace = frame.trace
        visit = trace.begin_chain(table.name, chain.name) if trace is not None else None
        metrics = self.metrics
        metered = metrics.enabled

        for sequence in sequences:
            for rule in sequence:
                self.stats.rules_evaluated += 1
                if metered:
                    metrics.inc(
                        "pf_rules_evaluated_total",
                        {"table": table.name, "chain": chain.name},
                    )
                if not prefiltered:
                    rule_op = rule.op
                    if rule_op is not None and rule_op is not op:
                        # Inline header compare, before any method
                        # dispatch (the LNK_FILE_READ/LINK_READ alias is
                        # normalized at parse time; only the raw-enum
                        # alias remains).
                        if not (op is Op.LINK_READ and rule_op is Op.LNK_FILE_READ):
                            if visit is not None:
                                visit.rules.append(RuleEval(
                                    rule.text, "miss",
                                    failed_match="-o {}".format(rule_op.value),
                                ))
                            continue
                if visit is None:
                    if not self._rule_matches(rule, operation, frame):
                        continue
                else:
                    failed = self._first_failing_match(rule, operation, frame)
                    if failed is not None:
                        visit.rules.append(RuleEval(
                            rule.text, "miss", failed_match=failed.render()
                        ))
                        continue
                rule.hits += 1
                frame.rule_matched = True
                if metered:
                    metrics.inc(
                        "pf_rule_hits_total",
                        {"table": table.name, "chain": chain.name, "rule": rule.text},
                    )
                verdict, arg = rule.target.execute(self, operation, frame)
                if visit is not None:
                    visit.rules.append(RuleEval(
                        rule.text, "matched",
                        target=rule.target.render(), verdict=verdict,
                    ))
                if verdict in (tg.DROP, tg.ACCEPT):
                    if metered and verdict == tg.DROP:
                        metrics.inc(
                            "pf_rule_drops_total",
                            {"table": table.name, "chain": chain.name, "rule": rule.text},
                        )
                    return (verdict, rule)
                if verdict == tg.RETURN:
                    return (tg.CONTINUE, None)
                if verdict == tg.JUMP:
                    sub = table.chain(arg, create=True)
                    sub_verdict, sub_rule = self._walk_chain(table, sub, operation, frame, depth + 1)
                    if sub_verdict in (tg.DROP, tg.ACCEPT):
                        return (sub_verdict, sub_rule)
                # CONTINUE: fall through to the next rule.
        return (tg.CONTINUE, None)

    def _rule_matches(self, rule, operation, frame):
        """Whether every match module of ``rule`` accepts the operation."""
        for match in rule.matches:
            if not match.matches(self, operation, frame):
                return False
        return True

    def _first_failing_match(self, rule, operation, frame):
        """Traced twin of :meth:`_rule_matches`.

        Evaluates the same predicates in the same order with the same
        early exit, but returns the first *failing* match module (or
        ``None`` on a full match) so traces can name the predicate
        that killed each miss.
        """
        for match in rule.matches:
            if not match.matches(self, operation, frame):
                return match
        return None
