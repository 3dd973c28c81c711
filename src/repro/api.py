"""``repro.api`` — the ``Session`` facade over world + kernel + engine + obs.

Before this module, every driver in the repo assembled its mediation
stack by hand — ``experiments.py``, ``workloads/replay.py``,
``parallel/worker.py``, the benchmarks, and ``cli.py`` each repeated
the same four steps (build a world, construct a
:class:`~repro.firewall.engine.ProcessFirewall` from some flag
spelling, attach it, install rules) with slightly different flag
plumbing.  The service driver (:mod:`repro.service`) cannot afford a
fifth copy, so construction now has one front door:

>>> from repro.api import Session
>>> session = Session(engine="COMPILED", rules=safe_open_pf_rules())
>>> shell = session.spawn("sh", binary_path="/bin/sh")
>>> session.sys.open(shell, "/etc/passwd", "r")

``Session`` collapses the engine-column zoo (EPTSPC / COMPILED
classmethods, ``EngineConfig.preset`` strings, per-benchmark
flag tuples) into a single ``engine=`` parameter, accepts rules in
every shape the repo produces (pftables lines, ``save_rules`` text,
installer callables), and owns the world-builder registry that
parallel workers previously kept privately.  The per-process lifecycle
gains an explicit reap path: :meth:`Session.reap` frees the process's
firewall state (:meth:`~repro.firewall.procstate.ProcState.release`),
its descriptor table, and its pid-census entry — what service mode
calls on every session close.

The public surface is exactly ``__all__``; everything else in this
module is plumbing.
"""

from __future__ import annotations

import importlib

from repro.errors import PFDenied
from repro.firewall.engine import EngineConfig, ProcessFirewall
from repro.firewall.persist import load_rules
from repro.kernel import Kernel
from repro.world import build_world

__all__ = [
    "Session",
    "WORLD_BUILDERS",
    "register_world",
    "resolve_engine",
]


def resolve_engine(engine):
    """Normalize every engine spelling to one :class:`EngineConfig`.

    ``None`` means the shipping default (EPTSPC, the paper's fully
    optimized engine); a string is a Table 6 column name resolved via
    :meth:`EngineConfig.preset` (``"COMPILED"``, ``"eptspc"``, ...);
    an :class:`EngineConfig` instance passes through untouched (for
    ablations that need hand-tuned switches).  Anything else raises
    ``TypeError`` so a misplaced argument fails loudly.
    """
    if engine is None:
        return EngineConfig.optimized()
    if isinstance(engine, EngineConfig):
        return engine
    if isinstance(engine, str):
        return EngineConfig.preset(engine)
    raise TypeError(
        "engine must be None, a preset name, or an EngineConfig, "
        "not {!r}".format(type(engine).__name__)
    )


#: World builders resolvable by name.  Registered by name (not by
#: callable) because service worker payloads must pickle
#: across the spawn boundary.  ``"standard"`` is the Ubuntu-flavoured
#: E-scenario world from :func:`repro.world.build_world`.
WORLD_BUILDERS = {
    "standard": build_world,
}

#: Builders resolved lazily on first use, as ``(module, attribute)``.
#: Lazy because their home modules import this one at top level — an
#: eager import here would be circular — and because a process that
#: never builds a service world should not pay its import.
_LAZY_BUILDERS = {
    "service": ("repro.workloads.generators", "build_service_world"),
}


def register_world(name, builder):
    """Register ``builder`` (a callable returning a Kernel) as ``name``.

    Extension point for new workload families; the returned builder is
    what ``Session(world=name)`` and worker payloads will call.
    Re-registering a name replaces the previous builder.
    """
    WORLD_BUILDERS[name] = builder
    return builder


def _resolve_world_builder(name):
    """Builder for ``name``, importing a lazy registration on demand."""
    builder = WORLD_BUILDERS.get(name)
    if builder is None and name in _LAZY_BUILDERS:
        module_name, attr = _LAZY_BUILDERS[name]
        builder = getattr(importlib.import_module(module_name), attr)
        WORLD_BUILDERS[name] = builder
    if builder is None:
        raise ValueError("unknown world {!r} (expected one of {})".format(
            name, "/".join(sorted(set(WORLD_BUILDERS) | set(_LAZY_BUILDERS)))))
    return builder


class Session:
    """One assembled mediation stack: world + kernel + engine + obs.

    Parameters
    ----------
    engine:
        Engine column — ``None`` (EPTSPC default), a preset name
        string, or an :class:`EngineConfig` (see :func:`resolve_engine`).
    rules:
        What to install: ``None`` (no rules), a string of
        ``save_rules``/pftables text (restored atomically via
        :func:`repro.firewall.persist.load_rules`), an iterable of
        pftables lines, or a callable taking the firewall (e.g.
        :func:`repro.rulesets.generated.install_full_rulebase`).
    world:
        Where processes live — a registered builder name, a
        ``(name, kwargs)`` tuple (the picklable worker-payload shape),
        an existing :class:`~repro.kernel.Kernel` to adopt, or a
        callable returning one.
    world_kwargs:
        Extra keyword arguments for a named/callable world builder.
    metered:
        Enable the firewall's metrics registry (per-rule counters and
        phase timers; off by default, matching the engine).
    traced:
        Enable per-mediation decision traces
        (:meth:`ProcessFirewall.enable_tracing`).
    audit_capacity:
        Bound of the firewall's audit ring.
    kernel_audit:
        ``True``/``False`` forces the *kernel* audit log on or off
        (workers turn it off: it is not part of merged results);
        ``None`` keeps whatever the world builder chose.
    dcache:
        ``True``/``False`` forces the kernel's fast-path name
        resolution (:mod:`repro.vfs.dcache`) on or off; ``None``
        (default) keeps the kernel default (on).  Disabling forces
        every path walk cold — the reference side of the dcache
        differential suite and benchmarks.
    """

    def __init__(
        self,
        engine=None,
        rules=None,
        world="standard",
        world_kwargs=None,
        metered=False,
        traced=False,
        audit_capacity=4096,
        kernel_audit=None,
        dcache=None,
    ):
        kwargs = dict(world_kwargs or {})
        if isinstance(world, Kernel):
            if kwargs:
                raise ValueError("world_kwargs make no sense with a built Kernel")
            kernel = world
        else:
            if isinstance(world, tuple):
                name, payload_kwargs = world
                builder = _resolve_world_builder(name)
                kwargs = dict(payload_kwargs or {}) or kwargs
            elif isinstance(world, str):
                builder = _resolve_world_builder(world)
            elif callable(world):
                builder = world
            else:
                raise TypeError(
                    "world must be a name, (name, kwargs), Kernel, or "
                    "callable, not {!r}".format(type(world).__name__))
            kernel = builder(**kwargs)
        if kernel_audit is not None:
            kernel.audit_enabled = bool(kernel_audit)
        if dcache is not None:
            kernel.dcache.enabled = bool(dcache)
        #: The assembled :class:`~repro.kernel.Kernel`.
        self.kernel = kernel
        #: The attached :class:`~repro.firewall.engine.ProcessFirewall`.
        self.firewall = kernel.attach_firewall(
            ProcessFirewall(resolve_engine(engine), audit_capacity=audit_capacity)
        )
        if metered:
            self.firewall.metrics.enable()
        if traced:
            self.firewall.enable_tracing()
        if rules is not None:
            self.install(rules)

    # ------------------------------------------------------------------
    # rules
    # ------------------------------------------------------------------

    def install(self, rules):
        """Install ``rules`` in any of the shapes the repo produces.

        A string is ``save_rules``-style text (atomic staged swap); an
        iterable is pftables lines; a callable receives the firewall
        and installs however it likes.  Returns the session for
        chaining.
        """
        if isinstance(rules, str):
            load_rules(self.firewall, rules)
        elif callable(rules):
            rules(self.firewall)
        else:
            self.firewall.install_all(list(rules))
        return self

    # ------------------------------------------------------------------
    # convenience views
    # ------------------------------------------------------------------

    @property
    def sys(self):
        """The kernel's syscall API (``session.sys.open(proc, ...)``)."""
        return self.kernel.sys

    @property
    def stats(self):
        """The engine's :class:`~repro.firewall.engine.EngineStats`."""
        return self.firewall.stats

    @property
    def metrics(self):
        """The engine's :class:`~repro.obs.metrics.MetricsRegistry`."""
        return self.firewall.metrics

    @property
    def audit(self):
        """The engine's bounded :class:`~repro.obs.audit.AuditRing`."""
        return self.firewall.audit

    @property
    def dcache(self):
        """The kernel's :class:`~repro.vfs.dcache.Dcache` bundle."""
        return self.kernel.dcache

    # ------------------------------------------------------------------
    # process lifecycle
    # ------------------------------------------------------------------

    def spawn(self, comm, **kwargs):
        """Create a process in this session's kernel (see
        :meth:`repro.kernel.Kernel.spawn` for the keywords).

        Delegating rather than wrapping keeps a ``Session`` usable
        anywhere a kernel-shaped object is expected for spawning —
        e.g. :func:`repro.workloads.replay.spawn_recorded`.
        """
        return self.kernel.spawn(comm, **kwargs)

    def reap(self, proc):
        """Retire ``proc`` and free everything the session holds for it.

        The service-mode session-close path: closes any descriptors
        still open, marks the process dead, removes it from the pid
        census, and releases its firewall state bundle
        (:meth:`~repro.firewall.procstate.ProcState.release`) so a
        reaped session pins no STATE map, decision cache, or context
        cache.  No syscalls are issued and
        nothing is mediated — reaping a process that a rule just
        denied must not change the verdict stream.
        """
        for fd in list(proc.fds):
            proc.drop_fd(fd).close()
        proc.alive = False
        self.kernel.reap(proc)
        proc.pf.release()
        return proc

    # ------------------------------------------------------------------
    # mediation
    # ------------------------------------------------------------------

    def mediate(self, operation):
        """Mediate one operation; returns ``"allow"`` or ``"drop"``.

        The facade's uniform verdict vocabulary (matching
        :meth:`mediate_batch`): a DROP verdict is returned, not
        raised.  Drivers that want the exception semantics call
        ``session.firewall.mediate`` directly.
        """
        try:
            self.firewall.mediate(operation)
        except PFDenied:
            return "drop"
        return "allow"

    def mediate_batch(self, operations):
        """Mediate a homogeneous run of operations; returns verdicts.

        Delegates to :meth:`ProcessFirewall.mediate_batch` — one
        ``"allow"``/``"drop"`` string per operation, amortizing the
        mediation prologue where the batched fast path applies.
        """
        return self.firewall.mediate_batch(operations)

    # ------------------------------------------------------------------
    # state export
    # ------------------------------------------------------------------

    def snapshot(self):
        """Picklable summary of the session's observable state.

        Engine stats as a dict, metrics as Prometheus text when the
        registry is enabled (``None`` otherwise), the live pid census,
        and the audit ring's next sequence number — the shape workers
        ship across process boundaries and churn tests baseline
        against.
        """
        metrics = self.firewall.metrics
        return {
            "stats": self.firewall.stats.as_dict(),
            "metrics_prom": metrics.to_prometheus() if metrics.enabled else None,
            "live_pids": sorted(self.kernel.processes),
            "audit_next_seq": self.firewall.audit.next_seq(),
        }

    def __repr__(self):  # pragma: no cover - debugging aid
        return "<Session procs={} rules={}>".format(
            len(self.kernel.processes), self.firewall.rules.rule_count()
        )
