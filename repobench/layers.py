"""Which entry points each layer's spans wrap, and the per-layer table.

Layers are named by module.  :func:`wrap_kernel` and
:func:`wrap_install` patch live objects for one traced phase only; the
recorder's ``restore`` undoes them, and an untraced run calls neither.
"""

from __future__ import annotations

import repro.api
from repro.firewall.engine import ProcessFirewall

from common import ratio

#: Layers of one mediation, outermost first; each span's self time
#: excludes the spans of the layers it calls.
MEDIATION_LAYERS = ("syscalls", "vfs.resolve", "kernel.mediate", "security.lsm", "firewall.mediate")

#: Per-layer metrics, in print order, with their units.
PER_LAYER = (
    ("firewall.install_s", "s"),
    ("syscalls.calls", "count"),
    ("syscalls.self_us", "us"),
    ("vfs.resolve.calls", "count"),
    ("vfs.resolve.self_us", "us"),
    ("vfs.walk_hit_ratio", "ratio"),
    ("vfs.dentry_hit_ratio", "ratio"),
    ("vfs.invalidations", "count"),
    ("kernel.mediate.calls", "count"),
    ("kernel.mediate.self_us", "us"),
    ("security.lsm.self_us", "us"),
    ("firewall.mediate.calls", "count"),
    ("firewall.mediate.self_us", "us"),
    ("firewall.rules_per_mediation", "count"),
    ("firewall.decision_cache_hit_ratio", "ratio"),
    ("firewall.rescache_hit_ratio", "ratio"),
    ("firewall.drops", "count"),
    ("obs.audit_records", "count"),
    ("service.admit_wait_ms", "ms"),
    ("service.pool.submit_us", "us"),
    ("service.pool.poll_us", "us"),
    ("service.wire.bytes_per_session", "B"),
    ("service.wire.sessions_per_frame", "count"),
    ("service.wire.codec_s", "s"),
    ("service.worker.cpu_ms_per_session", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("e2e.op_p99_us", "us"),
    ("e2e.session_p50_ms", "ms"),
    ("e2e.session_p99_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
)


def wrap_install(recorder):
    """Time rule installs: ``install``/``install_all`` and ``load_rules``."""
    recorder.wrap(ProcessFirewall, "install", "firewall.install")
    recorder.wrap(ProcessFirewall, "install_all", "firewall.install")
    recorder.wrap(repro.api, "load_rules", "firewall.install")


def wrap_kernel(recorder, kernel):
    """Time every mediation layer of one live kernel."""
    sys = kernel.sys
    for name in dir(type(sys)):
        if not name.startswith("_") and callable(getattr(sys, name)):
            recorder.wrap(sys, name, "syscalls")
    recorder.wrap(kernel.walker, "resolve", "vfs.resolve")
    recorder.wrap(kernel, "mediate", "kernel.mediate")
    recorder.wrap(kernel.lsm, "authorize", "security.lsm")
    recorder.wrap(kernel.firewall, "mediate", "firewall.mediate")
    recorder.wrap(kernel.firewall, "mediate_batch", "firewall.mediate")


def mediation_table(times, before, after, ops, wall_s):
    """Per-layer figures of one traced in-process phase.

    ``times`` is :meth:`SpanRecorder.self_times`; ``before``/``after``
    are :func:`common.kernel_counters` readings around the phase;
    ``ops`` is how many end-to-end ops it ran.  A ``self_us`` figure is
    the layer's self time per op, so the layers add up to the op time;
    ``trace.coverage`` is their sum over the phase's wall time.
    """
    d = {key: after[key] - before[key] for key in before}

    def self_us(layer):
        return times.get(layer, (0, 0))[1] / 1e3 / ops if ops else 0.0

    covered = sum(times.get(layer, (0, 0))[1] for layer in MEDIATION_LAYERS) / 1e9
    return {
        "syscalls.calls": d["syscalls"],
        "syscalls.self_us": self_us("syscalls"),
        "vfs.resolve.calls": times.get("vfs.resolve", (0, 0))[0],
        "vfs.resolve.self_us": self_us("vfs.resolve"),
        "vfs.walk_hit_ratio": ratio(d["walk_hit"], d["walk_hit"] + d["walk_miss"]),
        "vfs.dentry_hit_ratio": ratio(d["dentry_hit"], d["dentry_hit"] + d["dentry_miss"]),
        "vfs.invalidations": d["invalidations"],
        "kernel.mediate.calls": d["mediations"],
        "kernel.mediate.self_us": self_us("kernel.mediate"),
        "security.lsm.self_us": self_us("security.lsm"),
        "firewall.mediate.calls": d["invocations"],
        "firewall.mediate.self_us": self_us("firewall.mediate"),
        "firewall.rules_per_mediation": ratio(d["rules_evaluated"], d["invocations"]),
        "firewall.decision_cache_hit_ratio": ratio(d["decision_cache_hits"], d["invocations"]),
        "firewall.rescache_hit_ratio": ratio(
            d["rescache_hits"], d["rescache_hits"] + d["rescache_misses"]),
        "firewall.drops": d["drops"],
        "obs.audit_records": d["audit_records"],
        "trace.coverage": ratio(covered, wall_s),
    }
