"""Replay helpers for the batched-mediation tests.

:func:`repro.service.core.record_mediations` captures the operation
stream a workload pushes through a firewall.  The helpers here re-run
a captured stream through the per-call loop or ``mediate_batch``, so
the batched-mediation tests can hold the two byte-identical.

:func:`reset_mediation_state` zeroes the observable and cached per-run
state (stats, audit, metrics, per-process firewall caches) so
back-to-back passes over the same live world start from the same
place; without it the second pass would inherit the first pass's warm
decision cache and diverge in stats.
"""

from repro import errors


def reset_mediation_state(firewall):
    """Reset observable state and per-process caches before a re-run.

    Clears the firewall's stats, audit ring, and metrics values, and
    drops every process's firewall-private caches (context cache,
    decision cache) in the attached kernel — rule state, VFS state,
    and process credentials are untouched, so a captured operation
    stream replays against the same inputs the original run saw.
    """
    firewall.stats.reset()
    firewall.audit.clear()
    firewall.metrics.reset()
    if firewall.kernel is not None:
        for proc in firewall.kernel.processes.values():
            proc.pf.context_cache = None
            proc.pf.decision_invalidate()


def replay_mediations(firewall, operations, batched=True):
    """Push a captured operation stream back through ``firewall``.

    Returns the verdict list (``"allow"``/``"drop"`` per operation).
    ``batched=True`` routes through ``mediate_batch``; ``False`` runs
    the reference per-call loop whose observable behavior
    ``mediate_batch`` must reproduce exactly.
    """
    if batched:
        return firewall.mediate_batch(operations)
    verdicts = []
    for operation in operations:
        try:
            firewall.mediate(operation)
        except errors.PFDenied:
            verdicts.append("drop")
        else:
            verdicts.append("allow")
    return verdicts
