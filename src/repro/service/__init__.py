"""``repro.service`` — the live mediation server (paper §6.3 at scale).

This package is the repository's one multi-process runtime.  It
sustains open-ended traffic: generated user sessions
(:mod:`repro.workloads.generators`) are admitted into a pool of
long-lived workers, each session runs against a live kernel through
the :class:`repro.api.Session` facade, and its firewall state is
reaped at close.  Four layers:

- :mod:`repro.service.core` — :class:`~repro.service.core.SessionRunner`,
  the per-worker engine that admits, executes, and reaps one session
  at a time, timing each mediated syscall;
- :mod:`repro.service.pool` — :class:`~repro.service.pool.ServicePool`,
  long-lived spawn-context OS workers (or inline runners) with a
  bounded per-worker in-flight window;
- :mod:`repro.service.wire` — the data plane: batched length-prefixed
  binary frames, spec template interning, and compact result records
  (``docs/SERVICE.md``);
- :mod:`repro.service.driver` — :func:`~repro.service.driver.run_service`,
  the closed-/open-loop admission controller with batched adaptive
  admission and backpressure, plus the merge back to one serial-shaped
  result.

Entry points: ``pfctl serve`` and ``pfctl bench-service``.
"""

from repro.service.driver import run_service

__all__ = ["run_service"]
