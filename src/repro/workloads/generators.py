"""Open-ended session generators for the live mediation service.

The replay path (:mod:`repro.workloads.replay`) exercises the firewall
with *finite recorded traces*; the service (:mod:`repro.service`)
needs the paper's §6.3 server regime instead — an unbounded stream of
user sessions arriving over time.  This module generates those
sessions as **data**: each session is a picklable spec dict (model,
credentials, a list of step tuples) that
:class:`repro.service.core.SessionRunner` executes against a live
kernel.  Specs, not closures, so they ship unchanged across the
``multiprocessing`` spawn boundary and so the *same* stream can be
replayed serially for the differential tests.

Three session models mirror the paper's macrobenchmark programs:

- ``apache`` — a worker serving requests: reads web content and
  per-session files, occasionally opens a ``/tmp`` path a local
  adversary has symlinked at ``/etc/passwd`` (the Figure 4
  ``safe_open`` trap — deterministically **dropped** under
  :func:`repro.rulesets.default.safe_open_pf_rules`);
- ``sshd`` — a login session: authentication reads, then a forked
  shell child that execs, works in the session directory, and exits;
- ``php`` — an interpreter session: script/include reads plus
  state-file appends, with the same tainted-``/tmp`` include trap.

Everything is driven by one seeded :class:`random.Random` —
``generate_stream(count, seed)`` is a pure function of its arguments,
which is what lets the differential suite pin service-mode verdicts to
a serial replay of the identical stream.
"""

from __future__ import annotations

import random

from repro.firewall.engine import ProcessFirewall
from repro.firewall.persist import save_rules
from repro.rulesets.default import RULES_R1_R12, safe_open_pf_rules
from repro.world import ADVERSARY_UID, build_world

#: The session models a stream may mix.
SESSION_MODELS = ("apache", "sshd", "php")

#: Default model mix (weights) when the caller does not supply one:
#: web-heavy, like the paper's Apache macrobenchmarks.
DEFAULT_MIX = {"apache": 3, "sshd": 1, "php": 2}

#: Filesystem root under which each session gets a private subtree.
SERVICE_ROOT = "/srv/svc"


def build_service_world():
    """The standard world plus the service content root.

    Kernel-level audit is disabled (as in the macro-scale world): the
    service measures *mediation*, and the firewall's own audit ring —
    which the differential tests compare — is unaffected.
    """
    kernel = build_world()
    kernel.audit_enabled = False
    kernel.mkdirs(SERVICE_ROOT, label="var_t")
    return kernel


def service_rules_text():
    """The service's default rule base, as ``save_rules`` text.

    The paper's R1–R12 plus the system-wide ``safe_open`` rules —
    serialized through a throwaway firewall so workers and serial
    references restore byte-identical rule bases from one string.
    """
    firewall = ProcessFirewall()
    firewall.install_all(RULES_R1_R12 + safe_open_pf_rules())
    return save_rules(firewall)


def session_home(sid):
    """The per-session private subtree path."""
    return "{}/s{}".format(SERVICE_ROOT, sid)


def trap_path(sid):
    """The adversary-owned ``/tmp`` symlink this session may open."""
    return "/tmp/svc-trap-{}".format(sid)


#: The docroot prefix an apache request stats component-by-component
#: before serving (the server's per-request ``stat`` chain — the
#: homogeneous mediated run :class:`repro.service.core.SessionRunner`'s
#: batched step loop amortizes after the first request).
APACHE_STAT_CHAIN = ("/var/www", "/var/www/html", "/var/www/html/index.html")


def _apache_steps(sid, rng):
    """Request-serving loop: stat chain + content reads + /tmp trap.

    Each request re-stats the docroot prefix (:data:`APACHE_STAT_CHAIN`)
    the way a real httpd walks its docroot per request — identical
    mediated syscalls against identical paths, session after session,
    which is exactly the redundancy the runner's capture-and-replay
    stat cache and the wire codec's template interning both exploit.
    """
    home = session_home(sid)
    steps = [("open_read", "/var/www/html/index.html")]
    for req in range(rng.randint(3, 8)):
        for prefix in APACHE_STAT_CHAIN:
            steps.append(("stat", prefix))
        steps.append(("open_read", "{}/f{}".format(home, rng.randrange(2))))
        if rng.random() < 0.25:
            steps.append(("trap_open", trap_path(sid)))
    steps.append(("getpid",))
    return steps


def _sshd_steps(sid, rng):
    """Login session: auth reads, a forked+exec'd shell, home writes."""
    home = session_home(sid)
    steps = [
        ("open_read", "/etc/passwd"),
        ("fork_exec", "sh", "/bin/sh"),
        ("append", "{}/f0".format(home), "cmd\n"),
    ]
    for _ in range(rng.randint(1, 4)):
        steps.append(("open_read", "{}/f{}".format(home, rng.randrange(2))))
    steps.append(("getpid",))
    return steps


def _php_steps(sid, rng):
    """Interpreter session: include reads, state appends, /tmp trap."""
    home = session_home(sid)
    steps = [("open_read", "/usr/lib/libphp5.so")]
    for _ in range(rng.randint(2, 6)):
        steps.append(("open_read", "{}/f{}".format(home, rng.randrange(2))))
        steps.append(("append", "{}/f1".format(home), "s\n"))
        if rng.random() < 0.3:
            steps.append(("trap_open", trap_path(sid)))
    return steps


_MODEL_STEPS = {
    "apache": _apache_steps,
    "sshd": _sshd_steps,
    "php": _php_steps,
}

_MODEL_PROCESS = {
    "apache": ("apache2", "/usr/bin/apache2", "httpd_t"),
    "sshd": ("sshd", "/usr/sbin/sshd", "sshd_t"),
    "php": ("php5", "/usr/bin/php5", "httpd_t"),
}


def generate_session(sid, model, rng):
    """One picklable session spec for ``model``.

    Keys: ``sid`` (stream-unique id, also the audit logical clock),
    ``model``, ``comm``/``binary``/``label`` (the root process of the
    session), ``nfiles`` (private files the runner creates at admit),
    and ``steps`` — the tuples :class:`repro.service.core.SessionRunner`
    executes.  Pure function of ``(sid, model, rng state)``.
    """
    if model not in _MODEL_STEPS:
        raise ValueError("unknown session model {!r} (expected one of {})".format(
            model, "/".join(SESSION_MODELS)))
    comm, binary, label = _MODEL_PROCESS[model]
    return {
        "sid": sid,
        "model": model,
        "comm": comm,
        "binary": binary,
        "label": label,
        "nfiles": 2,
        "steps": _MODEL_STEPS[model](sid, rng),
    }


def generate_stream(count, seed, mix=None):
    """A deterministic stream of ``count`` session specs.

    ``mix`` maps model name → integer weight (default
    :data:`DEFAULT_MIX`).  One :class:`random.Random` seeded with
    ``seed`` drives both the model choice and each session's step
    generation, so equal ``(count, seed, mix)`` always yields the
    byte-identical stream — the property every differential test and
    the repo benchmark's ``session_service`` workload lean on.
    """
    rng = random.Random(seed)
    weights = dict(DEFAULT_MIX if mix is None else mix)
    models = sorted(weights)
    population = [m for m in models for _ in range(weights[m])]
    if not population:
        raise ValueError("mix has no positive weights")
    return [generate_session(sid, rng.choice(population), rng) for sid in range(count)]


def poisson_offsets(count, rate, seed):
    """Cumulative Poisson-process arrival offsets (seconds).

    ``count`` exponential inter-arrival gaps at ``rate`` sessions/sec,
    summed to absolute offsets from stream start.  The open-loop
    driver paces admissions against these; the closed-loop driver
    ignores arrival times entirely.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    rng = random.Random(seed)
    offsets = []
    now = 0.0
    for _ in range(count):
        now += rng.expovariate(rate)
        offsets.append(now)
    return offsets


def setup_session_fs(kernel, spec):
    """Create the session's private files and its adversary trap.

    Runs at admit time through the kernel's *unmediated* helpers —
    identical on the serial reference and in every worker, so setup
    never perturbs the verdict stream.  The trap is an
    adversary-owned symlink in sticky ``/tmp`` pointing at
    ``/etc/passwd``: opening *through* it violates the ``safe_open``
    owner-match invariant, so a ``trap_open`` step is a deterministic
    DROP under the service rule base.
    """
    sid = spec["sid"]
    home = session_home(sid)
    kernel.mkdirs(home, label="var_t")
    for i in range(spec["nfiles"]):
        kernel.add_file("{}/f{}".format(home, i), b"data-%d" % i, label="var_t")
    kernel.add_symlink(trap_path(sid), "/etc/passwd", uid=ADVERSARY_UID)
