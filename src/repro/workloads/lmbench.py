"""lmbench-style syscall microbenchmarks (Table 6).

Each operation is one lmbench row: ``null`` (getpid), ``stat``,
``read``, ``write``, ``fstat``, ``open+close``, ``fork+exit``,
``fork+execve`` and ``fork+sh -c``.  A :class:`LmbenchSuite` prepares a
world under one Table 6 column configuration and exposes the operations
as zero-argument callables for the timing harness.
"""

from __future__ import annotations

import gc
import time

from repro.api import Session
from repro.firewall.engine import PRESET_ALIASES
from repro.rulesets.generated import install_full_rulebase

#: Table 6 column -> (engine preset, full rules?, instrumented?).
#: The preset string is what ``Session(engine=...)`` resolves; note
#: the naming wrinkle: lmbench's "BASE" column is the *optimized*
#: engine with no rules installed (preset ``"EPTSPC"``), while the
#: preset registry's ``"BASE"`` spelling means the unoptimized walker.
#: ``instrumented`` turns the observability layer fully on (decision
#: tracing + metrics registry), measuring its worst-case overhead
#: against COMPILED — the observability twin of the paper's ladder.
TABLE6_COLUMNS = {
    "DISABLED": ("DISABLED", False, False),
    "BASE": ("EPTSPC", False, False),
    "FULL": ("FULL", True, False),
    "CONCACHE": ("CONCACHE", True, False),
    "LAZYCON": ("LAZYCON", True, False),
    "EPTSPC": ("EPTSPC", True, False),
    "COMPILED": ("COMPILED", True, False),
    "TRACED": ("COMPILED", True, True),
}

#: The paper's measurement file (average path length on their system
#: was 2.3 components; /etc/passwd has 2).
TARGET_FILE = "/etc/passwd"


class LmbenchSuite:
    """One configured world plus the nine operations."""

    def __init__(self, column="DISABLED", rule_count=None):
        preset, full_rules, instrumented = TABLE6_COLUMNS[PRESET_ALIASES.get(column, column)]
        self.column = column
        rules = None
        if full_rules:
            if rule_count is None:
                rules = install_full_rulebase
            else:
                def rules(firewall):
                    install_full_rulebase(firewall, size=rule_count)
        session = Session(
            engine=preset,
            rules=rules,
            metered=instrumented,
            traced=instrumented,
        )
        self.kernel = session.kernel
        self.firewall = session.firewall
        self.proc = self.kernel.spawn("lmbench", uid=0, label="unconfined_t", binary_path="/bin/sh")
        # Realistic call depth: entrypoint collection cost scales with
        # stack depth on real systems, and a syscall is never issued
        # from main() in practice.
        for i in range(25):
            self.proc.call(self.proc.binary, 0x900000 + i * 0x40, function="f{}".format(i))
        # Pre-open a descriptor for read/write/fstat rows.
        self.fd = self.kernel.sys.open(self.proc, TARGET_FILE)
        self._scratch = self.kernel.add_file("/tmp/lmbench-scratch", b"x" * 64, uid=0, mode=0o600)
        self.wfd = self.kernel.sys.open(self.proc, "/tmp/lmbench-scratch", flags=0x1)  # O_WRONLY

    # ---- the nine operations ----------------------------------------

    def op_null(self):
        self.kernel.sys.getpid(self.proc)

    def op_stat(self):
        self.kernel.sys.stat(self.proc, TARGET_FILE)

    def op_read(self):
        self.kernel.sys.read(self.proc, self.fd, 16)

    def op_write(self):
        self.kernel.sys.write(self.proc, self.wfd, b"y")

    def op_fstat(self):
        self.kernel.sys.fstat(self.proc, self.fd)

    def op_open_close(self):
        fd = self.kernel.sys.open(self.proc, TARGET_FILE)
        self.kernel.sys.close(self.proc, fd)

    def op_fork_exit(self):
        child = self.kernel.sys.fork(self.proc)
        self.kernel.sys.exit(child, 0)

    def op_fork_execve(self):
        child = self.kernel.sys.fork(self.proc)
        self.kernel.sys.execve(child, "/bin/sh")
        self.kernel.sys.exit(child, 0)

    def op_fork_sh(self):
        """fork + exec /bin/sh -c 'true': exec plus a little shell work."""
        child = self.kernel.sys.fork(self.proc)
        self.kernel.sys.execve(child, "/bin/sh", argv=["/bin/sh", "-c", "true"])
        self.kernel.sys.stat(child, "/bin/sh")
        self.kernel.sys.getpid(child)
        self.kernel.sys.exit(child, 0)

    def operations(self):
        """The Table 6 rows, in print order."""
        return [
            ("null", self.op_null),
            ("stat", self.op_stat),
            ("read", self.op_read),
            ("write", self.op_write),
            ("fstat", self.op_fstat),
            ("open+close", self.op_open_close),
            ("fork+exit", self.op_fork_exit),
            ("fork+execve", self.op_fork_execve),
            ("fork+sh -c", self.op_fork_sh),
        ]


LMBENCH_OPS = [name for name, _fn in LmbenchSuite("DISABLED").operations()]


def time_operation(fn, iterations=2000, warmup=50):
    """Average microseconds per call (steady-state, GC-quiesced).

    The warmup pass populates every lazy memo (dispatch tuples,
    context caches) before the clock starts, and the collector is
    disabled around the timed loop so a GC cycle landing inside one
    cell's measurement cannot masquerade as an engine effect.  The
    caller's GC state is restored afterwards.
    """
    for _ in range(warmup):
        fn()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(iterations):
            fn()
        elapsed = time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
    return elapsed / iterations * 1e6


def run_table6(iterations=2000, columns=None, rule_count=None, repeats=7):
    """Measure every (operation, column) cell.

    The grid is timed in ``repeats`` interleaved passes over the
    columns and each cell keeps its best pass: a single column-major
    sweep lets allocator/GC drift over the run masquerade as an effect
    of whichever columns happen to be measured last.  ``iterations`` is
    the total per-cell budget, split across the passes.

    Returns ``{op_name: {column: microseconds}}``.
    """
    columns = list(columns or TABLE6_COLUMNS)
    per_pass = max(1, iterations // repeats)
    suites = {column: LmbenchSuite(column, rule_count=rule_count) for column in columns}
    results = {name: {} for name in LMBENCH_OPS}
    for _ in range(repeats):
        for column in columns:
            gc.collect()
            for name, fn in suites[column].operations():
                sample = time_operation(fn, iterations=per_pass)
                best = results[name].get(column)
                if best is None or sample < best:
                    results[name][column] = sample
    return results
