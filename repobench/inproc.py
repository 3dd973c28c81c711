"""The two single-process workloads: ``static_lookup`` and ``build_churn``.

Both run one caller in a closed loop under the JITTED engine and the
generated 1218-rule base (which already carries ``safe_open_pf_rules``),
with the kernel's own audit trail off as in the Table 7 macrobenchmarks
and the service world: that trail keeps up to 200,000 records, so with it
on, memory and collector pauses would grow with how fast and how long a
run goes.
``static_lookup`` never changes the namespace, so the walk cache answers
almost every resolution; ``build_churn`` creates, renames and unlinks on
every job and forks and execs a child, so the same caches are
invalidated all the time.  An op is one syscall; a session is one
round of the lookup mix or one compile job.
"""

from __future__ import annotations

import json
import random
import sys
import time

from repro.api import Session
from repro.errors import KernelError, PFDenied
from repro.rulesets.generated import install_full_rulebase
from repro.vfs.file import OpenFlags
from repro.workloads.lmbench import TARGET_FILE, LmbenchSuite
from repro.world import spawn_adversary

from common import closed_loop, peak_rss_mb

#: The lmbench resource-access mix; ``open`` is an open+close pair and
#: ``read``/``write`` are each an lseek to offset 0 plus the call.
STATIC_KINDS = ("stat", "open", "read", "write", "fstat", "getpid")

#: Rounds in the seeded static_lookup schedule (cycled).
STATIC_ROUNDS = 512

#: Sources, headers and seeded jobs (cycled) of the build tree.
SOURCES = 60
HEADERS = 20
BUILD_JOBS = 512

#: Headers each compile job stats.  With eight, the op p50 falls near
#: the middle of the ``stat`` latencies rather than on their lower edge
#: next to the cheap ``read``/``write``/``close`` ops.
HEADER_STATS = 8

#: Every ``TRAP_EVERY``-th job meets the adversary's /tmp symlink.
TRAP_EVERY = 4

SRC_DIR = "/usr/src/httpd"
OBJ_DIR = SRC_DIR + "/obj"
INCLUDE_DIR = "/usr/include"


class InprocWorkload:
    """Issues timed syscalls and keeps the verdict rows a check needs.

    A verdict row is ``(session, step, op, status)``, status ``"ok"``,
    ``"PFDenied"`` or the errno name -- the shape the service returns.
    Rows are kept only for failed calls and for ops in :attr:`watched`;
    every other call is counted in :attr:`calls` and its ``"ok"`` is
    implied, which keeps the benchmark from growing the heap the
    program's garbage collector walks.
    """

    watched = frozenset()

    def __init__(self):
        self.verdicts = []
        self.calls = 0

    def call(self, lat, session, step, op, fn, *args):
        """Call ``fn(*args)``, appending its latency to ``lat``.

        Returns the call's result, or ``None`` when it raised.
        """
        start = time.perf_counter()
        try:
            result = fn(*args)
            status = "ok"
        except PFDenied:
            result = None
            status = "PFDenied"
        except KernelError as exc:
            result = None
            status = exc.errno_name
        lat.append(time.perf_counter() - start)
        self.calls += 1
        if status != "ok" or op in self.watched:
            self.verdicts.append((session, step, op, status))
        return result


class StaticLookup(InprocWorkload):
    """A set-up static_lookup world plus its seeded round schedule.

    Set-up is :class:`~repro.workloads.lmbench.LmbenchSuite`'s JITTED
    column: session, rule install, a process with a 25-frame stack and
    pre-opened descriptors.  Each round issues the six kinds once, in a
    seeded order, with seeded read sizes and write payloads.  Reads and
    writes go to offset 0 (an ``lseek`` before each): the simulated file
    copies its whole body on every write, so a file that grew with the
    run would make each write slower than the last.
    """

    #: Untimed rounds run before the clock starts.
    warmup = 200

    def __init__(self, seed):
        rng = random.Random(seed)
        self.schedule = []
        for _ in range(STATIC_ROUNDS):
            kinds = list(STATIC_KINDS)
            rng.shuffle(kinds)
            self.schedule.append((kinds, rng.choice((16, 64, 256, 1024)),
                                  b"y" * rng.randint(1, 64)))
        self.suite = LmbenchSuite("JITTED")
        self.kernel = self.suite.kernel
        self.kernel.audit_enabled = False
        super().__init__()

    def run_session(self, index, lat):
        """One round of the mix; appends one latency per syscall."""
        kinds, read_size, payload = self.schedule[index % STATIC_ROUNDS]
        sys = self.kernel.sys
        suite = self.suite
        proc = suite.proc
        call = self.call
        step = 0
        for kind in kinds:
            if kind == "stat":
                call(lat, index, step, "stat", sys.stat, proc, TARGET_FILE)
            elif kind == "open":
                fd = call(lat, index, step, "open", sys.open, proc, TARGET_FILE)
                if fd is not None:
                    step += 1
                    call(lat, index, step, "close", sys.close, proc, fd)
            elif kind == "read":
                call(lat, index, step, "lseek", sys.lseek, proc, suite.fd, 0)
                step += 1
                call(lat, index, step, "read", sys.read, proc, suite.fd, read_size)
            elif kind == "write":
                call(lat, index, step, "lseek", sys.lseek, proc, suite.wfd, 0)
                step += 1
                call(lat, index, step, "write", sys.write, proc, suite.wfd, payload)
            elif kind == "fstat":
                call(lat, index, step, "fstat", sys.fstat, proc, suite.fd)
            else:
                call(lat, index, step, "getpid", sys.getpid, proc)
            step += 1

    def check(self):
        """Problems found in the outputs (empty when correct)."""
        return check_static(self.verdicts)


def check_static(verdicts):
    """static_lookup: every call succeeds."""
    return ["session {} step {} {}: {}".format(*row)
            for row in verdicts if row[3] != "ok"]


class BuildChurn(InprocWorkload):
    """A set-up build tree plus its seeded compile-job schedule.

    Each job forks ``make``; the child execs, reads one source, stats
    :data:`HEADER_STATS` headers, writes a temp object and renames it over the final
    object, then exits.  On every ``TRAP_EVERY``-th job an adversary
    plants a /tmp symlink to /etc/passwd, the child opens it (the
    ``safe_open`` rule must drop that open) and the adversary unlinks
    it.
    """

    #: Untimed jobs run before the clock starts.
    warmup = 100
    watched = frozenset(("trap_open",))

    def __init__(self, seed):
        rng = random.Random(seed)
        sources = [b"int f%d(void){return %d;}\n" % (i, i) * rng.randint(2, 64)
                   for i in range(SOURCES)]
        self.jobs = [
            (rng.randrange(SOURCES), tuple(rng.sample(range(HEADERS), HEADER_STATS)),
             b"\x7fELF" + b"o" * rng.randint(16, 512))
            for _ in range(BUILD_JOBS)
        ]
        session = Session(engine="JITTED", rules=install_full_rulebase, kernel_audit=False)
        kernel = self.kernel = session.kernel
        kernel.mkdirs(OBJ_DIR, label="usr_t")
        kernel.mkdirs(INCLUDE_DIR, label="usr_t")
        for i in range(HEADERS):
            kernel.add_file("{}/hdr{}.h".format(INCLUDE_DIR, i), b"#define X %d\n" % i, label="usr_t")
        for i, body in enumerate(sources):
            kernel.add_file("{}/src{}.c".format(SRC_DIR, i), body, label="usr_t")
        self.make = kernel.spawn("make", uid=0, label="unconfined_t", binary_path="/bin/sh")
        self.adversary = spawn_adversary(kernel)
        super().__init__()
        self.jobs_run = 0
        self.built = set()

    def run_session(self, index, lat):
        """One compile job; appends one latency per syscall."""
        src, headers, obj_body = self.jobs[index % BUILD_JOBS]
        sys = self.kernel.sys
        call = self.call
        cc = call(lat, index, 0, "fork", sys.fork, self.make)
        if cc is None:
            return
        call(lat, index, 1, "execve", sys.execve, cc, "/bin/sh", ["cc", "src{}.c".format(src)])
        fd = call(lat, index, 2, "open", sys.open, cc, "{}/src{}.c".format(SRC_DIR, src))
        if fd is not None:
            call(lat, index, 3, "read", sys.read, cc, fd)
            call(lat, index, 4, "close", sys.close, cc, fd)
        for h, header in enumerate(headers):
            call(lat, index, 5 + h, "stat", sys.stat, cc, "{}/hdr{}.h".format(INCLUDE_DIR, header))
        step = 5 + HEADER_STATS
        tmp = "{}/.src{}.o.tmp".format(OBJ_DIR, src)
        fd = call(lat, index, step, "open", sys.open, cc, tmp,
                  OpenFlags.O_CREAT | OpenFlags.O_WRONLY | OpenFlags.O_TRUNC)
        if fd is not None:
            call(lat, index, step + 1, "write", sys.write, cc, fd, obj_body)
            call(lat, index, step + 2, "close", sys.close, cc, fd)
        if call(lat, index, step + 3, "rename", sys.rename, cc, tmp,
                "{}/src{}.o".format(OBJ_DIR, src)) is not None:
            self.built.add(src)
        if index % TRAP_EVERY == TRAP_EVERY - 1:
            trap = "/tmp/cc-trap-{}".format(index)
            call(lat, index, step + 4, "symlink", sys.symlink, self.adversary, "/etc/passwd", trap)
            call(lat, index, step + 5, "trap_open", sys.open, cc, trap)
            call(lat, index, step + 6, "unlink", sys.unlink, self.adversary, trap)
        call(lat, index, step + 7, "exit", sys.exit, cc, 0)
        self.jobs_run = index + 1

    def check(self):
        """Problems found in the outputs (empty when correct)."""
        problems = check_build(self.verdicts, self.jobs_run)
        for src in sorted(self.built):
            for path in ("{}/src{}.o", "{}/.src{}.o.tmp"):
                path = path.format(OBJ_DIR, src)
                try:
                    inode = self.kernel.lookup(path)
                except KernelError:
                    inode = None
                if (inode is None) != path.endswith(".tmp"):
                    problems.append("{} {}".format(
                        path, "left behind" if inode is not None else "missing"))
        return problems


def check_build(verdicts, jobs):
    """build_churn: one DROP on each trap job, and no other error."""
    problems = []
    drops = {}
    for session, step, op, status in verdicts:
        if op == "trap_open":
            if status == "PFDenied":
                drops[session] = drops.get(session, 0) + 1
                continue
        elif status == "ok":
            continue
        problems.append("session {} step {} {}: {}".format(session, step, op, status))
    for job in range(TRAP_EVERY - 1, jobs, TRAP_EVERY):
        if drops.get(job) != 1:
            problems.append("trap job {}: {} drops, expected 1".format(job, drops.get(job, 0)))
    return problems


WORKLOADS = {"static_lookup": StaticLookup, "build_churn": BuildChurn}

#: ``PYTHONHASHSEED`` of each measuring process of an untraced run.
#: How the interpreter lays out this program's dicts and sets moves its
#: speed by up to a quarter from one hash seed to the next, so a run
#: measures the same three layouts every time and reports their mean,
#: and runs differ only in their inputs and the host.
HASH_SEEDS = (1, 2, 3)


def measure(workload, seed, seconds):
    """One measuring process's share of an untraced run.

    Times one set-up, runs the untimed warm-up, then the closed loop for
    ``seconds``.  Returns the set-up time, the figures (medians over
    slices), the calls made, the problems the output check found and
    this process's peak RSS, as a JSON-ready dict.
    """
    cls = WORKLOADS[workload]
    start = time.perf_counter()
    work = cls(seed)
    setup_s = time.perf_counter() - start
    for index in range(cls.warmup):
        work.run_session(index, [])
    figures, _ran = closed_loop(work.run_session, seconds, start=cls.warmup)
    return {"setup_s": setup_s, "figures": figures, "calls": work.calls,
            "problems": work.check(), "peak_rss_mb": peak_rss_mb()}


if __name__ == "__main__":
    # python3 repobench/inproc.py WORKLOAD SEED SECONDS, with src/ on
    # PYTHONPATH; prints measure()'s result as one JSON line.
    print(json.dumps(measure(sys.argv[1], int(sys.argv[2]), float(sys.argv[3]))))
