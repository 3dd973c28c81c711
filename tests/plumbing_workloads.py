"""Deterministic COMPILED workloads for the per-syscall cost tests.

- :func:`lmbench_round`: the lmbench resource-access mix (stat,
  open+close, lseek+read, lseek+write, fstat, getpid) on
  :class:`LmbenchSuite`'s 25-frame process;
- :meth:`BuildTree.job`: a compile job on a :class:`Session` build
  tree: fork, exec, read a source, stat eight headers, write and rename
  an object, exit; every fourth job opens an adversary's ``/tmp``
  symlink, which the ``safe_open`` rule drops.

:func:`run_lmbench` and :func:`run_build` run ``WARMUP + COUNTED``
sessions from a fresh world.  ``setup(firewall)`` runs once the world
is built, and ``before_counted()`` once the warm-up is over.
"""

import random

from repro.api import Session
from repro.errors import PFDenied
from repro.rulesets.generated import install_full_rulebase
from repro.vfs.file import OpenFlags
from repro.workloads.lmbench import LmbenchSuite
from repro.world import spawn_adversary

SRC_DIR = "/usr/src/httpd"
OBJ_DIR = SRC_DIR + "/obj"
INCLUDE_DIR = "/usr/include"
SOURCES = 12
HEADERS = 20
HEADER_STATS = 8
TRAP_EVERY = 4

#: Untimed warm-up before counting, and the counted sessions.
WARMUP = 8
COUNTED = 16


def lmbench_round(suite):
    """One round of the lmbench resource-access mix (9 syscalls)."""
    sys, proc = suite.kernel.sys, suite.proc
    suite.op_stat()
    suite.op_open_close()
    sys.lseek(proc, suite.fd, 0)
    suite.op_read()
    sys.lseek(proc, suite.wfd, 0)
    suite.op_write()
    suite.op_fstat()
    suite.op_null()


class BuildTree:
    """A build tree under the full rule base and a seeded job list."""

    def __init__(self, seed=1, engine="COMPILED"):
        rng = random.Random(seed)
        session = Session(engine=engine, rules=install_full_rulebase, kernel_audit=False)
        kernel = self.kernel = session.kernel
        self.firewall = session.firewall
        kernel.mkdirs(OBJ_DIR, label="usr_t")
        kernel.mkdirs(INCLUDE_DIR, label="usr_t")
        for i in range(HEADERS):
            kernel.add_file("{}/hdr{}.h".format(INCLUDE_DIR, i), b"#define X\n", label="usr_t")
        for i in range(SOURCES):
            kernel.add_file("{}/src{}.c".format(SRC_DIR, i), b"int f(void);\n", label="usr_t")
        self.make = kernel.spawn("make", uid=0, label="unconfined_t", binary_path="/bin/sh")
        self.adversary = spawn_adversary(kernel)
        self.jobs = [
            (rng.randrange(SOURCES), rng.sample(range(HEADERS), HEADER_STATS))
            for _ in range(WARMUP + COUNTED)
        ]
        self.drops = 0

    def job(self, index):
        """One compile job; a trap job's open must be dropped."""
        src, headers = self.jobs[index]
        sys = self.kernel.sys
        cc = sys.fork(self.make)
        sys.execve(cc, "/bin/sh", ["cc", "src{}.c".format(src)])
        fd = sys.open(cc, "{}/src{}.c".format(SRC_DIR, src))
        sys.read(cc, fd)
        sys.close(cc, fd)
        for header in headers:
            sys.stat(cc, "{}/hdr{}.h".format(INCLUDE_DIR, header))
        tmp = "{}/.src{}.o.tmp".format(OBJ_DIR, src)
        fd = sys.open(cc, tmp, OpenFlags.O_CREAT | OpenFlags.O_WRONLY | OpenFlags.O_TRUNC)
        sys.write(cc, fd, b"\x7fELF")
        sys.close(cc, fd)
        sys.rename(cc, tmp, "{}/src{}.o".format(OBJ_DIR, src))
        if index % TRAP_EVERY == TRAP_EVERY - 1:
            trap = "/tmp/cc-trap-{}".format(index)
            sys.symlink(self.adversary, "/etc/passwd", trap)
            try:
                sys.open(cc, trap)
            except PFDenied:
                self.drops += 1
            sys.unlink(self.adversary, trap)
        sys.exit(cc, 0)


def run_lmbench(column="COMPILED", sessions=WARMUP + COUNTED, before_counted=None,
                setup=None):
    """Run lmbench rounds on a fresh suite; returns the suite."""
    suite = LmbenchSuite(column)
    if setup is not None:
        setup(suite.firewall)
    for index in range(sessions):
        if index == WARMUP and before_counted is not None:
            before_counted()
        lmbench_round(suite)
    return suite


def run_build(sessions=WARMUP + COUNTED, before_counted=None, setup=None, engine="COMPILED"):
    """Run compile jobs on a fresh build tree; returns the tree."""
    tree = BuildTree(engine=engine)
    if setup is not None:
        setup(tree.firewall)
    for index in range(sessions):
        if index == WARMUP and before_counted is not None:
            before_counted()
        tree.job(index)
    return tree
