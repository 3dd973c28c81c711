"""Macrobenchmarks (Table 7): Apache build, boot, and web serving.

Syscall-trace replays shaped like the paper's workloads:

- **Apache Build** — compiler-style activity: read sources, stat
  headers, create objects, fork/exec compiler processes (syscall-dense,
  path-resolution-heavy);
- **Boot** — service startup: fork+exec daemons, dynamic linking,
  config reads, socket binds (exercises many different rules);
- **Web1 / Web1000** — a LAMP-ish request loop at low and high
  concurrency, reporting both latency and throughput.
"""

from __future__ import annotations

import time
from repro.api import Session
from repro.programs.apache import ApacheServer
from repro.programs.ld_so import DynamicLinker
from repro.rulesets.generated import install_full_rulebase
from repro.vfs.file import OpenFlags
from repro.world import build_world

#: Table 7 configurations.
TABLE7_CONFIGS = ("Without PF", "PF Base", "PF Full")


def _configure(config):
    """Build a world under one Table 7 configuration.

    Assembly goes through the :class:`repro.api.Session` facade:
    "PF Base" is the EPTSPC engine with no rules, "PF Full" installs
    the generated 1218-rule base, and "Without PF" is a bare kernel
    with no firewall attached at all.
    """
    if config == "Without PF":
        kernel = build_world()
        kernel.audit_enabled = False
        return kernel
    session = Session(
        engine="EPTSPC",
        rules=install_full_rulebase if config == "PF Full" else None,
        kernel_audit=False,
    )
    return session.kernel


class MacrobenchSuite:
    """Builds and times the Table 7 workloads for one configuration."""

    def __init__(self, config="Without PF"):
        if config not in TABLE7_CONFIGS:
            raise ValueError("unknown Table 7 config {!r}".format(config))
        self.config = config
        self.kernel = _configure(config)
        self._prepare_tree()

    def _prepare_tree(self):
        kernel = self.kernel
        kernel.mkdirs("/usr/src/httpd", label="usr_t")
        kernel.mkdirs("/usr/include", label="usr_t")
        for i in range(20):
            kernel.add_file("/usr/include/hdr{}.h".format(i), b"#define X", label="usr_t")
        for i in range(60):
            kernel.add_file("/usr/src/httpd/src{}.c".format(i), b"int main(){}", label="usr_t")
        kernel.mkdirs("/usr/src/httpd/obj", label="usr_t")
        for i in range(24):
            kernel.add_file("/etc/svc{}.conf".format(i), b"option=1\n", label="etc_t")

    # ------------------------------------------------------------------
    # workloads
    # ------------------------------------------------------------------

    def apache_build(self, files=60):
        """Compile-like loop; returns wall-clock seconds."""
        kernel = self.kernel
        make = kernel.spawn("make", uid=0, label="unconfined_t", binary_path="/bin/sh")
        start = time.perf_counter()
        for i in range(files):
            cc = kernel.sys.fork(make)
            kernel.sys.execve(cc, "/bin/sh", argv=["cc", "src{}.c".format(i)])
            src = "/usr/src/httpd/src{}.c".format(i)
            fd = kernel.sys.open(cc, src)
            kernel.sys.read(cc, fd)
            kernel.sys.close(cc, fd)
            for h in range(4):
                kernel.sys.stat(cc, "/usr/include/hdr{}.h".format((i + h) % 20))
            obj = "/usr/src/httpd/obj/src{}.o".format(i)
            fd = kernel.sys.open(cc, obj, flags=OpenFlags.O_CREAT | OpenFlags.O_WRONLY | OpenFlags.O_TRUNC)
            kernel.sys.write(cc, fd, b"\x7fELFobj")
            kernel.sys.close(cc, fd)
            kernel.sys.exit(cc, 0)
        kernel.sys.exit(make, 0)
        return time.perf_counter() - start

    def boot(self, services=24):
        """Service-startup loop; returns wall-clock seconds."""
        kernel = self.kernel
        init = kernel.spawn("init", uid=0, label="init_t", binary_path="/bin/sh")
        start = time.perf_counter()
        for i in range(services):
            daemon = kernel.sys.fork(init)
            kernel.sys.execve(daemon, "/bin/sh", argv=["svc{}".format(i)])
            linker = DynamicLinker(kernel, daemon)
            linker.load_library("libc.so.6")
            fd = kernel.sys.open(daemon, "/etc/svc{}.conf".format(i))
            kernel.sys.read(daemon, fd)
            kernel.sys.close(daemon, fd)
            if i % 3 == 0:
                kernel.sys.bind(daemon, "/var/run/svc{}.sock".format(i), mode=0o700)
        return time.perf_counter() - start

    def web(self, requests=200, clients=1):
        """Request loop; returns ``(latency_ms, throughput_kbps)``.

        ``clients`` worker processes take requests round-robin, like
        ApacheBench's concurrency setting.
        """
        kernel = self.kernel
        servers = []
        for c in range(max(1, clients)):
            proc = kernel.spawn("apache2", uid=0, label="httpd_t", binary_path="/usr/bin/apache2")
            servers.append(ApacheServer(kernel, proc))
        body_bytes = 0
        start = time.perf_counter()
        for i in range(requests):
            response = servers[i % len(servers)].serve("/index.html")
            body_bytes += len(response.body)
        elapsed = time.perf_counter() - start
        latency_ms = elapsed / requests * 1000.0
        throughput_kbps = (body_bytes / 1024.0) / elapsed if elapsed else 0.0
        return latency_ms, throughput_kbps


def run_table7(build_files=60, boot_services=24, web_requests=200, repeats=3):
    """Measure all Table 7 rows under the three configurations.

    Returns ``{row_name: {config: value}}``; lower is better for times
    and latency, higher for throughput.  Each cell is the best of
    ``repeats`` runs (fresh world each run) — single runs on a shared
    machine are too noisy for overhead comparisons.
    """
    rows = {
        "Apache Build (s)": {},
        "Boot (s)": {},
        "Web1-L (ms)": {},
        "Web1-T (Kb/s)": {},
        "Web1000-L (ms)": {},
        "Web1000-T (Kb/s)": {},
    }
    for config in TABLE7_CONFIGS:
        builds, boots = [], []
        web1, web1000 = [], []
        for _ in range(max(1, repeats)):
            suite = MacrobenchSuite(config)
            builds.append(suite.apache_build(files=build_files))
            boots.append(suite.boot(services=boot_services))
            web1.append(suite.web(requests=web_requests, clients=1))
            web1000.append(suite.web(requests=web_requests, clients=16))
        rows["Apache Build (s)"][config] = min(builds)
        rows["Boot (s)"][config] = min(boots)
        rows["Web1-L (ms)"][config] = min(latency for latency, _t in web1)
        rows["Web1-T (Kb/s)"][config] = max(throughput for _l, throughput in web1)
        rows["Web1000-L (ms)"][config] = min(latency for latency, _t in web1000)
        rows["Web1000-T (Kb/s)"][config] = max(throughput for _l, throughput in web1000)
    return rows
