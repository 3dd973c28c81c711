"""Syscall fuzzing: random multi-process sequences, clean failures only.

Whatever sequence of syscalls a mix of root and unprivileged processes
throws at the kernel — with the full 1218-rule firewall attached — the
only acceptable failures are :class:`repro.errors.KernelError`
subclasses, and the filesystem invariants must hold afterwards.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import errors
from repro.firewall.engine import ProcessFirewall
from repro.proc import signals as sig
from repro.rulesets.generated import install_full_rulebase
from repro.vfs.file import OpenFlags
from repro.world import build_world, spawn_adversary, spawn_root_shell

PATHS = [
    "/etc/passwd", "/etc/shadow", "/tmp", "/tmp/a", "/tmp/b", "/tmp/link",
    "/tmp/dir", "/tmp/dir/x", "/lib/libc.so.6", "/var/run/sock", "/home/user/f",
]

SYSCALLS = [
    "open", "open_creat", "stat", "lstat", "readlink", "unlink", "mkdir",
    "rmdir", "symlink", "link", "rename", "chmod", "bind", "connect",
    "read_fd", "write_fd", "close_fd", "dup_fd", "fork", "exit", "kill",
    "sigaction", "sigreturn", "mkfifo", "listdir",
]


@st.composite
def step(draw):
    return (
        draw(st.sampled_from(SYSCALLS)),
        draw(st.sampled_from(PATHS)),
        draw(st.sampled_from(PATHS)),
        draw(st.integers(min_value=0, max_value=5)),  # fd / pid selector
        draw(st.booleans()),  # actor: root or adversary
    )


def _fs_invariants(kernel):
    fs = kernel.fs
    live = set(fs.inodes._live)
    seen = set()
    stack = [fs.root]
    entry_counts = {}
    while stack:
        node = stack.pop()
        if node.ino in seen:
            continue
        seen.add(node.ino)
        for name, ino in node.children.items():
            assert fs.inodes.is_live(ino), "dangling entry {!r}".format(name)
            entry_counts[ino] = entry_counts.get(ino, 0) + 1
            child = fs.inodes.get(ino)
            if child.is_dir:
                stack.append(child)
    for ino, count in entry_counts.items():
        assert fs.inodes.get(ino).nlink == count
    # No free-list number may be live.
    assert not (set(fs.inodes._free) & live)


def _apply(kernel, procs, fds, op):
    name, path_a, path_b, selector, as_root = op
    proc = procs[0] if as_root else procs[1]
    if not proc.alive:
        return
    sys = kernel.sys
    if name == "open":
        fds.append((proc, sys.open(proc, path_a)))
    elif name == "open_creat":
        fds.append((proc, sys.open(proc, path_a, flags=OpenFlags.O_CREAT | OpenFlags.O_WRONLY)))
    elif name == "stat":
        sys.stat(proc, path_a)
    elif name == "lstat":
        sys.lstat(proc, path_a)
    elif name == "readlink":
        sys.readlink(proc, path_a)
    elif name == "unlink":
        sys.unlink(proc, path_a)
    elif name == "mkdir":
        sys.mkdir(proc, path_a)
    elif name == "rmdir":
        sys.rmdir(proc, path_a)
    elif name == "symlink":
        sys.symlink(proc, path_b, path_a)
    elif name == "link":
        sys.link(proc, path_b, path_a)
    elif name == "rename":
        sys.rename(proc, path_a, path_b)
    elif name == "chmod":
        sys.chmod(proc, path_a, 0o600 + selector)
    elif name == "bind":
        sys.bind(proc, path_a)
    elif name == "connect":
        sys.connect(proc, path_a)
    elif name == "mkfifo":
        sys.mkfifo(proc, path_a)
    elif name == "listdir":
        sys.listdir(proc, path_a)
    elif name == "read_fd" and fds:
        owner, fd = fds[selector % len(fds)]
        sys.read(owner, fd, 8)
    elif name == "write_fd" and fds:
        owner, fd = fds[selector % len(fds)]
        sys.write(owner, fd, b"z")
    elif name == "close_fd" and fds:
        owner, fd = fds.pop(selector % len(fds))
        sys.close(owner, fd)
    elif name == "dup_fd" and fds:
        owner, fd = fds[selector % len(fds)]
        fds.append((owner, sys.dup(owner, fd)))
    elif name == "fork":
        child = sys.fork(proc)
        procs.append(child)
    elif name == "exit" and len(procs) > 2:
        victim = procs.pop()
        if victim.alive:
            # Forget descriptors owned by the exiting process.
            fds[:] = [(o, fd) for o, fd in fds if o is not victim]
            sys.exit(victim)
    elif name == "kill":
        target = procs[selector % len(procs)]
        if target.alive:
            sys.kill(proc, target.pid, sig.SIGUSR1)
    elif name == "sigaction":
        sys.sigaction(proc, sig.SIGUSR1, handler_pc=0x100)
    elif name == "sigreturn":
        sys.sigreturn(proc)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(step(), max_size=40))
def test_fuzzed_sequences_fail_cleanly(ops):
    kernel = build_world()
    kernel.audit_enabled = False
    firewall = ProcessFirewall()
    kernel.attach_firewall(firewall)
    install_full_rulebase(firewall, size=80)
    procs = [spawn_root_shell(kernel), spawn_adversary(kernel)]
    fds = []
    for op in ops:
        try:
            _apply(kernel, procs, fds, op)
        except errors.KernelError:
            pass  # clean, expected failure mode
    _fs_invariants(kernel)
    # Firewall bookkeeping is consistent.
    assert firewall.stats.drops <= firewall.stats.invocations
