"""Property-based tests on the engine's core invariants.

1. **Deny-only order independence** (§4.1/§4.3): for a rule base of
   DROP-only rules, permuting rule order never changes any verdict.
2. **Optimization transparency** (§4.2/§4.3): the FULL, CONCACHE,
   LAZYCON and EPTSPC configurations produce identical verdicts for
   identical rule bases and operations.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import errors
from repro.firewall.engine import EngineConfig, ProcessFirewall
from repro.world import build_world

LABELS = ["etc_t", "tmp_t", "lib_t", "shadow_t", "var_t"]
OPS = ["FILE_OPEN", "FILE_READ", "FILE_GETATTR", "DIR_SEARCH"]
PROGRAMS = ["/bin/sh", "/usr/bin/apache2"]
OFFSETS = [0x10, 0x20, 0x30]

PATHS = {
    "etc_t": "/etc/passwd",
    "shadow_t": "/etc/shadow",
    "lib_t": "/lib/libc.so.6",
    "var_t": "/var/run",
    "tmp_t": "/tmp",
}


@st.composite
def drop_rule(draw):
    parts = ["pftables -A input"]
    if draw(st.booleans()):
        parts.append("-o {}".format(draw(st.sampled_from(OPS))))
    if draw(st.booleans()):
        parts.append("-i {:#x} -p {}".format(draw(st.sampled_from(OFFSETS)), draw(st.sampled_from(PROGRAMS))))
    negate = draw(st.booleans())
    label = draw(st.sampled_from(LABELS))
    parts.append("-d {}{}".format("~" if negate else "", "{" + label + "}" if negate else label))
    parts.append("-j DROP")
    return " ".join(parts)


def build(rules, config):
    world = build_world()
    pf = ProcessFirewall(config)
    world.attach_firewall(pf)
    pf.install_all(rules)
    proc = world.spawn("sh", uid=0, label="unconfined_t", binary_path="/bin/sh")
    return world, proc


def verdicts(rules, config, frames):
    world, proc = build(rules, config)
    for offset in frames:
        proc.call(proc.binary, offset)
    out = []
    for label, path in sorted(PATHS.items()):
        try:
            world.sys.stat(proc, path)
            out.append("allow")
        except errors.PFDenied:
            out.append("drop")
        except errors.KernelError:
            out.append("err")
    return out


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    rules=st.lists(drop_rule(), min_size=1, max_size=6),
    seed=st.integers(min_value=0, max_value=2**16),
    frames=st.lists(st.sampled_from(OFFSETS), max_size=2),
)
def test_deny_only_rule_order_is_irrelevant(rules, seed, frames):
    import random

    shuffled = list(rules)
    random.Random(seed).shuffle(shuffled)
    config = EngineConfig.optimized()
    assert verdicts(rules, config, frames) == verdicts(shuffled, config, frames)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    rules=st.lists(drop_rule(), min_size=1, max_size=6),
    frames=st.lists(st.sampled_from(OFFSETS), max_size=2),
)
def test_optimizations_do_not_change_verdicts(rules, frames):
    reference = verdicts(rules, EngineConfig.unoptimized(), frames)
    for factory in (
        EngineConfig.concache,
        EngineConfig.lazycon,
        EngineConfig.optimized,
        EngineConfig.compiled,
    ):
        assert verdicts(rules, factory(), frames) == reference


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rules=st.lists(drop_rule(), min_size=1, max_size=5))
def test_disabled_engine_allows_everything(rules):
    assert all(v == "allow" for v in verdicts(rules, EngineConfig.disabled(), []))
