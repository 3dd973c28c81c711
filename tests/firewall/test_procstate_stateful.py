"""Stateful check: per-process firewall state under fork, exec and reap.

A hypothesis state machine grows and prunes a process tree on a
COMPILED session and interleaves every step that touches the per-
process firewall bundle (:class:`repro.firewall.procstate.ProcState`):
``fork(2)``, ``STATE`` writes (direct, and by a ``-j STATE`` rule on
``bind(2)``), decision-cache memoization of new entrypoint heads
(direct, and by a mediated ``stat(2)`` under an entrypoint rule),
invalidation, rule installs that orphan every cache, ``execve(2)`` and
reaping.  A reference model keeps each live process's ``STATE``
dictionary, decision entries and context cache as independent plain
containers.  After every step each process's bundle must equal its
model entry: a fork whose child shares a mutable container with its
parent shows as soon as either side writes into it.

The run is derandomized with a fixed example budget, so tier-1 sees the
same sequences every time.
"""

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro.api import Session

MAX_PROCS = 6
#: Binds and installs each wipe or orphan decision caches; capped, so
#: most steps run on warm caches.
MAX_BINDS = 2
MAX_INSTALLS = 3

#: An entrypoint rule, so a ``stat`` memoizes head sets, and the dbus
#: TOCTTOU template, so a ``bind`` writes ``STATE``.
RULES = [
    "pftables -A input -i 0x2d637 -p /bin/sh -o FILE_GETATTR -j DROP",
    "pftables -A input -o SOCKET_BIND -j STATE --set --key 0xbeef --value C_INO",
    "pftables -A input -o SOCKET_SETATTR -m STATE --key 0xbeef --cmp C_INO --nequal -j DROP",
]

indexes = st.integers(min_value=0, max_value=MAX_PROCS - 1)
state_keys = st.sampled_from(("k1", "k2", 0xBEEF))
decision_keys = st.sampled_from(("d1", "d2"))
heads = st.sampled_from((("/bin/sh", 0x10), ("/bin/sh", 0x20), ("/bin/sh", 0x30)))
call_sites = st.sampled_from((0x10, 0x20, 0x30))


def _copy_entries(entries):
    return {key: (value if value is True else set(value)) for key, value in entries.items()}


class Model:
    """One process's bundle as independent plain containers."""

    def __init__(self, state=None, stamp=None, entries=None, context=None):
        self.state = dict(state or {})
        self.stamp = stamp
        self.entries = None if entries is None else _copy_entries(entries)
        self.context = context

    def copy(self):
        return Model(self.state, self.stamp, self.entries, self.context)

    def adopt_decisions(self, pf):
        """Take over what the engine memoized into ``pf``."""
        cache = pf.decision_cache
        self.stamp, self.entries = (None, None) if cache is None else (
            cache[0], _copy_entries(cache[1]))


class ProcStateMachine(RuleBasedStateMachine):
    """Fork, write, memoize, exec and reap; every bundle must match its
    reference model."""

    @initialize()
    def build(self):
        self.session = Session(engine="COMPILED", rules=RULES)
        self.sys = self.session.sys
        root = self.session.spawn("sh", uid=0, label="unconfined_t", binary_path="/bin/sh")
        self.procs = [(root, Model())]
        self.installs = 0
        self.sockets = 0

    def _pick(self, index):
        return self.procs[index % len(self.procs)]

    def _after_syscall(self, proc, model):
        model.context = proc.pf.context_cache

    @precondition(lambda self: len(self.procs) < MAX_PROCS)
    @rule(index=indexes)
    def fork(self, index):
        parent, model = self._pick(index)
        child = self.sys.fork(parent)
        self._after_syscall(parent, model)
        self.procs.append((child, model.copy()))

    @rule(index=indexes, key=state_keys, value=st.integers(0, 3))
    def write_state(self, index, key, value):
        proc, model = self._pick(index)
        proc.pf.state[key] = value
        model.state[key] = value

    @precondition(lambda self: self.sockets < MAX_BINDS)
    @rule(index=indexes)
    def bind(self, index):
        """``-j STATE`` records the socket's inode and drops the
        decision cache."""
        proc, model = self._pick(index)
        path = "/tmp/s{}.sock".format(self.sockets)
        self.sockets += 1
        self.sys.bind(proc, path)
        model.state[0xBEEF] = self.session.kernel.lookup(path).ino
        model.stamp = model.entries = None
        self._after_syscall(proc, model)

    @rule(index=indexes, key=decision_keys, head=heads, allow=st.booleans())
    def memoize(self, index, key, head, allow):
        """What the engine does on a clean default allow: allocate
        under the live stamp, then record the head (or a plain allow)."""
        proc, model = self._pick(index)
        stamp = self.session.firewall.rules.stamp
        entries = proc.pf.decision_writable(stamp)
        if model.stamp is not stamp:
            model.stamp, model.entries = stamp, {}
        for target in (entries, model.entries):
            known = target.get(key)
            if allow:
                target[key] = True
            elif known is None:
                target[key] = {head}
            elif known is not True:
                known.add(head)

    @rule(index=indexes, site=call_sites)
    def stat(self, index, site):
        """A mediated ``stat`` from call site ``site``: the engine
        memoizes its entrypoint head into this process's cache only."""
        proc, model = self._pick(index)
        proc.call(proc.binary, site)
        try:
            self.sys.stat(proc, "/etc/passwd")
        finally:
            proc.ret()
        model.adopt_decisions(proc.pf)
        self._after_syscall(proc, model)

    @rule(index=indexes)
    def invalidate(self, index):
        proc, model = self._pick(index)
        proc.pf.decision_invalidate()
        model.stamp = model.entries = None

    @precondition(lambda self: self.installs < MAX_INSTALLS)
    @rule()
    def install(self):
        """A new rule-base stamp orphans every cache; nothing is
        rewritten until a process memoizes again."""
        self.installs += 1
        self.session.firewall.install("pftables -A input -o FILE_UNLINK -d shadow_t -j DROP")

    @rule(index=indexes)
    def execve(self, index):
        proc, model = self._pick(index)
        self.sys.execve(proc, "/bin/sh")
        model.__init__()

    @precondition(lambda self: len(self.procs) > 1)
    @rule(index=indexes)
    def reap(self, index):
        entry = self._pick(index)
        self.procs.remove(entry)
        proc, _ = entry
        self.session.reap(proc)
        assert proc.pf.state == {} and proc.pf.decision_cache is None
        assert proc.pf.context_cache is None

    @invariant()
    def bundles_match_model(self):
        for proc, model in self.procs:
            pf = proc.pf
            assert dict(pf.state) == model.state, proc.pid
            cache = pf.decision_cache
            if model.stamp is None:
                assert cache is None, proc.pid
            else:
                assert cache[0] is model.stamp and cache[1] == model.entries, proc.pid
            assert pf.context_cache == model.context, proc.pid


ProcStateMachine.TestCase.settings = settings(
    max_examples=60,
    stateful_step_count=40,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestProcStateModel = ProcStateMachine.TestCase


def test_machine_reaches_shared_heads():
    """Guard against vacuity: a fixed sequence of the machine's own
    steps forks a child off a parent that memoized a head, and both
    then memoize new heads under the same key."""
    machine = ProcStateMachine()
    machine.build()
    machine.stat(0, 0x10)
    machine.fork(0)
    machine.stat(1, 0x20)
    machine.stat(0, 0x30)
    machine.bundles_match_model()
    (parent, pmodel), (child, cmodel) = machine.procs
    parent_heads = set().union(*(v for v in pmodel.entries.values() if v is not True))
    child_heads = set().union(*(v for v in cmodel.entries.values() if v is not True))
    assert ("/bin/sh", 0x30) in parent_heads and ("/bin/sh", 0x30) not in child_heads
    assert ("/bin/sh", 0x20) in child_heads and ("/bin/sh", 0x20) not in parent_heads
    machine.teardown()
