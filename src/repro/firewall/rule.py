"""Rules, chains, and the rule base.

Mirrors iptables structure (paper §5): a firewall holds *tables*
("filter", "mangle"), each table holds built-in chains (``input``,
``output``, ``syscallbegin``, ``create``) plus user chains; each chain
is an ordered rule list.

Chains additionally carry the **entrypoint index** of §4.3: at install
time rules with an ``-i`` entrypoint match are grouped by
``(program, offset)``; rules without one form the *preamble*, "matched
before jumping to entrypoint-specific chains".  Because the rule base is
deny-only with a default allow, this reorganization cannot change any
decision (§4.3: "This simple traversal arrangement is possible because
we have only deny rules followed by a default allow rule").
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from repro import errors
from repro.firewall.context import ContextField
from repro.firewall.matches import EntrypointMatch, MatchModule, OpMatch, SyscallArgsMatch
from repro.firewall.targets import Target
from repro.security.lsm import Op

#: Built-in chain names.
BUILTIN_CHAINS = ("input", "output", "syscallbegin", "create")

#: Table names, as in the paper's rule language (Table 3).
TABLES = ("filter", "mangle")


def _op_accepts(rule_op, op):
    """Whether a rule's ``-o`` filter covers ``op``.

    ``None`` matches every operation; the only alias is the paper's
    ``LINK_READ`` name for ``LNK_FILE_READ`` (normalized at parse time,
    so only the raw-enum direction remains).
    """
    if rule_op is None or rule_op is op:
        return True
    return op is Op.LINK_READ and rule_op is Op.LNK_FILE_READ


class Rule:
    """One firewall rule: a match list plus a target.

    Attributes:
        matches: every :class:`MatchModule` (default + custom) in cheap-
            to-expensive evaluation order.
        target: the :class:`Target`.
        text: original ``pftables`` text, for round-trips and logs.
    """

    __slots__ = ("matches", "target", "text", "comment", "op", "hits", "required_fields")

    def __init__(self, matches, target, text="", comment=""):
        self.matches = list(matches)
        self.target = target
        self.text = text or self.render()
        self.comment = comment
        #: Cached ``-o`` filter for the engine's inline pre-check (the
        #: equivalent of iptables' cheap header-field compare).
        self.op = self.op_filter()
        #: Times this rule fully matched (iptables' packet counter);
        #: surfaced by ``pftables -L -v``-style listings and usable as
        #: a rule-generation signal.
        self.hits = 0
        #: Union of the context fields the matches and target read, as
        #: plain int ``ContextField`` bits: each ``|`` on the
        #: ``IntFlag``, and each wrap into one, is a Python-level call,
        #: and :class:`RuleBase` wraps the union of a whole base once.
        #: Computed once: a rule is immutable once built.
        bits = int(self.target.required_fields)
        for match in self.matches:
            bits |= int(match.required_fields)
        self.required_fields = bits

    def entrypoint_key(self):
        """``(program, offset)`` when this rule is entrypoint-specific."""
        for match in self.matches:
            if isinstance(match, EntrypointMatch):
                return match.chain_key()
        return None

    def syscall(self):
        """The ``-m SYSCALL_ARGS --arg 0 --equal`` literal this rule
        requires (``NR_`` stripped), or ``None`` when it has none."""
        for match in self.matches:
            if isinstance(match, SyscallArgsMatch):
                nr = match.syscall()
                if nr is not None:
                    return nr
        return None

    def op_filter(self):
        """The rule's ``-o`` operation, if any (for fast pre-filtering)."""
        for match in self.matches:
            if isinstance(match, OpMatch):
                return match.op
        return None

    def render(self):
        parts = [m.render() for m in self.matches] + [self.target.render()]
        return " ".join(parts)

    def __repr__(self):  # pragma: no cover - debugging aid
        return "<Rule {}>".format(self.text)


class Chain:
    """An ordered rule list with an optional entrypoint index."""

    def __init__(self, name, builtin=False):
        self.name = name
        self.builtin = builtin
        self.rules = []  # type: List[Rule]
        #: §4.3 index: preamble rules (no entrypoint) in order, then a
        #: per-entrypoint bucket.  Appends index incrementally;
        #: insert/delete/flush reindex.
        self.preamble = []  # type: List[Rule]
        self.by_entrypoint = {}  # type: Dict[Tuple[str, int], List[Rule]]
        #: Operations any rule in this chain can match (None = all);
        #: lets the optimized engine skip the chain outright.
        self.relevant_ops = set()  # type: Optional[set]
        #: Preamble rules indexed by their -o operation; key None holds
        #: rules that match any operation.  Used by the optimized walk.
        self.preamble_by_op = {}  # type: Dict[Optional[object], List[Rule]]
        #: Operations the entrypoint buckets could match (None = all).
        self.ept_ops = set()  # type: Optional[set]
        #: Syscall index: the ``SYSCALL_ARGS --arg 0 --equal`` literals
        #: of every rule (None = some rule names none).  For a
        #: ``syscallbegin`` chain, ``args[0]`` is the syscall, so one
        #: outside this set cannot match any rule.
        self.syscalls = set()  # type: Optional[set]
        #: Compiled dispatch lists: ``(op, entrypoint_key)`` -> flat
        #: rule tuple, filled lazily and discarded on every mutation.
        #: Key ``(op, None)`` holds the op-filtered preamble alone;
        #: ``(op, (program, offset))`` holds preamble + that bucket,
        #: both already narrowed to rules whose ``-o`` covers ``op``.
        self._compiled = {}  # type: Dict[Tuple[object, object], tuple]

    def insert(self, rule, position=0):
        self.rules.insert(position, rule)
        self._reindex()

    def append(self, rule):
        self.rules.append(rule)
        self._index(rule)

    def delete(self, rule):
        self.rules.remove(rule)
        self._reindex()

    def flush(self):
        self.rules = []
        self._reindex()

    def _index(self, rule):
        """Add one rule, placed after every indexed rule, to the index."""
        self._compiled = {}
        key = rule.entrypoint_key()
        rule_op = rule.op
        if key is None:
            self.preamble.append(rule)
            self.preamble_by_op.setdefault(rule_op, []).append(rule)
        else:
            self.by_entrypoint.setdefault(key, []).append(rule)
            if rule_op is None:
                self.ept_ops = None
            elif self.ept_ops is not None:
                self.ept_ops.add(rule_op)
        if rule_op is None:
            self.relevant_ops = None  # a rule without -o matches any operation
        elif self.relevant_ops is not None:
            self.relevant_ops.add(rule_op)
        nr = rule.syscall()
        if nr is None:
            self.syscalls = None
        elif self.syscalls is not None:
            self.syscalls.add(nr)

    def _reindex(self):
        """Rebuild every index from :attr:`rules`: reset, then index each."""
        self.preamble = []
        self.by_entrypoint = {}
        self.preamble_by_op = {}
        self.relevant_ops = set()
        self.ept_ops = set()
        self.syscalls = set()
        self._compiled = {}
        for rule in self.rules:
            self._index(rule)

    def _preamble_accepting(self, op):
        return [rule for rule in self.preamble if _op_accepts(rule.op, op)]

    def preamble_for(self, op):
        """Preamble rules whose ``-o`` covers ``op``, in chain order.

        The same rules as ``dispatch(op)``, without the memo.  When one
        ``preamble_by_op`` bucket alone covers ``op`` it is returned as
        is; otherwise a single filter pass over the preamble keeps the
        original order.
        """
        by_op = self.preamble_by_op
        wildcard = by_op.get(None)
        specific = by_op.get(op)
        if not (op is Op.LINK_READ and Op.LNK_FILE_READ in by_op):
            if wildcard is None:
                return specific or ()
            if specific is None:
                return wildcard
        return self._preamble_accepting(op)

    def dispatch(self, op, ept_key=None):
        """Flat, precompiled rule tuple for one ``(op, entrypoint)`` pair.

        The first lookup for a key materializes the list — preamble
        rules whose ``-o`` covers ``op`` in order, followed by the
        matching rules of the ``ept_key`` bucket — and memoizes it;
        every later mediation of the same shape iterates one tuple with
        no merging, no membership tests, and no per-rule op checks.
        The memo dies with the next mutation, so installs/deletes can
        never serve stale dispatch lists.  Callers pass ``ept_key``
        only for keys present in :attr:`by_entrypoint`, keeping the
        memo bounded by (ops seen) × (installed entrypoints + 1).
        """
        key = (op, ept_key)
        seq = self._compiled.get(key)
        if seq is None:
            rules = self._preamble_accepting(op)
            if ept_key is not None:
                rules.extend(
                    rule
                    for rule in self.by_entrypoint.get(ept_key, ())
                    if _op_accepts(rule.op, op)
                )
            seq = tuple(rules)
            self._compiled[key] = seq
        return seq

    def __len__(self):
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)


class Table:
    """One firewall table holding built-in and user chains."""

    def __init__(self, name):
        self.name = name
        self.chains = {c: Chain(c, builtin=True) for c in BUILTIN_CHAINS}

    def chain(self, name, create=False):
        name = name.lower()
        if name not in self.chains:
            if not create:
                raise errors.EINVAL("no chain {!r} in table {!r}".format(name, self.name))
            self.chains[name] = Chain(name)
        return self.chains[name]

    def all_rules(self):
        for chain in self.chains.values():
            for rule in chain:
                yield rule


class RuleBase:
    """All tables of one firewall instance."""

    #: Monotonic instance ids — two distinct rule bases must never
    #: share a memo stamp even when their mutation counts coincide
    #: (e.g. flush + reinstall, or an atomically swapped restore).
    _uids = itertools.count()

    def __init__(self):
        self.tables = {name: Table(name) for name in TABLES}
        #: Union of context fields used by any installed rule — the set
        #: the unoptimized (non-lazy) engine collects eagerly per hook.
        self.required_fields = ContextField(0)
        #: Bumped on every mutation; engines key their memos off it.
        self.version = 0
        #: Unique per-instance id; memo stamps are ``(uid, version)``.
        self.uid = next(RuleBase._uids)
        #: Identity + mutation stamp for engine/per-task memo keys.
        #: A plain attribute reassigned on every mutation, so the hot
        #: path can compare by object identity (``is``) — the tuple
        #: object only changes when the rule base does.
        self.stamp = (self.uid, 0)

    def table(self, name="filter"):
        try:
            return self.tables[name]
        except KeyError:
            raise errors.EINVAL("no table {!r}".format(name))

    def recompute_required_fields(self):
        bits = 0
        for table in self.tables.values():
            for rule in table.all_rules():
                bits |= rule.required_fields
        self.required_fields = ContextField(bits)
        return self.required_fields

    def rule_count(self):
        return sum(len(chain) for table in self.tables.values() for chain in table.chains.values())

    def install(self, table, chain, rule, position=None, create_chain=True):
        """Insert (position given) or append a rule.

        An added rule can only widen the field union, so it is OR-ed in
        rather than recomputed over the whole base, and rewrapped only
        when it widens.
        """
        chain_obj = self.table(table).chain(chain, create=create_chain)
        if position is None:
            chain_obj.append(rule)
        else:
            chain_obj.insert(rule, position)
        have = int(self.required_fields)
        bits = have | rule.required_fields
        if bits != have:
            self.required_fields = ContextField(bits)
        self.version += 1
        self.stamp = (self.uid, self.version)
        return rule

    def remove(self, table, chain, rule):
        self.table(table).chain(chain).delete(rule)
        self.recompute_required_fields()
        self.version += 1
        self.stamp = (self.uid, self.version)
