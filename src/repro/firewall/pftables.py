"""The ``pftables`` rule language (paper Table 3).

Grammar::

    pftables [-t table] [-I|-A|-D chain [position]] rule_spec
    rule_spec : [def_match] [list of match] [target]
    def_match : -s process_label -d object_label
              : -i entry_point -o lsm_operation -p program [-b binary]
    match     : -m match_mod_name [match_mod_options]
    target    : -j target_mod_name [target_mod_options]

Every rule printed in the paper's Table 5 (R1-R12 and the T1/T2
templates) parses with this module; ``tests/firewall/test_pftables.py``
locks that in verbatim.
"""

from __future__ import annotations

import shlex
from typing import List, Optional

from repro import errors
from repro.firewall import matches as mm
from repro.firewall import targets as tg
from repro.firewall.rule import Rule
from repro.security.lsm import Op

#: Verdict / side-effect target names that are NOT user-chain jumps.
_KNOWN_TARGETS = {"DROP", "ACCEPT", "RETURN", "STATE", "LOG"}


class ParsedRule:
    """Outcome of parsing one pftables line."""

    __slots__ = ("action", "table", "chain", "position", "rule", "text")

    def __init__(self, action, table, chain, position, rule, text):
        self.action = action  # "insert" | "append" | "delete"
        self.table = table
        self.chain = chain
        self.position = position
        self.rule = rule
        self.text = text


def _strip_quotes(token):
    if len(token) >= 2 and token[0] == token[-1] and token[0] in "'\"":
        return token[1:-1]
    return token


def _parse_state_match(tokens):
    key = cmp_value = None
    equal = True
    while tokens and tokens[-1].startswith("--"):
        opt = tokens.pop()
        if opt == "--key":
            key = _strip_quotes(tokens.pop())
        elif opt == "--cmp":
            cmp_value = _strip_quotes(tokens.pop())
        elif opt == "--equal":
            equal = True
        elif opt == "--nequal":
            equal = False
        else:
            raise errors.EINVAL("STATE match: unknown option {!r}".format(opt))
    if key is None or cmp_value is None:
        raise errors.EINVAL("STATE match requires --key and --cmp")
    return mm.StateMatch(key, cmp_value, equal=equal)


def _parse_compare_match(tokens):
    v1 = v2 = None
    equal = True
    while tokens and tokens[-1].startswith("--"):
        opt = tokens.pop()
        if opt == "--v1":
            v1 = _strip_quotes(tokens.pop())
        elif opt == "--v2":
            v2 = _strip_quotes(tokens.pop())
        elif opt == "--equal":
            equal = True
        elif opt == "--nequal":
            equal = False
        else:
            raise errors.EINVAL("COMPARE match: unknown option {!r}".format(opt))
    if v1 is None or v2 is None:
        raise errors.EINVAL("COMPARE match requires --v1 and --v2")
    return mm.CompareMatch(v1, v2, equal=equal)


def _parse_syscall_args_match(tokens):
    arg_index = value = None
    equal = True
    while tokens and tokens[-1].startswith("--"):
        opt = tokens.pop()
        if opt == "--arg":
            arg_index = tokens.pop()
        elif opt == "--equal":
            equal = True
            value = _strip_quotes(tokens.pop())
        elif opt == "--nequal":
            equal = False
            value = _strip_quotes(tokens.pop())
        else:
            raise errors.EINVAL("SYSCALL_ARGS match: unknown option {!r}".format(opt))
    if arg_index is None or value is None:
        raise errors.EINVAL("SYSCALL_ARGS match requires --arg and --equal/--nequal VALUE")
    return mm.SyscallArgsMatch(arg_index, value, equal=equal)


def _parse_adversary_match(tokens):
    writable = readable = None
    while tokens and tokens[-1].startswith("--"):
        opt = tokens.pop()
        if opt == "--writable":
            writable = True
        elif opt == "--not-writable":
            writable = False
        elif opt == "--readable":
            readable = True
        elif opt == "--not-readable":
            readable = False
        else:
            raise errors.EINVAL("ADVERSARY match: unknown option {!r}".format(opt))
    if writable is None and readable is None:
        raise errors.EINVAL("ADVERSARY match requires an accessibility option")
    return mm.AdversaryMatch(writable=writable, readable=readable)


def _parse_script_match(tokens):
    file = line = None
    while tokens and tokens[-1].startswith("--"):
        opt = tokens.pop()
        if opt == "--file":
            file = _strip_quotes(tokens.pop())
        elif opt == "--line":
            line = tokens.pop()
        else:
            raise errors.EINVAL("SCRIPT match: unknown option {!r}".format(opt))
    if file is None:
        raise errors.EINVAL("SCRIPT match requires --file")
    return mm.ScriptMatch(file, line=line)


_MATCH_PARSERS = {
    "STATE": _parse_state_match,
    "COMPARE": _parse_compare_match,
    "SIGNAL_MATCH": lambda tokens: mm.SignalMatch(),
    "SYSCALL_ARGS": _parse_syscall_args_match,
    "ADVERSARY": _parse_adversary_match,
    "SCRIPT": _parse_script_match,
}


def _parse_state_target(tokens):
    key = value = None
    while tokens and tokens[-1].startswith("--"):
        opt = tokens.pop()
        if opt == "--set":
            continue
        if opt == "--key":
            key = _strip_quotes(tokens.pop())
        elif opt == "--value":
            value = _strip_quotes(tokens.pop())
        else:
            raise errors.EINVAL("STATE target: unknown option {!r}".format(opt))
    if key is None or value is None:
        raise errors.EINVAL("STATE target requires --key and --value")
    return tg.StateTarget(key, value)


def _parse_log_target(tokens):
    prefix = ""
    level = "info"
    while tokens and tokens[-1].startswith("--"):
        opt = tokens.pop()
        if opt == "--prefix":
            prefix = _strip_quotes(tokens.pop())
        elif opt == "--level":
            level = _strip_quotes(tokens.pop())
        else:
            raise errors.EINVAL("LOG target: unknown option {!r}".format(opt))
    try:
        return tg.LogTarget(prefix=prefix, level=level)
    except ValueError as exc:
        raise errors.EINVAL("LOG target: {}".format(exc))


#: Characters on which ``str.split`` and ``shlex.split(..., posix=False)``
#: tokenize alike: printable ASCII other than the two quotes, plus the
#: whitespace both split on.  ``str.split`` also splits on form feed,
#: vertical tab, the ASCII separators 0x1C-0x1F and Unicode spaces,
#: which shlex keeps inside a token.
_PLAIN_CHARS = frozenset(map(chr, range(0x20, 0x7F))) - {"'", '"'} | {"\t", "\r", "\n"}


def tokenize(text):
    """Split one pftables line into tokens like ``shlex.split(text, posix=False)``.

    Almost every rule line is plain (printable ASCII, no quotes), and
    ``str.split`` tokenizes those identically at a fraction of shlex's
    per-character cost; any other line goes through shlex, including
    its ``ValueError`` on an unclosed quote.
    """
    if _PLAIN_CHARS.issuperset(text):
        return text.split()
    return shlex.split(text, posix=False)


def parse_rule(text):
    """Parse one pftables line into a :class:`ParsedRule`."""
    tokens = tokenize(text)
    if not tokens:
        raise errors.EINVAL("empty pftables rule")
    tokens.reverse()
    if tokens[-1] == "pftables":
        tokens.pop()

    table = "filter"
    action = "append"
    chain = None
    position = None  # type: Optional[int]

    op_match = None
    subject = None
    object_ = None
    program = None
    entrypoint_offset = None
    custom = []  # type: List[mm.MatchModule]
    target = None

    # Tokens are taken from the end of the reversed list: ``pop()`` and
    # a length test stand in for a per-token method call, and running
    # out of tokens mid-option is an IndexError.
    try:
        while tokens:
            flag = tokens.pop()
            if flag == "-t":
                table = tokens.pop()
            elif flag in ("-I", "-A", "-D"):
                action = {"-I": "insert", "-A": "append", "-D": "delete"}[flag]
                chain = tokens.pop().lower()
                if "/" in chain:  # the paper's "create/input" shorthand
                    chain = chain.split("/")[0]
                if action == "insert":
                    position = 0
                    if tokens and tokens[-1].isdigit():
                        position = int(tokens.pop()) - 1
            elif flag == "-s":
                subject = mm.SubjectMatch(tokens.pop())
            elif flag == "-d":
                object_ = mm.ObjectMatch(tokens.pop())
            elif flag in ("-p", "-b"):
                program = tokens.pop()
            elif flag == "-i":
                entrypoint_offset = int(tokens.pop(), 0)
            elif flag == "-o":
                op_match = mm.OpMatch(tokens.pop())
            elif flag == "-m":
                name = tokens.pop().upper()
                parser = _MATCH_PARSERS.get(name)
                if parser is None:
                    raise errors.EINVAL("unknown match module {!r}".format(name))
                custom.append(parser(tokens))
            elif flag == "-j":
                name = tokens.pop()
                upper = name.upper()
                if upper == "DROP":
                    target = tg.DropTarget()
                elif upper == "ACCEPT":
                    target = tg.AcceptTarget()
                elif upper == "RETURN":
                    target = tg.ReturnTarget()
                elif upper == "STATE":
                    target = _parse_state_target(tokens)
                elif upper == "LOG":
                    target = _parse_log_target(tokens)
                else:
                    target = tg.JumpTarget(name)
            else:
                raise errors.EINVAL("unknown pftables flag {!r}".format(flag))
    except IndexError:
        raise errors.EINVAL("unexpected end of pftables rule") from None

    if target is None:
        raise errors.EINVAL("pftables rule has no target (-j)")

    # Assemble matches cheap-to-expensive: operation, subject,
    # entrypoint/program, object, then custom modules.
    ordered = []  # type: List[mm.MatchModule]
    if op_match is not None:
        ordered.append(op_match)
    if subject is not None:
        ordered.append(subject)
    if program is not None and entrypoint_offset is not None:
        ordered.append(mm.EntrypointMatch(program, entrypoint_offset))
    elif program is not None:
        ordered.append(mm.ProgramMatch(program))
    elif entrypoint_offset is not None:
        raise errors.EINVAL("-i requires -p/-b to name the image")
    if object_ is not None:
        ordered.append(object_)
    ordered.extend(custom)

    if chain is None:
        # No -I/-A: route by operation, defaulting to the input chain.
        if op_match is not None and op_match.op is Op.SYSCALL_BEGIN:
            chain = "syscallbegin"
        else:
            chain = "input"

    rule = Rule(ordered, target, text=text.strip())
    return ParsedRule(action, table, chain, position, rule, text.strip())


def pftables(firewall, text):
    """Parse and apply one pftables line against a firewall instance.

    Returns the installed :class:`Rule` (or the removed one for ``-D``).
    """
    parsed = parse_rule(text)
    if parsed.table == "mangle" and isinstance(parsed.rule.target, tg.DropTarget):
        raise errors.EINVAL("DROP is a filter-table verdict; mangle rules may only mark")
    base = firewall.rules
    if parsed.action == "delete":
        chain_obj = base.table(parsed.table).chain(parsed.chain)
        for existing in chain_obj:
            if existing.text == parsed.rule.text or existing.render() == parsed.rule.render():
                base.remove(parsed.table, parsed.chain, existing)
                return existing
        raise errors.EINVAL("no matching rule to delete in {!r}".format(parsed.chain))
    position = parsed.position if parsed.action == "insert" else None
    return base.install(parsed.table, parsed.chain, parsed.rule, position=position)
