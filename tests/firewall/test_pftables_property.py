"""Property-based round-trips of the rule language.

For any rule the strategy can express: parse -> render -> reparse must
be a fixed point (same render, same match structure, same decisions).
"""

import shlex
import string

import pytest
from hypothesis import given, settings, strategies as st

from repro.firewall.pftables import parse_rule, tokenize

LABELS = st.sampled_from(["tmp_t", "etc_t", "lib_t", "shadow_t", "usr_t"])
OPS = st.sampled_from(["FILE_OPEN", "FILE_READ", "DIR_SEARCH", "LNK_FILE_READ", "SOCKET_BIND"])
PROGRAMS = st.sampled_from(["/bin/sh", "/usr/bin/apache2", "/lib/ld-2.15.so"])
CHAINS = st.sampled_from(["input", "create", "syscallbegin", "side_chain"])


@st.composite
def label_spec(draw):
    labels = draw(st.lists(LABELS, min_size=1, max_size=3, unique=True))
    negated = draw(st.booleans())
    syshigh = draw(st.booleans())
    parts = sorted(labels) + (["SYSHIGH"] if syshigh else [])
    body = parts[0] if len(parts) == 1 and not negated else "{" + "|".join(parts) + "}"
    return ("~" if negated else "") + body


@st.composite
def custom_match(draw):
    kind = draw(st.sampled_from(["STATE", "COMPARE", "SYSCALL_ARGS", "ADVERSARY", "SCRIPT", "SIGNAL"]))
    if kind == "STATE":
        key = draw(st.sampled_from(["'sig'", "0xbeef", "42"]))
        cmp_ = draw(st.sampled_from(["1", "C_INO", "C_OBJ"]))
        flag = draw(st.sampled_from(["--equal", "--nequal"]))
        return "-m STATE --key {} --cmp {} {}".format(key, cmp_, flag)
    if kind == "COMPARE":
        flag = draw(st.sampled_from(["--equal", "--nequal"]))
        return "-m COMPARE --v1 C_DAC_OWNER --v2 C_TGT_DAC_OWNER {}".format(flag)
    if kind == "SYSCALL_ARGS":
        return "-m SYSCALL_ARGS --arg {} --equal NR_sigreturn".format(draw(st.integers(0, 3)))
    if kind == "ADVERSARY":
        return "-m ADVERSARY " + draw(st.sampled_from(["--writable", "--not-writable", "--readable"]))
    if kind == "SCRIPT":
        line = draw(st.integers(1, 500))
        return "-m SCRIPT --file /app/x.php --line {}".format(line)
    return "-m SIGNAL_MATCH"


@st.composite
def rule_line(draw):
    parts = ["pftables -A", draw(CHAINS)]
    if draw(st.booleans()):
        parts.append("-o " + draw(OPS))
    if draw(st.booleans()):
        parts.append("-s " + draw(label_spec()))
    if draw(st.booleans()):
        parts.append("-i {:#x} -p {}".format(draw(st.integers(0, 0xFFFFF)) * 4, draw(PROGRAMS)))
    if draw(st.booleans()):
        parts.append("-d " + draw(label_spec()))
    for match in draw(st.lists(custom_match(), max_size=2)):
        parts.append(match)
    target = draw(st.sampled_from([
        "-j DROP",
        "-j ACCEPT",
        "-j LOG",
        "-j STATE --set --key 'k' --value C_INO",
        "-j side_chain",
    ]))
    parts.append(target)
    return " ".join(parts)


@settings(max_examples=200, deadline=None)
@given(text=rule_line())
def test_render_is_a_fixed_point(text):
    parsed = parse_rule(text)
    rendered = parsed.rule.render()
    reparsed = parse_rule("pftables -A {} {}".format(parsed.chain, rendered))
    assert reparsed.rule.render() == rendered
    assert reparsed.chain == parsed.chain
    assert len(reparsed.rule.matches) == len(parsed.rule.matches)
    assert type(reparsed.rule.target) is type(parsed.rule.target)


@settings(max_examples=100, deadline=None)
@given(text=rule_line())
def test_required_fields_stable_across_roundtrip(text):
    parsed = parse_rule(text)
    rendered = parsed.rule.render()
    reparsed = parse_rule("pftables -A {} {}".format(parsed.chain, rendered))
    assert reparsed.rule.required_fields == parsed.rule.required_fields


#: Rule-line characters plus every character class on which ``str.split``
#: and shlex could disagree: quotes, comment and escape characters, form
#: feed, vertical tab, ASCII separators, NBSP and non-ASCII letters.
TOKEN_CHARS = st.sampled_from(
    list(string.printable) + ["'", '"', "#", "\\", "\x0b", "\x0c", "\x1c", "\x1f",
                              "\xa0", "\u2003", "\xe9", "\x00"]
)


def _shlex_outcome(text):
    try:
        return shlex.split(text, posix=False)
    except ValueError as exc:
        return ValueError, str(exc)


@settings(max_examples=500, deadline=None)
@given(text=st.one_of(st.text(TOKEN_CHARS, max_size=60), st.text(max_size=60), rule_line()))
def test_tokenize_equals_shlex(text):
    try:
        tokens = tokenize(text)
    except ValueError as exc:
        tokens = ValueError, str(exc)
    assert tokens == _shlex_outcome(text)


def test_tokenize_unclosed_quote_raises_like_shlex():
    with pytest.raises(ValueError, match="No closing quotation"):
        tokenize("-A input -m STATE --key 'sig -j DROP")
