"""Batched binary wire protocol for the mediation service data plane.

The service first shipped one pickled ``("run", spec)`` tuple per
session and got one pickled result — every per-step verdict tuple,
every raw latency sample — back the same way.  Once the engine ladder
made the *check* cheap, that per-session round-trip became the
measured tax at 4–8 workers.  This module is the data plane that
replaced it, three layers deep:

**Framing** — :func:`pack_frame` / :func:`unpack_frame` build
length-prefixed binary frames: a fixed :data:`MAGIC`/version/kind
header followed by ``count`` length-prefixed payload records.  One
frame carries a whole *batch* of sessions (or results), so the
admission controller can coalesce a backlog into a single pipe write
sized adaptively by queue depth instead of one write per session.

**Spec interning** — generated apache/sshd/php sessions are
near-identical: the same step vocabulary over per-session paths that
differ only by the session id.  :class:`SpecCodec` is built once from
the stream (:meth:`SpecCodec.from_specs`), ships its template table to
every worker in the init payload, and thereafter encodes a session as
``(template_id, sid, step-code array)`` — about two bytes per step —
by abstracting the session-id-derived substrings
(:func:`repro.workloads.generators.session_home` /
:func:`~repro.workloads.generators.trap_path`) out of each step.
Anything the codebook cannot express falls back to a pickled escape
record, so the codec is lossless over arbitrary specs, just compact
over generated ones.

**Result compression** — :func:`encode_result` exploits the service
invariant that almost every step status is ``"ok"``: the verdict
stream is carried as a count plus the *exceptional* ``(index,
status)`` pairs only (run-length encoding over the dominant ok-run),
latency samples ship as a packed ``array('d')`` buffer instead of a
pickled float list, and the irregular audit tail (rare: trap denials)
rides as an embedded pickle blob.  The step *ops* are never sent back
at all — the driver still holds the spec it submitted and
:func:`decode_result` re-derives them (``kinds_by_sid``), which is
where most of the result bytes go.

Frame and codec traffic is observable through
:class:`repro.obs.service.WireCounters` (``pf_service_wire_*`` metric
family).
"""

from __future__ import annotations

import pickle
import struct
from array import array

from repro.firewall.engine import ProcessFirewall
from repro.firewall.persist import load_rules
from repro.security.lsm import Op
from repro.workloads.generators import session_home, trap_path

#: Two-byte frame magic: a frame that does not start with this is not
#: service wire traffic and fails loudly (:class:`WireProtocolError`).
MAGIC = b"PW"

#: Wire format version carried in every frame header.
WIRE_VERSION = 1

#: Frame kinds (one byte on the wire).
FRAME_RUN = 1        #: driver -> worker: a batch of encoded session specs
FRAME_RESULT = 2     #: worker -> driver: a batch of encoded session results
FRAME_FIN = 3        #: driver -> worker: drain and ship the final snapshot
FRAME_SNAPSHOT = 4   #: worker -> driver: the pickled final snapshot
FRAME_ERROR = 5      #: worker -> driver: a failure (utf-8 traceback text)

#: Human-readable names for the frame kinds (metrics labels, errors).
FRAME_NAMES = {
    FRAME_RUN: "run",
    FRAME_RESULT: "result",
    FRAME_FIN: "fin",
    FRAME_SNAPSHOT: "snapshot",
    FRAME_ERROR: "error",
}

#: The frame format's name in a worker payload's ``wire_protocol`` key;
#: a pool refuses a payload naming any other format.
PROTOCOL = "binary"

_HEADER = struct.Struct("<2sBBH")   # magic, version, kind, record count
_LEN = struct.Struct("<I")          # per-record length prefix

# Spec-record layout constants.
_SPEC_HEAD = struct.Struct("<BIH")  # template id, sid, step count
_SPEC_ESCAPE = 0xFF                 # template id of a whole-spec pickle escape
_STEP_ESCAPE = 0xFFFF               # step code of a pickled step escape
_MAX_TEMPLATES = 0xFF               # escape id excluded
_MAX_CODES = 0xFFFF                 # escape code excluded

# Result-record layout constants.
_RESULT_BINARY = 1                  # leading flag byte: binary layout
_RESULT_PICKLED = 0                 # leading flag byte: pickle escape
_RESULT_HEAD = struct.Struct("<IH")  # sid, verdict count
_RESULT_TAIL = struct.Struct("<II")  # mediations, drops

# Audit-section layout constants (inside a binary result record).
_AUDIT_STRUCT = 1                   # audit flag byte: structured rows
_AUDIT_PICKLED = 0                  # audit flag byte: pickle escape
_AUDIT_HEAD = struct.Struct("<HH")  # worker id, row count
_STR_ID = struct.Struct("<H")       # string-table index (0xFFFF = inline)
_STR_INLINE = 0xFFFF                # index marking an inline utf-8 string
_I64 = struct.Struct("<q")          # integer audit values
_VAL_STR = 0                        # value type: abstracted interned string
_VAL_INT = 1                        # value type: signed 64-bit integer
_VAL_PICKLE = 2                     # value type: pickled escape
_VAL_RAW = 3                        # value type: raw string (NUL-bearing)

#: The exact key set of a runner-emitted audit row; anything else takes
#: the pickled-audit escape.
_ROW_KEYS = frozenset(("worker", "lclock", "sub", "severity", "kind", "record"))

# Placeholders substituted for the two session-id-derived substrings
# when a step is abstracted into the codebook.  A NUL byte cannot occur
# in a real path, so abstraction never collides with payload text (any
# step already containing a NUL is escaped instead).
_PH_HOME = "\x00H"
_PH_TRAP = "\x00T"


class WireProtocolError(ValueError):
    """A frame or record violated the wire format (bad magic, version,
    truncated record, or a record that does not match its announced
    shape).  Always a bug or corruption, never a recoverable state —
    the pool surfaces it as a fatal worker error."""


def pack_frame(kind, payloads=()):
    """Serialize ``payloads`` (byte strings) into one ``kind`` frame.

    Layout: ``MAGIC | version(B) | kind(B) | count(H)`` followed by
    ``count`` records, each a ``<I`` length prefix plus the record
    bytes.  The whole frame is one pipe message — the batching unit of
    the data plane.
    """
    if len(payloads) > 0xFFFF:
        raise WireProtocolError(
            "frame of {} records exceeds the u16 count field".format(len(payloads)))
    parts = [_HEADER.pack(MAGIC, WIRE_VERSION, kind, len(payloads))]
    for payload in payloads:
        parts.append(_LEN.pack(len(payload)))
        parts.append(payload)
    return b"".join(parts)


def unpack_frame(data):
    """Parse one frame; returns ``(kind, [payload bytes, ...])``.

    Validates magic, version, and that the records exactly consume the
    frame — anything else raises :class:`WireProtocolError`.
    """
    if len(data) < _HEADER.size:
        raise WireProtocolError("truncated frame header ({} bytes)".format(len(data)))
    magic, version, kind, count = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise WireProtocolError("bad frame magic {!r}".format(magic))
    if version != WIRE_VERSION:
        raise WireProtocolError(
            "wire version {} (this build speaks {})".format(version, WIRE_VERSION))
    payloads = []
    offset = _HEADER.size
    for _ in range(count):
        if offset + _LEN.size > len(data):
            raise WireProtocolError("truncated record length prefix")
        (length,) = _LEN.unpack_from(data, offset)
        offset += _LEN.size
        if offset + length > len(data):
            raise WireProtocolError("truncated record body")
        payloads.append(bytes(data[offset:offset + length]))
        offset += length
    if offset != len(data):
        raise WireProtocolError(
            "{} trailing bytes after the last record".format(len(data) - offset))
    return kind, payloads


#: Strings every service audit stream leans on regardless of rule base:
#: record keys, severity and kind names, the session models' process
#: names, the mediated syscall vocabulary, and the hot content paths
#: (sid-derived ones in placeholder form — they intern once, match
#: every session).  :func:`audit_strings` appends the Op names and the
#: rule-base texts after these.
_FIXED_STRINGS = (
    "pid", "comm", "op", "syscall", "path", "rule",
    "debug", "info", "warning", "error", "drop", "log",
    "apache2", "sshd", "php5", "sh",
    "open", "stat", "read", "write", "close", "fork", "execve",
    "exit", "getpid",
    "/etc/passwd", _PH_TRAP, _PH_HOME + "/f0", _PH_HOME + "/f1",
    "/var/www", "/var/www/html", "/var/www/html/index.html",
    "/usr/lib/libphp5.so", "/bin/sh",
)


def audit_strings(rules_text=None):
    """The shared audit string table for a rule base — a plain list.

    Deterministic function of ``rules_text``: the fixed vocabulary
    (:data:`_FIXED_STRINGS`), then every :class:`Op` name, then the
    canonical ``rule.text`` of each installed rule — collected by
    loading the text into a throwaway firewall, in table/chain/position
    order, exactly as both endpoints would.  Driver and workers each
    hold ``rules_text`` (it is already in the worker init payload), so
    the same list exists on both ends and audit rows can cross the
    pipe as two-byte indexes; the dominant audit payload is the
    matched-rule text (~130 bytes per drop record), which is what this
    table exists to intern.  Strings outside the table ride inline —
    the table is a compression dictionary, never a constraint.
    """
    table = list(_FIXED_STRINGS)
    seen = set(table)
    for name in Op.__members__:
        if name not in seen:
            seen.add(name)
            table.append(name)
    if rules_text:
        firewall = ProcessFirewall()
        load_rules(firewall, rules_text)
        for table_name in sorted(firewall.rules.tables):
            for chain in firewall.rules.tables[table_name].chains.values():
                for rule in chain.rules:
                    if rule.text and rule.text not in seen:
                        seen.add(rule.text)
                        table.append(rule.text)
    return table[:_STR_INLINE]


class StringTable:
    """Two-way view over a shared string list (see :func:`audit_strings`).

    Encoders map string → index (``None`` when absent → inline escape);
    decoders map index → string.  Built from the plain list that ships
    in the worker init payload; ``StringTable(None)`` is the empty
    table — every string rides inline, correct but not compact.
    """

    def __init__(self, strings=None):
        #: The table in index order (what ships in init payloads).
        self.strings = list(strings) if strings else []
        self._ids = {s: i for i, s in enumerate(self.strings)}

    def index(self, value):
        """Table index of ``value``, or ``None`` if not interned."""
        return self._ids.get(value)

    def lookup(self, index):
        """The string at ``index``; raises :class:`WireProtocolError`
        when the index is outside the table (decoder/table mismatch)."""
        if index >= len(self.strings):
            raise WireProtocolError(
                "string index {} outside the shared table ({} entries)".format(
                    index, len(self.strings)))
        return self.strings[index]


#: The empty table used when a caller passes ``strings=None``.
_EMPTY_STRINGS = StringTable()


def _pack_str(value, strings, home, trap, parts):
    """Append one abstracted string: table index or inline escape."""
    abstracted = value.replace(home, _PH_HOME).replace(trap, _PH_TRAP)
    index = strings._ids.get(abstracted)
    if index is not None:
        parts.append(_STR_ID.pack(index))
    else:
        blob = abstracted.encode("utf-8")
        parts.append(_STR_ID.pack(_STR_INLINE))
        parts.append(_LEN.pack(len(blob)))
        parts.append(blob)


def _unpack_str(payload, offset, strings, home, trap):
    """Inverse of :func:`_pack_str`; returns ``(value, offset)``."""
    (index,) = _STR_ID.unpack_from(payload, offset)
    offset += _STR_ID.size
    if index == _STR_INLINE:
        (length,) = _LEN.unpack_from(payload, offset)
        offset += _LEN.size
        value = payload[offset:offset + length].decode("utf-8")
        offset += length
    else:
        value = strings.lookup(index)
    return value.replace(_PH_HOME, home).replace(_PH_TRAP, trap), offset


def _pack_value(value, strings, home, trap, parts):
    """Append one typed audit value (string/int/pickle escape)."""
    if isinstance(value, str):
        if "\x00" in value:
            # A NUL would collide with the placeholder alphabet; ship
            # the raw text untouched and skip substitution on decode.
            blob = value.encode("utf-8")
            parts.append(bytes([_VAL_RAW]))
            parts.append(_LEN.pack(len(blob)))
            parts.append(blob)
        else:
            parts.append(bytes([_VAL_STR]))
            _pack_str(value, strings, home, trap, parts)
    elif isinstance(value, int) and not isinstance(value, bool) \
            and -2 ** 63 <= value < 2 ** 63:
        parts.append(bytes([_VAL_INT]))
        parts.append(_I64.pack(value))
    else:
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        parts.append(bytes([_VAL_PICKLE]))
        parts.append(_LEN.pack(len(blob)))
        parts.append(blob)


def _unpack_value(payload, offset, strings, home, trap):
    """Inverse of :func:`_pack_value`; returns ``(value, offset)``."""
    kind = payload[offset]
    offset += 1
    if kind == _VAL_STR:
        return _unpack_str(payload, offset, strings, home, trap)
    if kind == _VAL_INT:
        (value,) = _I64.unpack_from(payload, offset)
        return value, offset + _I64.size
    if kind == _VAL_RAW or kind == _VAL_PICKLE:
        (length,) = _LEN.unpack_from(payload, offset)
        offset += _LEN.size
        blob = payload[offset:offset + length]
        offset += length
        if kind == _VAL_RAW:
            return blob.decode("utf-8"), offset
        return pickle.loads(blob), offset
    raise WireProtocolError("unknown audit value type {}".format(kind))


def _encode_audit(audit, strings, sid, home, trap):
    """The audit section of a binary result record.

    Runner-emitted rows are fully reconstructible from ``(worker id,
    sid, row position)`` plus their payload fields, so the structured
    layout ships only ``severity``/``kind``/``record`` per row — each
    string as a shared-table index (:func:`audit_strings`) with the
    sid-derived path substrings in placeholder form.  Rows that do not
    match the runner's shape (foreign keys, lclock != sid, out-of-order
    sub counters) take the pickled escape; either way the section is
    self-describing via its leading flag byte.
    """
    structured = len(audit) <= 0xFFFF
    worker = audit[0].get("worker", 0) if audit else 0
    if structured and audit:
        if not isinstance(worker, int) or not 0 <= worker <= 0xFFFF:
            structured = False
        for position, row in enumerate(audit):
            if (
                not structured
                or not isinstance(row, dict)
                or frozenset(row) != _ROW_KEYS
                or row["worker"] != worker
                or row["lclock"] != sid
                or row["sub"] != position
                or not isinstance(row["severity"], str)
                or not isinstance(row["kind"], str)
                or not isinstance(row["record"], dict)
                or len(row["record"]) > 0xFF
                or not all(isinstance(key, str) for key in row["record"])
            ):
                structured = False
                break
    if not structured:
        blob = pickle.dumps(audit, protocol=pickle.HIGHEST_PROTOCOL)
        return b"".join([bytes([_AUDIT_PICKLED]), _LEN.pack(len(blob)), blob])
    parts = [bytes([_AUDIT_STRUCT]), _AUDIT_HEAD.pack(worker, len(audit))]
    for row in audit:
        _pack_str(row["severity"], strings, home, trap, parts)
        _pack_str(row["kind"], strings, home, trap, parts)
        record = row["record"]
        parts.append(bytes([len(record)]))
        for key, value in record.items():
            _pack_str(key, strings, home, trap, parts)
            _pack_value(value, strings, home, trap, parts)
    return b"".join(parts)


def _decode_audit(payload, offset, strings, sid, home, trap):
    """Inverse of :func:`_encode_audit`; returns ``(audit, offset)``.

    Structured rows are rebuilt with ``worker`` from the section head,
    ``lclock = sid``, and ``sub`` from row position — the three fields
    the encoder never shipped.
    """
    flag = payload[offset]
    offset += 1
    if flag == _AUDIT_PICKLED:
        (length,) = _LEN.unpack_from(payload, offset)
        offset += _LEN.size
        audit = pickle.loads(payload[offset:offset + length]) if length else []
        return audit, offset + length
    if flag != _AUDIT_STRUCT:
        raise WireProtocolError("unknown audit section flag {}".format(flag))
    worker, nrows = _AUDIT_HEAD.unpack_from(payload, offset)
    offset += _AUDIT_HEAD.size
    audit = []
    for position in range(nrows):
        severity, offset = _unpack_str(payload, offset, strings, home, trap)
        kind, offset = _unpack_str(payload, offset, strings, home, trap)
        nentries = payload[offset]
        offset += 1
        record = {}
        for _ in range(nentries):
            key, offset = _unpack_str(payload, offset, strings, home, trap)
            record[key], offset = _unpack_value(payload, offset, strings, home, trap)
        audit.append({
            "worker": worker,
            "lclock": sid,
            "sub": position,
            "severity": severity,
            "kind": kind,
            "record": record,
        })
    return audit, offset


def _abstract_step(step, home, trap):
    """A step tuple with its sid-derived substrings made symbolic.

    Returns the abstracted tuple (the codebook key), or ``None`` when
    the step cannot be abstracted safely: not a tuple of strings, or a
    string already containing a NUL (which would collide with the
    placeholder alphabet).  The step *kind* (element 0) is never
    substituted — kinds are fixed identifiers, not paths.
    """
    if not isinstance(step, tuple) or not step:
        return None
    for element in step:
        if not isinstance(element, str) or "\x00" in element:
            return None
    return (step[0],) + tuple(
        element.replace(home, _PH_HOME).replace(trap, _PH_TRAP)
        for element in step[1:]
    )


def _concrete_step(abstracted, home, trap):
    """Inverse of :func:`_abstract_step` for a given session id."""
    return (abstracted[0],) + tuple(
        element.replace(_PH_HOME, home).replace(_PH_TRAP, trap)
        for element in abstracted[1:]
    )


def _skeleton_key(spec):
    """Hashable identity of a spec minus its per-session fields.

    Returns ``None`` when the spec holds unhashable values (those specs
    take the whole-record pickle escape).
    """
    try:
        key = tuple(sorted(
            (key, value) for key, value in spec.items()
            if key not in ("sid", "steps")
        ))
        hash(key)
        return key
    except TypeError:
        return None


class SpecCodec:
    """Template-interning codec for generated session specs.

    ``templates`` is the picklable table :meth:`from_specs` builds from
    a stream — per-model spec *skeletons* (everything but ``sid`` and
    ``steps``) plus a *codebook* of abstracted step tuples.  The driver
    ships the table once in every worker's init payload; thereafter a
    spec crosses the pipe as a one-byte template id, the sid, and a
    ``uint16`` code per step.  A codec built with ``templates=None``
    has empty tables and escapes every record — correct, just not
    compact — so direct :class:`~repro.service.pool.ServicePool` users
    need not pre-scan their stream.
    """

    def __init__(self, templates=None):
        templates = templates or {"skeletons": [], "codebook": []}
        #: The picklable template table (ship this to workers).
        self.templates = templates
        self._skeletons = [dict(s) for s in templates["skeletons"]]
        self._codebook = [tuple(step) for step in templates["codebook"]]
        self._skeleton_ids = {}
        for index, skeleton in enumerate(self._skeletons):
            key = _skeleton_key(dict(skeleton, sid=0, steps=()))
            self._skeleton_ids[key] = index
        self._code_ids = {step: index for index, step in enumerate(self._codebook)}
        # Most generated steps carry no sid-derived substring at all
        # (the docroot stat chain, shared content reads), so their
        # abstracted form IS the concrete tuple.  Pre-splitting the
        # codebook lets encode/decode handle them with one dict/list
        # hit and no string substitution — the codec's hot path.
        self._static_ids = {
            step: index for step, index in self._code_ids.items()
            if not any(_PH_HOME in el or _PH_TRAP in el for el in step)
        }
        self._dynamic = [
            any(_PH_HOME in el or _PH_TRAP in el for el in step)
            for step in self._codebook
        ]

    @classmethod
    def from_specs(cls, specs):
        """Build a codec whose tables intern every spec in ``specs``.

        One pass: skeletons and abstracted steps are interned in first-
        appearance order, so equal streams build byte-identical tables
        (the differential suites rely on this determinism).  Streams
        richer than the table limits (255 skeletons / 65535 step
        shapes) simply leave the overflow to the escape path.
        """
        skeletons = []
        skeleton_ids = {}
        codebook = []
        code_ids = {}
        for spec in specs:
            key = _skeleton_key(spec)
            if key is not None and key not in skeleton_ids and len(skeletons) < _MAX_TEMPLATES:
                skeleton_ids[key] = len(skeletons)
                skeletons.append({
                    k: v for k, v in spec.items() if k not in ("sid", "steps")
                })
            sid = spec.get("sid")
            if not isinstance(sid, int):
                continue
            home = session_home(sid)
            trap = trap_path(sid)
            for step in spec.get("steps", ()):
                abstracted = _abstract_step(step, home, trap)
                if abstracted is not None and abstracted not in code_ids \
                        and len(codebook) < _MAX_CODES:
                    code_ids[abstracted] = len(codebook)
                    codebook.append(abstracted)
        return cls({"skeletons": skeletons, "codebook": codebook})

    def encode(self, spec):
        """One spec as a compact record (or a pickle escape).

        The interned layout is ``template_id(B) sid(I) nsteps(H)``,
        then ``nsteps`` ``uint16`` codes, then the pickled bodies of
        any escaped steps (code ``0xFFFF``) in step order, each with a
        ``<I`` length prefix.  Specs whose skeleton is not interned,
        whose sid exceeds ``u32``, or with more than 65534 steps take
        the whole-record escape: ``0xFF`` + pickle.
        """
        key = _skeleton_key(spec)
        template_id = self._skeleton_ids.get(key) if key is not None else None
        sid = spec.get("sid")
        steps = spec.get("steps")
        if (
            template_id is None
            or not isinstance(sid, int)
            or not 0 <= sid < 2 ** 32
            or not isinstance(steps, (list, tuple))
            or len(steps) >= _MAX_CODES
        ):
            return bytes([_SPEC_ESCAPE]) + pickle.dumps(
                spec, protocol=pickle.HIGHEST_PROTOCOL)
        home = session_home(sid)
        trap = trap_path(sid)
        codes = array("H")
        escapes = []
        static_ids = self._static_ids
        for step in steps:
            try:
                code = static_ids.get(step)
            except TypeError:  # unhashable contents -> escape path
                code = None
            if code is None:
                abstracted = _abstract_step(step, home, trap)
                if abstracted is not None:
                    code = self._code_ids.get(abstracted)
            if code is None:
                codes.append(_STEP_ESCAPE)
                blob = pickle.dumps(step, protocol=pickle.HIGHEST_PROTOCOL)
                escapes.append(_LEN.pack(len(blob)) + blob)
            else:
                codes.append(code)
        return b"".join([
            _SPEC_HEAD.pack(template_id, sid, len(codes)),
            codes.tobytes(),
        ] + escapes)

    def decode(self, payload):
        """Rebuild the spec dict :meth:`encode` serialized.

        Exact inverse — the decoded dict compares equal to the encoded
        one (the worker must execute precisely the session the driver
        admitted; the round trip is pinned by property tests).
        """
        if not payload:
            raise WireProtocolError("empty spec record")
        if payload[0] == _SPEC_ESCAPE:
            return pickle.loads(payload[1:])
        if len(payload) < _SPEC_HEAD.size:
            raise WireProtocolError("truncated spec record head")
        template_id, sid, nsteps = _SPEC_HEAD.unpack_from(payload, 0)
        if template_id >= len(self._skeletons):
            raise WireProtocolError(
                "template id {} outside the shipped table ({} entries)".format(
                    template_id, len(self._skeletons)))
        offset = _SPEC_HEAD.size
        codes = array("H")
        if offset + 2 * nsteps > len(payload):
            raise WireProtocolError("truncated spec step codes")
        codes.frombytes(payload[offset:offset + 2 * nsteps])
        offset += 2 * nsteps
        home = session_home(sid)
        trap = trap_path(sid)
        steps = []
        codebook = self._codebook
        dynamic = self._dynamic
        for code in codes:
            if code == _STEP_ESCAPE:
                if offset + _LEN.size > len(payload):
                    raise WireProtocolError("truncated step escape length")
                (length,) = _LEN.unpack_from(payload, offset)
                offset += _LEN.size
                steps.append(pickle.loads(payload[offset:offset + length]))
                offset += length
            else:
                if code >= len(codebook):
                    raise WireProtocolError(
                        "step code {} outside the shipped codebook".format(code))
                if dynamic[code]:
                    steps.append(_concrete_step(codebook[code], home, trap))
                else:
                    steps.append(codebook[code])
        spec = dict(self._skeletons[template_id])
        spec["sid"] = sid
        spec["steps"] = steps
        return spec


def step_kinds(spec):
    """The per-step op names of ``spec`` — what the driver retains to
    re-derive result verdict tuples (:func:`decode_result` never ships
    them back over the pipe)."""
    return [step[0] for step in spec["steps"]]


def encode_result(result, strings=None):
    """One session result as a compact record (or a pickle escape).

    Layout (after a one-byte ``binary``/``pickled`` flag):
    ``sid(I) nverdicts(H)``; a status table of the *non-ok* statuses
    appearing in the record (count byte, then length-prefixed utf-8);
    the exceptional verdicts as ``(index(H), status_index(B))`` pairs —
    every index not listed is ``"ok"``, the run-length-encoded common
    case; ``nlat(I)`` and the latency samples as a packed ``array('d')``
    buffer; ``mediations(I) drops(I)``; and the audit section —
    structured rows interned against the shared ``strings`` table
    (:func:`_encode_audit`), with a pickled escape for foreign row
    shapes.  Results that exceed a field range (e.g. 65535+ steps)
    fall back to the whole-record pickle escape byte.
    """
    verdicts = result["verdicts"]
    statuses = []
    status_ids = {}
    exceptions = []
    regular = (
        isinstance(result.get("sid"), int)
        and 0 <= result["sid"] < 2 ** 32
        and len(verdicts) < 0xFFFF
        and 0 <= result["mediations"] < 2 ** 32
        and 0 <= result["drops"] < 2 ** 32
    )
    if regular:
        for position, verdict in enumerate(verdicts):
            if (
                not isinstance(verdict, tuple)
                or len(verdict) != 3
                or verdict[0] != position
                or not isinstance(verdict[2], str)
            ):
                regular = False
                break
            status = verdict[2]
            if status == "ok":
                continue
            index = status_ids.get(status)
            if index is None:
                encoded = status.encode("utf-8")
                if len(encoded) > 0xFF or len(statuses) >= 0xFF:
                    regular = False
                    break
                index = status_ids[status] = len(statuses)
                statuses.append(encoded)
            exceptions.append((position, index))
    if not regular:
        return bytes([_RESULT_PICKLED]) + pickle.dumps(
            result, protocol=pickle.HIGHEST_PROTOCOL)
    latencies = array("d", result["latencies"])
    sid = result["sid"]
    audit_section = _encode_audit(
        result["audit"], strings if strings is not None else _EMPTY_STRINGS,
        sid, session_home(sid), trap_path(sid))
    parts = [
        bytes([_RESULT_BINARY]),
        _RESULT_HEAD.pack(result["sid"], len(verdicts)),
        bytes([len(statuses)]),
    ]
    for encoded in statuses:
        parts.append(bytes([len(encoded)]))
        parts.append(encoded)
    parts.append(struct.pack("<H", len(exceptions)))
    for position, index in exceptions:
        parts.append(struct.pack("<HB", position, index))
    parts.append(_LEN.pack(len(latencies)))
    parts.append(latencies.tobytes())
    parts.append(_RESULT_TAIL.pack(result["mediations"], result["drops"]))
    parts.append(audit_section)
    return b"".join(parts)


def decode_result(payload, kinds_by_sid, strings=None):
    """Rebuild a session result from its record.

    ``kinds_by_sid`` maps sid to the step-kind list of the spec the
    driver submitted (:func:`step_kinds`) — the verdict tuples are
    reconstituted as ``(index, kind, status)`` from it, which is the
    compression: ops never cross the pipe twice.  The record's verdict
    count must match the retained kind list exactly.  ``strings`` must
    be the same shared table the encoder used (both ends derive it
    from ``rules_text`` via :func:`audit_strings`).
    """
    if not payload:
        raise WireProtocolError("empty result record")
    if payload[0] == _RESULT_PICKLED:
        return pickle.loads(payload[1:])
    offset = 1
    sid, nverdicts = _RESULT_HEAD.unpack_from(payload, offset)
    offset += _RESULT_HEAD.size
    nstatuses = payload[offset]
    offset += 1
    statuses = []
    for _ in range(nstatuses):
        length = payload[offset]
        offset += 1
        statuses.append(payload[offset:offset + length].decode("utf-8"))
        offset += length
    (nexceptions,) = struct.unpack_from("<H", payload, offset)
    offset += 2
    exceptional = {}
    for _ in range(nexceptions):
        position, index = struct.unpack_from("<HB", payload, offset)
        offset += 3
        exceptional[position] = statuses[index]
    (nlatencies,) = _LEN.unpack_from(payload, offset)
    offset += _LEN.size
    latencies = array("d")
    latencies.frombytes(payload[offset:offset + 8 * nlatencies])
    offset += 8 * nlatencies
    mediations, drops = _RESULT_TAIL.unpack_from(payload, offset)
    offset += _RESULT_TAIL.size
    audit, offset = _decode_audit(
        payload, offset, strings if strings is not None else _EMPTY_STRINGS,
        sid, session_home(sid), trap_path(sid))
    if offset != len(payload):
        raise WireProtocolError(
            "{} trailing bytes after the result record".format(len(payload) - offset))
    kinds = kinds_by_sid[sid]
    if len(kinds) != nverdicts:
        raise WireProtocolError(
            "result for sid {} carries {} verdicts but the submitted spec "
            "had {} steps".format(sid, nverdicts, len(kinds)))
    verdicts = [
        (index, kinds[index], exceptional.get(index, "ok"))
        for index in range(nverdicts)
    ]
    return {
        "sid": sid,
        "verdicts": verdicts,
        "audit": audit,
        "latencies": list(latencies),
        "mediations": mediations,
        "drops": drops,
    }
