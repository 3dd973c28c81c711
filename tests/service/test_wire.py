"""Wire codec unit + property tests: framing, interning, results.

The binary data plane's contract is *losslessness*: whatever spec the
driver submits, the worker must decode the identical dict; whatever
result the worker produces, the driver must reconstruct it exactly —
compact layouts for the generated shapes, escape hatches for everything
else.  These tests pin both halves, plus the frame format's loud
failure on malformed input and the WireCounters bookkeeping the
benchmark columns read.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import MetricsRegistry
from repro.obs.service import WireCounters
from repro.service import wire
from repro.workloads.generators import (
    generate_stream,
    service_rules_text,
    session_home,
    trap_path,
)


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------

def test_frame_round_trip_empty_and_multi():
    assert wire.unpack_frame(wire.pack_frame(wire.FRAME_FIN)) == (wire.FRAME_FIN, [])
    payloads = [b"", b"a", b"\x00" * 17, b"record"]
    kind, out = wire.unpack_frame(wire.pack_frame(wire.FRAME_RUN, payloads))
    assert kind == wire.FRAME_RUN
    assert out == payloads


@given(st.lists(st.binary(max_size=200), max_size=20),
       st.sampled_from([wire.FRAME_RUN, wire.FRAME_RESULT, wire.FRAME_SNAPSHOT]))
@settings(max_examples=50, deadline=None)
def test_frame_round_trip_property(payloads, kind):
    assert wire.unpack_frame(wire.pack_frame(kind, payloads)) == (kind, payloads)


def test_frame_rejects_bad_magic_version_and_truncation():
    good = wire.pack_frame(wire.FRAME_RUN, [b"xy"])
    with pytest.raises(wire.WireProtocolError, match="magic"):
        wire.unpack_frame(b"ZZ" + good[2:])
    with pytest.raises(wire.WireProtocolError, match="version"):
        wire.unpack_frame(good[:2] + bytes([wire.WIRE_VERSION + 1]) + good[3:])
    with pytest.raises(wire.WireProtocolError, match="truncated"):
        wire.unpack_frame(good[:-1])
    with pytest.raises(wire.WireProtocolError, match="trailing"):
        wire.unpack_frame(good + b"!")
    with pytest.raises(wire.WireProtocolError, match="header"):
        wire.unpack_frame(b"PW")


def test_frame_record_count_is_bounded():
    with pytest.raises(wire.WireProtocolError, match="u16"):
        wire.pack_frame(wire.FRAME_RUN, [b""] * 0x10000)


# ----------------------------------------------------------------------
# spec interning
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def stream():
    return generate_stream(60, seed=0xC0DE)


@pytest.fixture(scope="module")
def codec(stream):
    return wire.SpecCodec.from_specs(stream)


def test_spec_codec_is_lossless_and_compact(stream, codec):
    encoded = [codec.encode(spec) for spec in stream]
    assert [codec.decode(record) for record in encoded] == stream
    # The generated stream interns completely: no whole-spec escapes,
    # and far fewer bytes than pickling each ("run", spec).
    assert not any(record[0] == 0xFF for record in encoded)
    pickled = sum(
        len(pickle.dumps(("run", spec), protocol=pickle.HIGHEST_PROTOCOL))
        for spec in stream)
    assert sum(len(record) for record in encoded) * 3 < pickled


def test_spec_codec_tables_are_deterministic(stream):
    first = wire.SpecCodec.from_specs(stream).templates
    second = wire.SpecCodec.from_specs(list(stream)).templates
    assert first == second


def test_spec_codec_escapes_foreign_specs(codec):
    foreign = {"sid": 1, "steps": [("open_read", "/no/such/template")],
               "model": "custom", "comm": "x", "binary": "/x",
               "label": "bin_t", "nfiles": 0, "extra": [1, 2]}
    assert codec.decode(codec.encode(foreign)) == foreign
    # Unknown steps inside a known skeleton take the per-step escape.
    spec = dict(codec.decode(codec.encode({
        "sid": 2, "model": "apache", "comm": "apache2",
        "binary": "/usr/bin/apache2", "label": "httpd_t", "nfiles": 2,
        "steps": [("stat", "/var/www"), ("weird", "/var/www", 3, None)],
    })))
    assert spec["steps"][1] == ("weird", "/var/www", 3, None)


def test_empty_codec_still_round_trips(stream):
    blank = wire.SpecCodec()
    for spec in stream[:5]:
        assert blank.decode(blank.encode(spec)) == spec


def test_spec_decode_rejects_unknown_template_and_code(stream, codec):
    record = codec.encode(stream[0])
    with pytest.raises(wire.WireProtocolError, match="template"):
        wire.SpecCodec().decode(record)
    bad = bytearray(record)
    # Overwrite the first step code with an out-of-table value.
    bad[wire._SPEC_HEAD.size:wire._SPEC_HEAD.size + 2] = (0xFFFE).to_bytes(2, "little")
    with pytest.raises(wire.WireProtocolError, match="codebook"):
        codec.decode(bytes(bad))


# ----------------------------------------------------------------------
# result records
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def strings():
    return wire.StringTable(wire.audit_strings(service_rules_text()))


def _result(sid, kinds, statuses=None, latencies=(), audit=(),
            mediations=7, drops=0):
    statuses = statuses or ["ok"] * len(kinds)
    return {
        "sid": sid,
        "verdicts": [(i, kinds[i], statuses[i]) for i in range(len(kinds))],
        "audit": list(audit),
        "latencies": list(latencies),
        "mediations": mediations,
        "drops": drops,
    }


#: A real rule text from the service rule base — present in the shared
#: string table, so rows carrying it must intern rather than inline.
_RULE_TEXT = next(
    entry for entry in wire.audit_strings(service_rules_text())
    if entry.startswith("pftables "))


def _audit_row(sid, sub, path, worker=3):
    return {
        "worker": worker, "lclock": sid, "sub": sub,
        "severity": "warning", "kind": "drop",
        "record": {"pid": 0, "comm": "apache2", "op": "LNK_FILE_READ",
                   "syscall": "open", "path": path,
                   "rule": _RULE_TEXT},
    }


def test_result_round_trip_plain(strings):
    kinds = ["open_read", "stat", "trap_open", "getpid"]
    result = _result(9, kinds, ["ok", "ok", "PFDenied", "ok"],
                     latencies=[0.001, 0.002, 0.5], drops=1)
    payload = wire.encode_result(result, strings)
    assert payload[0] == 1  # compact layout, not the pickle escape
    assert wire.decode_result(payload, {9: kinds}, strings) == result


def test_result_round_trip_with_audit(strings):
    sid = 4
    kinds = ["trap_open", "trap_open"]
    audit = [_audit_row(sid, 0, trap_path(sid)),
             _audit_row(sid, 1, session_home(sid) + "/f0")]
    result = _result(sid, kinds, ["PFDenied", "PFDenied"],
                     latencies=[0.1, 0.2], audit=audit, drops=2)
    payload = wire.encode_result(result, strings)
    assert payload[0] == 1
    decoded = wire.decode_result(payload, {sid: kinds}, strings)
    assert decoded == result
    # The matched-rule text crossed as a table index, not inline text.
    assert b"pftables" not in payload


def test_result_foreign_audit_rows_escape(strings):
    sid = 5
    kinds = ["stat"]
    # lclock disagreeing with the sid breaks the reconstruction
    # invariant, so the whole audit section must take the pickle path.
    audit = [dict(_audit_row(sid, 0, "/etc/passwd"), lclock=sid + 1)]
    result = _result(sid, kinds, audit=audit)
    decoded = wire.decode_result(
        wire.encode_result(result, strings), {sid: kinds}, strings)
    assert decoded == result


def test_result_irregular_shape_takes_whole_record_escape(strings):
    result = {"sid": "not-an-int", "verdicts": [], "audit": [],
              "latencies": [], "mediations": 0, "drops": 0}
    payload = wire.encode_result(result, strings)
    assert payload[0] == 0
    assert wire.decode_result(payload, {}, strings) == result


def test_result_verdict_count_mismatch_is_loud(strings):
    kinds = ["stat", "stat"]
    payload = wire.encode_result(_result(2, kinds), strings)
    with pytest.raises(wire.WireProtocolError, match="steps"):
        wire.decode_result(payload, {2: ["stat"]}, strings)


@given(
    sid=st.integers(min_value=0, max_value=2 ** 32 - 1),
    nsteps=st.integers(min_value=0, max_value=40),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_result_round_trip_property(sid, nsteps, data, strings):
    kinds = ["open_read", "stat", "append", "getpid"]
    step_kinds = [kinds[i % len(kinds)] for i in range(nsteps)]
    statuses = data.draw(st.lists(
        st.sampled_from(["ok", "PFDenied", "ENOENT", "EACCES"]),
        min_size=nsteps, max_size=nsteps))
    latencies = data.draw(st.lists(
        st.floats(min_value=0, max_value=10, allow_nan=False),
        max_size=10))
    result = _result(sid, step_kinds, statuses, latencies,
                     drops=statuses.count("PFDenied"))
    decoded = wire.decode_result(
        wire.encode_result(result, strings), {sid: step_kinds}, strings)
    assert decoded == result


# ----------------------------------------------------------------------
# the shared audit string table
# ----------------------------------------------------------------------

def test_audit_strings_is_deterministic_and_covers_rules():
    rules_text = service_rules_text()
    table = wire.audit_strings(rules_text)
    assert table == wire.audit_strings(rules_text)
    assert any(entry.startswith("pftables ") for entry in table)
    assert "warning" in table and "drop" in table and "open" in table
    # Without a rule base the fixed vocabulary still stands alone.
    fixed = wire.audit_strings(None)
    assert set(fixed) <= set(table)


def test_string_table_lookup_bounds():
    table = wire.StringTable(["a", "b"])
    assert table.index("b") == 1
    assert table.index("zzz") is None
    assert table.lookup(0) == "a"
    with pytest.raises(wire.WireProtocolError, match="outside"):
        table.lookup(7)


def test_result_without_table_still_round_trips():
    sid = 6
    kinds = ["trap_open"]
    audit = [_audit_row(sid, 0, trap_path(sid))]
    result = _result(sid, kinds, ["PFDenied"], audit=audit, drops=1)
    decoded = wire.decode_result(
        wire.encode_result(result), {sid: kinds})
    assert decoded == result


# ----------------------------------------------------------------------
# WireCounters
# ----------------------------------------------------------------------

def test_wire_counters_merge_and_metrics():
    driver = WireCounters()
    driver.observe_frame("tx", "run", 100, sessions=4)
    driver.observe_frame("rx", "result", 60, sessions=4)
    driver.observe_encode(0.25)
    worker = WireCounters()
    worker.observe_frame("rx", "run", 100, sessions=4)
    worker.observe_decode(0.5)
    merged = WireCounters().merge(driver).merge(worker.as_dict())
    assert merged.frames["tx"]["run"] == 1
    assert merged.frames["rx"] == {"result": 1, "run": 1}
    assert merged.bytes == {"tx": 100, "rx": 160}
    assert merged.sessions == {"tx": 4, "rx": 8}
    assert merged.encode_s == 0.25 and merged.decode_s == 0.5
    registry = MetricsRegistry(enabled=True)
    merged.to_metrics(registry, "driver")
    prom = registry.to_prometheus()
    assert 'pf_service_wire_frames_total{dir="tx",endpoint="driver",kind="run"} 1' in prom
    assert 'pf_service_wire_bytes_total{dir="rx",endpoint="driver"} 160' in prom
