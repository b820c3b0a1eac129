"""Trace CSV parsing, serialization, and the synthetic generator."""

import hashlib
import io
import random
import sys
import tracemalloc
from itertools import chain
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from flowsketch import ingest
from flowsketch.ingest import (
    MAX_LENGTH_BYTES,
    TRACE_HEADER,
    WRITE_CHUNK_ROWS,
    AnomalyKind,
    AnomalyProfile,
    Label,
    PacketRecord,
    SyntheticProfile,
    TraceFormatError,
    format_ip,
    format_rows,
    generate_synthetic,
    parse_ip,
    parse_trace,
    parse_uint,
    read_csv,
    read_trace,
    trace_meta,
    write_csv,
    write_trace,
)

from conftest import make_packet

EXAMPLE_ROW = "1720000000000000000,10.0.0.1,192.168.0.2,443,51514,6,1500,123456789,benign"


def parse_rows(*rows):
    return list(parse_trace([TRACE_HEADER] + list(rows)))


def test_parse_example_row():
    (record,) = parse_rows(EXAMPLE_ROW)
    assert record.timestamp_ns == 1720000000000000000
    assert record.src_ip == 0x0A000001
    assert record.dst_ip == (192 << 24) | (168 << 16) | 2
    assert record.src_port == 443
    assert record.dst_port == 51514
    assert record.protocol == 6
    assert record.length_bytes == 1500
    assert record.tcp_seq == 123456789
    assert record.label is Label.BENIGN
    assert list(format_rows([record])) == [EXAMPLE_ROW]


def test_ip_round_trip():
    rng = random.Random(2)
    for _ in range(200):
        value = rng.getrandbits(32)
        assert parse_ip(format_ip(value)) == value
    with pytest.raises(ValueError):
        parse_ip("999.0.0.1")
    with pytest.raises(ValueError):
        parse_ip("1.2.3")
    with pytest.raises(ValueError):
        parse_ip("1.2.3.x")


def test_header_is_required():
    with pytest.raises(TraceFormatError) as err:
        list(parse_trace(["timestamp,stuff", EXAMPLE_ROW]))
    assert err.value.line_no == 1
    with pytest.raises(TraceFormatError):
        list(parse_trace([]))


def test_header_only_is_empty_trace():
    assert parse_rows() == []
    meta = trace_meta([])
    assert meta.record_count == 0 and meta.anomalous_count == 0


def test_timestamp_regression_reports_line():
    r1, r2 = format_rows([make_packet(ts=2000), make_packet(ts=1000)])
    with pytest.raises(TraceFormatError) as err:
        parse_rows(r1, r2)
    assert err.value.line_no == 3
    assert "regression" in str(err.value)


def test_equal_timestamps_allowed():
    (r,) = format_rows([make_packet(ts=2000)])
    assert len(parse_rows(r, r)) == 2


MALFORMED_ROWS = [
    ("1,2,3", "expected 9 fields, got 3"),  # wrong field count
    (EXAMPLE_ROW.replace("10.0.0.1", "300.0.0.1"), "bad IPv4 address '300.0.0.1'"),  # bad octet
    (EXAMPLE_ROW.replace("10.0.0.1", "10.0.0.256"), "bad IPv4 address '10.0.0.256'"),
    (EXAMPLE_ROW.replace(",443,", ",70000,"), "src_port out of range"),  # port out of range
    (EXAMPLE_ROW.replace(",6,", ",256,"), "protocol out of range"),
    (EXAMPLE_ROW.replace(",1500,", ",70000,"), "length_bytes out of range"),  # length out of range
    (EXAMPLE_ROW.replace("123456789", "4294967296"), "tcp_seq out of range"),
    (EXAMPLE_ROW.replace("benign", "normal"), "bad label 'normal'"),  # bad label
    (EXAMPLE_ROW + "\r\n", "bad label 'benign\\r'"),  # CRLF line ending
    (EXAMPLE_ROW.replace("1720000000000000000", "-5"), "non-canonical integer '-5'"),  # negative time
    (EXAMPLE_ROW.replace("1720000000000000000", "soon"), "non-canonical integer 'soon'"),  # not an integer
]


@pytest.mark.parametrize("row, message", MALFORMED_ROWS, ids=[row for row, _ in MALFORMED_ROWS])
def test_malformed_rows_report_line(row, message):
    with pytest.raises(TraceFormatError) as err:
        parse_rows(EXAMPLE_ROW, row)
    assert err.value.line_no == 3
    assert str(err.value) == f"line 3: {message}"


@pytest.mark.parametrize(
    "address", ["010.0.0.1", "10.0.0.01", "10.0.0.\u0661", "\uff11.0.0.1", "+1.0.0.1"]
)
def test_non_canonical_ip_reports_line(address):
    # leading zeros read as octal elsewhere; isdigit() admits non-ASCII digits
    assert parse_ip("0.10.100.255") == 0x000A64FF
    with pytest.raises(TraceFormatError) as err:
        parse_rows(EXAMPLE_ROW, EXAMPLE_ROW.replace("10.0.0.1", address))
    assert err.value.line_no == 3
    assert str(err.value) == f"line 3: bad IPv4 address {address!r}"


@pytest.mark.parametrize(
    "field, text",
    [
        (0, "1_000"),  # digit separator
        (3, "+5"),  # sign
        (4, "-0"),
        (5, " 6"),  # padding
        (6, "1500 "),
        (7, "0123"),  # leading zero
        (0, "\u0661"),  # non-ASCII digit
        (3, "\uff14\uff14\uff13"),
    ],
)
def test_non_canonical_integer_reports_line(field, text):
    assert parse_rows(EXAMPLE_ROW.replace(",6,", ",0,"))[0].protocol == 0
    fields = EXAMPLE_ROW.split(",")
    fields[field] = text
    with pytest.raises(TraceFormatError) as err:
        parse_rows(",".join(fields))
    assert err.value.line_no == 2
    assert str(err.value) == f"line 2: non-canonical integer {text!r}"


def reference_parse_trace(lines):
    """The per-field trace parser, kept as the reference for parse_trace:
    the read_csv framing and the build closure, each field checked by
    parse_uint, parse_ip or the label test, then the checked
    PacketRecord constructor."""
    prev_ts = -1

    def build(fields):
        nonlocal prev_ts
        label_text = fields[8]
        if label_text == "benign":
            label = Label.BENIGN
        elif label_text == "anomalous":
            label = Label.ANOMALOUS
        else:
            raise ValueError(f"bad label {label_text!r}")
        record = PacketRecord(
            timestamp_ns=parse_uint(fields[0]),
            src_ip=parse_ip(fields[1]),
            dst_ip=parse_ip(fields[2]),
            src_port=parse_uint(fields[3]),
            dst_port=parse_uint(fields[4]),
            protocol=parse_uint(fields[5]),
            length_bytes=parse_uint(fields[6]),
            tcp_seq=parse_uint(fields[7]),
            label=label,
        )
        if record.timestamp_ns < prev_ts:
            raise ValueError(f"timestamp regression: {record.timestamp_ns} after {prev_ts}")
        prev_ts = record.timestamp_ns
        return record

    width = TRACE_HEADER.count(",") + 1
    it = iter(lines)
    first = next(it, None)
    if first is None:
        raise TraceFormatError(1, "missing header")
    if first.rstrip("\n") != TRACE_HEADER:
        raise TraceFormatError(1, f"bad header: expected {TRACE_HEADER!r}")
    for line_no, raw in enumerate(it, 2):
        line = raw.rstrip("\n")
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != width:
            raise TraceFormatError(line_no, f"expected {width} fields, got {len(fields)}")
        try:
            row = build(fields)
        except ValueError as exc:
            raise TraceFormatError(line_no, str(exc)) from None
        yield row


FIELDS = ("timestamp_ns", "src_ip", "dst_ip", "src_port", "dst_port",
          "protocol", "length_bytes", "tcp_seq", "label")

# Texts at the edges of each field's grammar and range, and texts that
# only look like integers.
LOOKALIKES = ["", "+5", "-0", "1_0", " 6", "6 ", "\u0661", "1\u0661", "\uff16", "0x1", "00", "01"]
OCTET_EDGES = ["0", "9", "10", "99", "100", "199", "200", "249", "250", "255", "256", "00", "01"]
EDGES = {
    0: [str(10**18), str(10**19 - 1), str(10**19), str(2**64)],
    3: ["65535", "65536"],
    4: ["65535", "65536"],
    5: ["255", "256"],
    6: ["65535", "65536"],
    7: [str(2**32 - 1), str(2**32)],
    8: ["Benign", "ANOMALOUS", "benign\r", "benign ", ""],
}


@st.composite
def canonical_rows(draw):
    ts = draw(st.one_of(st.integers(0, 10**6), st.integers(10**18, 2**64)))
    return [
        str(ts),
        format_ip(draw(st.integers(0, 2**32 - 1))),
        format_ip(draw(st.integers(0, 2**32 - 1))),
        str(draw(st.integers(0, 2**16 - 1))),
        str(draw(st.integers(0, 2**16 - 1))),
        str(draw(st.integers(0, 2**8 - 1))),
        str(draw(st.integers(0, 65535))),
        str(draw(st.integers(0, 2**32 - 1))),
        draw(st.sampled_from(("benign", "anomalous"))),
    ]


@st.composite
def address_texts(draw):
    octets = [str(draw(st.integers(0, 255))) for _ in range(draw(st.sampled_from((3, 4, 4, 5))))]
    octets[draw(st.integers(0, len(octets) - 1))] = draw(st.sampled_from(OCTET_EDGES + LOOKALIKES))
    return ".".join(octets)


@st.composite
def trace_texts(draw, max_rows=6):
    """A trace text: canonical rows with at most a few one-field
    mutations, fields added or dropped, blank lines, a CR, equal or
    regressing timestamps, and an optional final newline."""
    rows = draw(st.lists(canonical_rows(), min_size=1, max_size=max_rows))
    if draw(st.booleans()):
        times = sorted(int(r[0]) for r in rows)
        if draw(st.booleans()):
            times = [times[0]] * len(times)
        for row, ts in zip(rows, times):
            row[0] = str(ts)
    if len(rows) > 1 and draw(st.booleans()):
        at = draw(st.integers(1, len(rows) - 1))
        rows[at][0] = str(max(0, int(rows[at - 1][0]) + draw(st.sampled_from((-1, 0, 1)))))
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.sampled_from(rows))
        field = draw(st.sampled_from(tuple(EDGES) + (1, 2)))
        if field in (1, 2):
            row[field] = draw(address_texts())
        else:
            row[field] = draw(st.sampled_from(EDGES[field]) | st.sampled_from(LOOKALIKES))
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
        at = draw(st.integers(0, len(lines) - 1))
        lines[at] = draw(st.sampled_from((
            lines[at] + "\r",
            lines[at] + ",0",
            lines[at].rsplit(",", 1)[0],
            "",
            " ",
        )))
    text = "\n".join([TRACE_HEADER] + lines)
    return text + "\n" if draw(st.booleans()) else text


def outcome(parser, text):
    """The records as field tuples, or the error's line and message."""
    try:
        return [tuple(getattr(r, f) for f in FIELDS) for r in parser(io.StringIO(text, newline=""))]
    except TraceFormatError as exc:
        return ("error", exc.line_no, str(exc))


@settings(max_examples=1500, deadline=None)
@given(trace_texts())
def test_parse_trace_matches_the_per_field_reference(text):
    assert outcome(parse_trace, text) == outcome(reference_parse_trace, text)


@settings(max_examples=1500, deadline=None)
@given(trace_texts(max_rows=20), st.integers(1, 3))
def test_chunked_parse_trace_matches_the_per_field_reference(text, chunk_rows):
    # Chunks of one to three lines put chunk boundaries, fallback chunks
    # and the timestamp carried between chunks all over a short trace.
    with mock.patch.object(ingest, "PARSE_CHUNK_ROWS", chunk_rows):
        assert outcome(parse_trace, text) == outcome(reference_parse_trace, text)


def chunk_outcome(text):
    """parse_trace_chunks' columns, each joined across the chunks, or
    the error's line and message."""
    try:
        chunks = list(ingest.parse_trace_chunks(io.StringIO(text, newline="")))
    except TraceFormatError as exc:
        return ("error", exc.line_no, str(exc))
    for chunk in chunks:
        assert 0 < len(chunk.timestamp_ns) <= ingest.PARSE_CHUNK_ROWS
        assert all(type(column) is list and len(column) == len(chunk.timestamp_ns) for column in chunk)
    return [list(chain.from_iterable(columns)) for columns in zip(*chunks)]


@settings(max_examples=500, deadline=None)
@given(trace_texts(max_rows=20), st.integers(1, 3))
def test_trace_chunks_are_the_per_field_reference_transposed(tmp_path_factory, text, chunk_rows):
    # The chunk parser's columns, joined, are the reference's records
    # column by column, and an error names the same line and message.
    # parse_trace and read_trace, built on it, match the reference too.
    want = outcome(reference_parse_trace, text)
    path = tmp_path_factory.getbasetemp() / "chunked_trace.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with mock.patch.object(ingest, "PARSE_CHUNK_ROWS", chunk_rows):
        got = chunk_outcome(text)
        assert outcome(parse_trace, text) == want
        try:
            read = [tuple(r) for r in read_trace(path)[0]]
        except TraceFormatError as exc:
            read = ("error", exc.line_no, str(exc))
    assert read == want
    if want and want[0] == "error":
        assert got == want
    else:
        assert got == [list(column) for column in zip(*want)]


def test_field_counts_that_only_sum_to_nine_per_row_are_rejected():
    # A 10-field line followed by an 8-field one splits into 18 fields,
    # and each column of those 18 holds valid values.
    text = (
        f"{TRACE_HEADER}\n"
        "1,10.0.0.1,10.0.0.2,1,2,6,60,0,benign,2\n"
        "10.0.0.1,10.0.0.2,1,2,6,60,0,benign\n"
    )
    assert outcome(parse_trace, text) == ("error", 2, "line 2: expected 9 fields, got 10")
    assert outcome(parse_trace, text) == outcome(reference_parse_trace, text)


A_ROW = "1,10.0.0.1,10.0.0.2,1,2,6,60,0,benign"


@pytest.mark.parametrize(
    "lines",
    [
        [A_ROW, A_ROW],  # no newlines
        [A_ROW + "\n\n", A_ROW],  # two newlines
        [A_ROW + "\n" + A_ROW + "\n"],  # two rows in one line
        [A_ROW + "\n," + A_ROW + "\n"],  # the same, joined as lines are
        [A_ROW + "\n," + A_ROW[:19], A_ROW[20:] + "\n"],  # a row across two lines
        [A_ROW + "\n", "", A_ROW + "\n"],  # an empty line
    ],
)
def test_lines_that_are_not_one_row_each_match_the_reference(lines):
    # parse_trace takes any iterable of strings; each string is a line.
    def result(parser):
        try:
            return list(parser([TRACE_HEADER, *lines]))
        except TraceFormatError as exc:
            return ("error", exc.line_no, str(exc))

    assert result(parse_trace) == result(reference_parse_trace)


@pytest.mark.parametrize("field", [0, 7])
def test_a_field_past_the_int_digit_limit_names_its_line(field):
    # int() refuses more than 4300 digits by default (the limit is 0
    # where it is off or absent); the error still names the line.
    fields = EXAMPLE_ROW.split(",")
    fields[field] = "9" * 5000
    text = f"{TRACE_HEADER}\n{','.join(fields)}\n"
    result = outcome(parse_trace, text)
    assert result == outcome(reference_parse_trace, text)
    if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000:
        assert result[:2] == ("error", 2)


def test_equal_field_texts_share_one_int():
    # Addresses, ports, protocols and lengths are read through tables
    # kept across chunks, so while a table holds fewer than
    # CONVERT_MEMO_MAX entries each distinct value is one int object.
    records = generate_synthetic(SyntheticProfile(flows=40, packets_per_flow=30), seed=3)
    text = "".join(line + "\n" for line in [TRACE_HEADER, *format_rows(records)])
    with mock.patch.object(ingest, "PARSE_CHUNK_ROWS", 7):
        parsed = list(parse_trace(io.StringIO(text, newline="")))
    assert parsed == records
    for columns in (("src_port", "dst_port"), ("protocol",), ("length_bytes",), ("src_ip", "dst_ip")):
        ids = {}
        for record in parsed:
            for name in columns:
                value = getattr(record, name)
                ids.setdefault(value, set()).add(id(value))
        assert max(ids) > 256 or columns == ("protocol",)
        assert all(len(seen) == 1 for seen in ids.values()), columns


def test_conversion_tables_stay_within_their_cap():
    # Far more distinct ports and lengths than the cap: each table is
    # cleared when full, and the records still match the reference.
    cap = 50
    rng = random.Random(8)
    rows = [
        f"{ts},10.0.{ts % 70}.1,10.0.0.2,{rng.randrange(65536)},{rng.randrange(65536)},6,"
        f"{rng.randrange(MAX_LENGTH_BYTES + 1)},0,benign"
        for ts in range(3000)
    ]
    text = "".join(line + "\n" for line in [TRACE_HEADER, *rows])
    sizes = []

    class Recording(ingest._Memo):
        __slots__ = ()

        def __missing__(self, key):
            value = super().__missing__(key)
            sizes.append(len(self))
            return value

    with mock.patch.object(ingest, "CONVERT_MEMO_MAX", cap), mock.patch.object(ingest, "_Memo", Recording):
        result = outcome(parse_trace, text)
    assert len(result) == 3000
    assert result == outcome(reference_parse_trace, text)
    assert max(sizes) == cap
    assert sizes.count(1) > 3000 // cap


def test_every_short_octet_text_matches_the_reference():
    # Every text of one to three ASCII digits, in each octet position.
    texts = [str(i) for i in range(1000)] + [f"{i:02d}" for i in range(100)] + [f"{i:03d}" for i in range(100)]
    for text in texts:
        for at in range(4):
            octets = ["1", "2", "3", "4"]
            octets[at] = text
            row = EXAMPLE_ROW.replace("10.0.0.1", ".".join(octets))
            trace = f"{TRACE_HEADER}\n{row}\n"
            assert outcome(parse_trace, trace) == outcome(reference_parse_trace, trace)


def reference_trace_text(records):
    """The trace text built one record at a time, each address
    formatted where it appears."""
    rows = [
        f"{r.timestamp_ns},{format_ip(r.src_ip)},{format_ip(r.dst_ip)},{r.src_port},{r.dst_port},"
        f"{r.protocol},{r.length_bytes},{r.tcp_seq},{r.label.value}\n"
        for r in records
    ]
    return TRACE_HEADER + "\n" + "".join(rows)


def mixed_records(seed, n, pool):
    """n time-sorted records of both labels, their addresses drawn from
    pool random values, or all distinct where pool is None."""
    rng = random.Random(seed)
    addresses = [rng.getrandbits(32) for _ in range(pool or 0)]

    def address():
        return rng.choice(addresses) if pool else rng.getrandbits(32)

    return [
        make_packet(ts=ts, src=address(), dst=address(), sport=rng.randrange(1 << 16),
                    dport=rng.randrange(1 << 16), proto=rng.randrange(1 << 8),
                    length=rng.randrange(MAX_LENGTH_BYTES + 1), seq=rng.getrandbits(32),
                    label=rng.choice((Label.BENIGN, Label.ANOMALOUS)))
        for ts in sorted(rng.randrange(10**19) for _ in range(n))
    ]


ROUND_TRIP_TRACES = {
    "portscan": lambda: generate_synthetic(
        SyntheticProfile(flows=12, packets_per_flow=40, anomaly=AnomalyProfile(AnomalyKind.PORT_SCAN)),
        seed=9,
    ),
    "empty": lambda: [],
    "one record": lambda: mixed_records(1, 1, None),
    "repeated addresses": lambda: mixed_records(2, WRITE_CHUNK_ROWS + 1, 3),
    "distinct addresses": lambda: mixed_records(3, 500, None),
}


def test_write_read_round_trip(tmp_path):
    path = tmp_path / "trace.csv"
    for name, make in ROUND_TRIP_TRACES.items():
        records = make()
        meta = write_trace(path, records)
        first = path.read_bytes()
        assert first == reference_trace_text(records).encode(), name
        assert meta == trace_meta(records)
        parsed, meta2 = read_trace(path)
        assert parsed == records
        assert all(type(r) is PacketRecord for r in parsed)
        assert meta2 == meta
        write_trace(path, parsed)
        assert path.read_bytes() == first


@pytest.mark.parametrize("n", [0, 1, WRITE_CHUNK_ROWS - 1, WRITE_CHUNK_ROWS, WRITE_CHUNK_ROWS + 1])
def test_write_csv_chunk_edges(tmp_path, n):
    lines = [f"{i},{'x' * (i % 7)}" for i in range(n)]
    path = tmp_path / "rows.csv"
    # Any iterable of lines, a one-pass generator included.
    write_csv(path, "n,text", (line for line in lines))
    assert path.read_bytes() == "".join(line + "\n" for line in ["n,text"] + lines).encode()
    with open(path, encoding="utf-8", newline="") as fh:
        assert list(read_csv(fh, "n,text", ",".join)) == lines


def test_trace_meta_counts():
    records = [
        make_packet(ts=5),
        make_packet(ts=9, label=Label.ANOMALOUS),
        make_packet(ts=12),
    ]
    meta = trace_meta(records)
    assert meta.record_count == 3
    assert meta.first_ts_ns == 5
    assert meta.last_ts_ns == 12
    assert meta.anomalous_count == 1


def test_generate_is_deterministic():
    profile = SyntheticProfile(flows=8, packets_per_flow=20)
    a = generate_synthetic(profile, seed=4)
    b = generate_synthetic(profile, seed=4)
    assert a == b
    assert generate_synthetic(profile, seed=5) != a


def test_generate_counts_and_sortedness():
    profile = SyntheticProfile(flows=7, packets_per_flow=13)
    records = generate_synthetic(profile, seed=1)
    assert len(records) == 7 * 13
    assert all(r.label is Label.BENIGN for r in records)
    times = [r.timestamp_ns for r in records]
    assert times == sorted(times)
    assert all(0 <= t < profile.duration_ns for t in times)


def test_generate_flood_count_and_window():
    # 50x the per-flow rate over a tenth of the trace: 50 * 200 * 0.1.
    profile = SyntheticProfile(
        flows=10,
        packets_per_flow=200,
        duration_ns=10_000_000_000,
        anomaly=AnomalyProfile(AnomalyKind.FLOOD, rate_multiplier=50.0,
                               window_start=0.4, window_stop=0.5),
    )
    records = generate_synthetic(profile, seed=6)
    expected = round(50.0 * 200 * (0.5 - 0.4))
    anomalous = [r for r in records if r.label is Label.ANOMALOUS]
    assert len(anomalous) == expected == 1000
    assert trace_meta(records).anomalous_count == expected
    src = {r.src_ip for r in anomalous}
    assert len(src) == 1
    lo = int(0.4 * profile.duration_ns)
    hi = int(0.5 * profile.duration_ns)
    assert all(lo <= r.timestamp_ns < hi for r in anomalous)
    # the flood source sends nothing outside its window
    attack_src = src.pop()
    assert all(r.label is Label.ANOMALOUS for r in records if r.src_ip == attack_src)


def test_generate_portscan_sweeps_ports():
    profile = SyntheticProfile(
        flows=4,
        packets_per_flow=100,
        anomaly=AnomalyProfile(AnomalyKind.PORT_SCAN, rate_multiplier=20.0),
    )
    records = generate_synthetic(profile, seed=2)
    scan = [r for r in records if r.label is Label.ANOMALOUS]
    assert len(scan) == round(20.0 * 100 * 0.1)
    ports = {r.dst_port for r in scan}
    assert len(ports) == len(scan)  # distinct ports while sweeping
    assert 0 not in ports


def test_generate_periodic_spacing():
    profile = SyntheticProfile(flows=5, packets_per_flow=50, timing="periodic",
                               duration_ns=10_000_000_000)
    records = generate_synthetic(profile, seed=3)
    period = profile.duration_ns // profile.packets_per_flow
    by_src = {}
    for r in records:
        by_src.setdefault(r.src_ip, []).append(r.timestamp_ns)
    assert len(by_src) == 5
    for times in by_src.values():
        gaps = {b - a for a, b in zip(times, times[1:])}
        assert gaps == {period}
        assert times[-1] < profile.duration_ns


def test_generate_portless_protocols():
    profile = SyntheticProfile(flows=60, packets_per_flow=2)
    records = generate_synthetic(profile, seed=8)
    protos = {r.protocol for r in records}
    assert protos <= {1, 6, 17}
    assert 1 in protos  # seed chosen to cover ICMP
    for r in records:
        if r.protocol == 1:
            assert r.src_port == 0 and r.dst_port == 0 and r.tcp_seq == 0
        if r.protocol == 17:
            assert r.tcp_seq == 0


def test_generate_validation():
    with pytest.raises(ValueError):
        generate_synthetic(SyntheticProfile(duration_ns=0), seed=0)
    with pytest.raises(ValueError):
        generate_synthetic(SyntheticProfile(flows=-1), seed=0)
    with pytest.raises(ValueError):
        generate_synthetic(SyntheticProfile(packets_per_flow=0), seed=0)
    with pytest.raises(ValueError):
        generate_synthetic(SyntheticProfile(timing="bursty"), seed=0)
    bad_window = AnomalyProfile(AnomalyKind.FLOOD, window_start=0.5, window_stop=0.5)
    with pytest.raises(ValueError):
        generate_synthetic(SyntheticProfile(anomaly=bad_window), seed=0)
    past_end = AnomalyProfile(AnomalyKind.FLOOD, window_start=0.9, window_stop=1.1)
    with pytest.raises(ValueError):
        generate_synthetic(SyntheticProfile(anomaly=past_end), seed=0)
    with pytest.raises(ValueError):
        generate_synthetic(
            SyntheticProfile(anomaly=AnomalyProfile(AnomalyKind.FLOOD, rate_multiplier=0.0)),
            seed=0,
        )


def test_packet_record_validation():
    with pytest.raises(ValueError):
        make_packet(ts=-1)
    with pytest.raises(ValueError):
        make_packet(src=1 << 32)
    with pytest.raises(ValueError):
        make_packet(sport=-2)
    with pytest.raises(ValueError):
        make_packet(proto=256)
    with pytest.raises(ValueError):
        make_packet(length=65536)
    with pytest.raises(ValueError):
        make_packet(seq=1 << 32)
    with pytest.raises(ValueError):
        PacketRecord(0, 0, 0, 0, 0, 0, 0, 0, "benign")


def reference_generate_synthetic(profile, seed):
    """The generator with every record built by the checked PacketRecord
    constructor, kept as the reference for generate_synthetic: the same
    random draws, call for call, and the same records or the same
    ValueError."""
    if profile.duration_ns <= 0:
        raise ValueError("profile duration must be positive")
    if profile.flows < 0:
        raise ValueError("flow count must be nonnegative")
    if profile.flows > 0 and profile.packets_per_flow < 1:
        raise ValueError("packets_per_flow must be at least 1")
    if profile.timing not in ("uniform", "periodic"):
        raise ValueError(f"unknown timing mode {profile.timing!r}")
    if profile.timing == "periodic" and profile.flows > 0 and profile.duration_ns < profile.packets_per_flow:
        raise ValueError("periodic timing needs duration_ns >= packets_per_flow")
    anomaly = profile.anomaly
    if anomaly is not None:
        if not 0.0 <= anomaly.window_start < anomaly.window_stop <= 1.0:
            raise ValueError("anomaly window must satisfy 0 <= start < stop <= 1")
        if anomaly.rate_multiplier <= 0:
            raise ValueError("anomaly rate_multiplier must be positive")

    benign_src_base = parse_ip("10.0.0.1")
    dst_base = parse_ip("192.168.0.1")
    rng = random.Random(seed)
    rows = []
    for i in range(profile.flows):
        src = (benign_src_base + i) & 0xFFFFFFFF
        dst = (dst_base + rng.randrange(16)) & 0xFFFFFFFF
        proto_pick = rng.random()
        protocol = 6 if proto_pick < 0.7 else 17 if proto_pick < 0.95 else 1
        if protocol == 1:
            src_port = dst_port = 0
        else:
            src_port = rng.randrange(1024, 65536)
            dst_port = rng.choice((80, 443, 53, 8080))
        seq = rng.randrange(1 << 32) if protocol == 6 else 0
        count = profile.packets_per_flow
        if profile.timing == "uniform":
            times = sorted(rng.randrange(profile.duration_ns) for _ in range(count))
        else:
            period = profile.duration_ns // count
            phase = rng.randrange(period)
            times = [phase + j * period for j in range(count)]
        for ts in times:
            rows.append((ts, src, dst, src_port, dst_port, protocol,
                         rng.choice((60, 576, 1500)), seq, Label.BENIGN))
            if protocol == 6:
                seq = (seq + 1) & 0xFFFFFFFF
    if anomaly is not None:
        lo = int(anomaly.window_start * profile.duration_ns)
        hi = int(anomaly.window_stop * profile.duration_ns)
        span = anomaly.window_stop - anomaly.window_start
        count = round(anomaly.rate_multiplier * profile.packets_per_flow * span)
        times = sorted(lo + rng.randrange(hi - lo) for _ in range(count))
        seq = rng.randrange(1 << 32)
        for j, ts in enumerate(times):
            dst_port = 80 if anomaly.kind is AnomalyKind.FLOOD else 1 + (j % 65535)
            rows.append((ts, parse_ip("10.255.255.254"), dst_base, 40000, dst_port, 6,
                         60, (seq + j) & 0xFFFFFFFF, Label.ANOMALOUS))
    rows.sort(key=lambda row: row[0])
    return [PacketRecord(profile.start_ts_ns + ts, *fields) for ts, *fields in rows]


@st.composite
def synthetic_profiles(draw):
    """Small profiles of either timing and anomaly kind, zero flows
    included, starting anywhere from well before 0 to well after it."""
    duration = draw(st.integers(1, 10**6))
    anomaly = None
    if draw(st.booleans()):
        stop = draw(st.sampled_from((0.1, 0.5, 1.0)))
        anomaly = AnomalyProfile(
            kind=draw(st.sampled_from(AnomalyKind)),
            rate_multiplier=draw(st.sampled_from((0.5, 3.0, 20.0))),
            window_start=draw(st.sampled_from((0.0, 0.05, 0.4))) * stop,
            window_stop=stop,
        )
    return SyntheticProfile(
        flows=draw(st.sampled_from((1, 2, 5, 0))),
        packets_per_flow=draw(st.integers(1, 12)),
        duration_ns=duration,
        timing=draw(st.sampled_from(("uniform", "periodic"))),
        start_ts_ns=draw(st.one_of(
            st.integers(-duration, duration),
            st.integers(-(duration // 32), 0),
            st.integers(-(2**40), 2**40),
        )),
        anomaly=anomaly,
    )


def generated(profile, seed, generate):
    try:
        return generate(profile, seed)
    except ValueError as exc:
        return ("error", str(exc))


@settings(max_examples=600, deadline=None)
@given(synthetic_profiles(), st.integers(0, 2**32))
def test_generate_matches_the_checked_reference(profile, seed):
    records = generated(profile, seed, generate_synthetic)
    assert records == generated(profile, seed, reference_generate_synthetic)
    if isinstance(records, list):
        for record in records:
            assert type(record) is PacketRecord
            assert record == PacketRecord(*record)
            assert type(record.label) is Label


# The seed-1 traces of the benchmark workloads, with the SHA-256 of the
# bytes write_trace writes for each.  A change to the generator or the
# writer that alters any of them fails here.
WORKLOAD_TRACES = {
    "flood_narrow": (
        SyntheticProfile(
            flows=250, packets_per_flow=200, duration_ns=10_000_000_000,
            anomaly=AnomalyProfile(AnomalyKind.FLOOD, 50.0, 0.4, 0.5),
        ),
        "dd58fad143fe3df083308ead30e729f4d45ec61f48f89bf1324f765a3dcaffdd",
    ),
    "wide_sparse": (
        SyntheticProfile(
            flows=200, packets_per_flow=100, duration_ns=4_000_000_000,
            anomaly=AnomalyProfile(AnomalyKind.FLOOD, 50.0, 0.5, 0.6),
        ),
        "0930d2ac49914e30475314af03d4470a4832dcd5b63e34b210d90ae932bd1d7e",
    ),
    "scan_5tuple": (
        SyntheticProfile(
            flows=32000, packets_per_flow=2, duration_ns=10_000_000_000,
            anomaly=AnomalyProfile(AnomalyKind.PORT_SCAN, 200000.0, 0.4, 0.5),
        ),
        "9d3f903110932dc6e55e460d78c1c2206aa84e685b56b9023120e111d7caa39c",
    ),
}


@pytest.mark.parametrize("name", sorted(WORKLOAD_TRACES))
def test_workload_trace_bytes_are_pinned(tmp_path, name):
    profile, digest = WORKLOAD_TRACES[name]
    path = tmp_path / f"{name}.csv"
    records = generate_synthetic(profile, seed=1)
    write_trace(path, records)
    first = path.read_bytes()
    assert hashlib.sha256(first).hexdigest() == digest
    # Reading the trace back gives the same records, and writing those
    # gives the same bytes.
    parsed, _ = read_trace(path)
    assert parsed == records
    write_trace(path, parsed)
    assert path.read_bytes() == first


def test_parse_holds_little_beyond_its_records(tmp_path):
    # The flood_narrow trace (51,000 rows): the chunks' field texts are
    # transient and small next to the records they become.
    profile, _ = WORKLOAD_TRACES["flood_narrow"]
    path = tmp_path / "trace.csv"
    write_trace(path, generate_synthetic(profile, seed=1))
    tracemalloc.start()
    try:
        records, _ = read_trace(path)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == 51_000
    assert peak - retained < 2 * 2**20
