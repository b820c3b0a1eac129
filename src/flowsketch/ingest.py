"""Packet trace ingestion and generation, and the CSV codec.

Traces are CSV files with a fixed header, one packet per row, sorted by
timestamp.  This module parses and serializes that format (round-trips
are byte-identical) and provides a seeded synthetic trace generator
that can inject labeled flood and port-scan anomalies.  The framing
helpers (read_csv, write_csv, csv_line) serve every CSV format in the
package: traces, snapshots, verdicts and sweep reports, one row a
line; parse_uint and parse_float read all of their numbers in the one
canonical form.

parse_trace_chunks, the one trace parser, reads a trace
PARSE_CHUNK_ROWS lines at a time and yields each chunk as a
TraceColumns, nine lists named as PacketRecord's fields.  It joins a
chunk's lines with commas and splits the text once; each line must
end with a newline, which only a label field may hold, so a checked
label column pins every line to nine fields.  Each column is checked by
C-level calls: a canonical-integer regex over the joined timestamps and
tcp_seq values, then int(); lookup tables for addresses, ports,
protocols, lengths and labels; max() for the tcp_seq range; sorted()
for the timestamp order, carried over from the previous chunk.  Each
distinct address, port, protocol or length text is converted and range
checked on first use, so equal texts share one int; a table is cleared
when it reaches CONVERT_MEMO_MAX entries, so that a high-cardinality
trace does not grow it without bound.  A chunk that fails any check
goes through the per-field parsers line by line, which name the line
and its first bad field in the error.  parse_trace is a thin adapter
that turns the chunks into records, immutable tuples.
"""

from __future__ import annotations

import enum
import math
import random
import re
from functools import partial
from itertools import chain, cycle, islice, repeat
from operator import attrgetter, countOf, itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TypeVar

TRACE_HEADER = "timestamp_ns,src_ip,dst_ip,src_port,dst_port,protocol,length_bytes,tcp_seq,label"

# The bit width of each integer field after the timestamp, in file
# order: a field's value must lie in [0, 2**width).
FIELD_BITS = {
    "src_ip": 32,
    "dst_ip": 32,
    "src_port": 16,
    "dst_port": 16,
    "protocol": 8,
    "length_bytes": 16,
    "tcp_seq": 32,
}

MAX_LENGTH_BYTES = (1 << FIELD_BITS["length_bytes"]) - 1

# Rows joined into one string per write call by write_csv.
WRITE_CHUNK_ROWS = 4096

_PROTO_TCP = 6
_PROTO_UDP = 17
_PROTO_ICMP = 1


class Label(enum.Enum):
    BENIGN = "benign"
    ANOMALOUS = "anomalous"


class _PacketFields(NamedTuple):
    timestamp_ns: int
    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    protocol: int
    length_bytes: int
    tcp_seq: int
    label: Label


def _checked_fields(
    timestamp_ns: int,
    src_ip: int,
    dst_ip: int,
    src_port: int,
    dst_port: int,
    protocol: int,
    length_bytes: int,
    tcp_seq: int,
    label: Label,
) -> tuple:
    """The nine fields of a packet as a plain tuple, each checked."""
    if timestamp_ns < 0:
        raise ValueError("timestamp_ns must be nonnegative")
    fields = (src_ip, dst_ip, src_port, dst_port, protocol, length_bytes, tcp_seq)
    for (name, bits), value in zip(FIELD_BITS.items(), fields):
        if not 0 <= value < (1 << bits):
            raise ValueError(f"{name} out of range")
    if not isinstance(label, Label):
        raise ValueError("label must be a Label")
    return (timestamp_ns, *fields, label)


class PacketRecord(_PacketFields):
    """One observed packet, an immutable tuple of its nine fields.
    Addresses and ports are plain integers; ports and tcp_seq are 0
    where the protocol has none.

    The constructor checks every field.  TraceColumns.records, whose
    columns parse_trace_chunks has already checked, and
    generate_synthetic, whose fields are in range by construction,
    build records with tuple.__new__ instead.
    The inherited _make and _replace skip the checks too; nothing in
    this package calls them.  Being tuples, records compare equal to
    plain tuples of the same fields."""

    __slots__ = ()

    def __new__(cls, *fields, **named) -> "PacketRecord":
        return tuple.__new__(cls, _checked_fields(*fields, **named))


class TraceColumns(NamedTuple):
    """One chunk of a trace as nine equal-length lists, named as
    PacketRecord's fields: row i of the chunk is the packet whose fields
    are the lists' items i.  In a chunk from parse_trace_chunks every
    value is checked as PacketRecord checks it, and the timestamps do
    not fall below each other or the previous chunk's."""

    timestamp_ns: list[int]
    src_ip: list[int]
    dst_ip: list[int]
    src_port: list[int]
    dst_port: list[int]
    protocol: list[int]
    length_bytes: list[int]
    tcp_seq: list[int]
    label: list[Label]

    def records(self) -> Iterator[PacketRecord]:
        """The chunk's rows as records, in order."""
        return map(tuple.__new__, repeat(PacketRecord), zip(*self))


class TraceMeta(NamedTuple):
    """Summary of a trace: row count, time span, anomalous row count."""

    record_count: int
    first_ts_ns: int
    last_ts_ns: int
    anomalous_count: int


class TraceFormatError(ValueError):
    """Malformed CSV input: a trace, snapshot, verdict or report file.
    line_no is 1-based and counts the header."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


_Row = TypeVar("_Row")


def _csv_body(lines: Iterable[str], header: str) -> Iterator[str]:
    """Check the header line; return an iterator over the lines after
    it, the first of which is line 2."""
    it = iter(lines)
    first = next(it, None)
    if first is None:
        raise TraceFormatError(1, "missing header")
    if first.removesuffix("\n") != header:
        raise TraceFormatError(1, f"bad header: expected {header!r}")
    return it


def _build_row(line_no: int, raw: str, width: int, build: Callable[[list[str]], _Row]) -> _Row:
    """build(fields) of one row, the line less at most one trailing
    newline.  A wrong field count, a blank line's one field included, or
    any ValueError raised by build, becomes a TraceFormatError naming
    the line."""
    fields = raw.removesuffix("\n").split(",")
    if len(fields) != width:
        raise TraceFormatError(line_no, f"expected {width} fields, got {len(fields)}")
    try:
        return build(fields)
    except ValueError as exc:
        raise TraceFormatError(line_no, str(exc)) from None


def read_csv(
    lines: Iterable[str], header: str, build: Callable[[list[str]], _Row],
    end: Callable[[], None] | None = None,
) -> Iterator[_Row]:
    """Parse header-first CSV lines, yielding build(fields) per row.

    Each line is one row, less at most one trailing newline: the header
    must match exactly, and every other line must have as many fields as
    the header, so a blank line is refused.  end(), if given, runs
    after the last line.  Any ValueError, one raised by build or end
    included, becomes a TraceFormatError naming the 1-based line (for
    end, the last).
    """
    width = header.count(",") + 1
    line_no = 1
    for line_no, raw in enumerate(_csv_body(lines, header), 2):
        yield _build_row(line_no, raw, width, build)
    if end is not None:
        try:
            end()
        except ValueError as exc:
            raise TraceFormatError(line_no, str(exc)) from None


def write_csv(path, header: str, lines: Iterable[str]) -> None:
    """Write the header and then each line, every one ended by a
    newline, WRITE_CHUNK_ROWS lines to a write call."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        it = iter(lines)
        while chunk := list(islice(it, WRITE_CHUNK_ROWS)):
            fh.write("\n".join(chunk) + "\n")


def _csv_field(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def csv_line(*values) -> str:
    """One CSV row: None is an empty field, booleans are true/false, and
    anything else is str(), which round-trips ints and floats."""
    return ",".join(map(_csv_field, values))


def parse_uint(text: str) -> int:
    """Parse a nonnegative integer in the one form str() writes: ASCII
    digits with no sign, separator, padding or leading zero."""
    if text.isdigit() and text.isascii() and (text[0] != "0" or text == "0"):
        return int(text)
    raise ValueError(f"non-canonical integer {text!r}")


def opt_int(text: str) -> int | None:
    return None if text == "" else parse_uint(text)


def parse_float(text: str) -> float:
    """Parse a float in the one form str() writes, repr(): no sign on a
    positive value, separator, padding or exponent where repr() has none,
    and no trailing zero.  inf and -inf are accepted; nan is not."""
    try:
        value = float(text)
    except ValueError:
        pass
    else:
        if value == value and repr(value) == text:
            return value
    raise ValueError(f"non-canonical float {text!r}")


def opt_float(text: str) -> float | None:
    return None if text == "" else parse_float(text)


def parse_flag(text: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise ValueError(f"bad boolean flag {text!r}")


def format_ip(value: int) -> str:
    return f"{(value >> 24) & 255}.{(value >> 16) & 255}.{(value >> 8) & 255}.{value & 255}"


# The canonical spelling of every octet: ASCII digits, no leading zeros.
_OCTETS = {str(i): i for i in range(256)}


def parse_ip(text: str) -> int:
    """Parse a dotted-quad IPv4 address in the canonical form format_ip
    writes.  Leading zeros (ambiguous: some parsers read them as octal)
    and non-ASCII digits are rejected."""
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"bad IPv4 address {text!r}")
    value = 0
    for part in parts:
        octet = _OCTETS.get(part)
        if octet is None:
            raise ValueError(f"bad IPv4 address {text!r}")
        value = (value << 8) | octet
    return value


# A conversion table is cleared once it holds this many entries, so a
# high-cardinality trace keeps its memory bounded either way.
CONVERT_MEMO_MAX = 4096


class _Memo(dict):
    """key -> convert(key), each distinct key converted on first use, so
    equal keys share one result while they stay in the table.  The table
    is cleared when it holds limit entries and a new key comes."""

    __slots__ = ("convert", "limit")

    def __init__(self, convert: Callable, limit: int):
        super().__init__()
        self.convert = convert
        self.limit = limit

    def __missing__(self, key):
        if len(self) >= self.limit:
            self.clear()
        value = self[key] = self.convert(key)
        return value


class _Record:
    """Base of the package's records that are classes, not tuples: the
    fields are the instance's attributes, in the order __init__ sets
    them.  Two records are equal when they are of the same class and
    their fields are; the repr names every field.  A record is mutable
    and so unhashable unless its class says otherwise."""

    __hash__ = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__name__}({fields})"


# Label -> text, keyed by the member's identity: hashing an Enum member
# is a Python-level call.
_LABEL_TEXTS = {id(label): label.value for label in Label}


def format_rows(records: Iterable[PacketRecord]) -> Iterator[str]:
    """Each record's trace row.  Addresses repeat, so each distinct one
    is formatted once per call."""
    addresses = _Memo(format_ip, CONVERT_MEMO_MAX)
    labels = _LABEL_TEXTS
    for ts, src, dst, src_port, dst_port, protocol, length, seq, label in records:
        yield (
            f"{ts},{addresses[src]},{addresses[dst]},{src_port},{dst_port},"
            f"{protocol},{length},{seq},{labels[id(label)]}"
        )


# Lines parsed together by parse_trace.  A chunk's field texts live only
# while it is parsed, so small chunks keep them small next to the
# records.
PARSE_CHUNK_ROWS = 1024

# A column of integers joined by commas, each in the canonical form
# parse_uint accepts: ASCII digits with no sign, separator, padding or
# leading zero.
_UINT_COLUMN = re.compile(r"(?:0|[1-9][0-9]*)(?:,(?:0|[1-9][0-9]*))*", re.ASCII)
_LABELS = {label.value: label for label in Label}
# Each label with the newline that ends its line.
_LABEL_LINES = {text + "\n": label for text, label in _LABELS.items()}


def _uint_below(limit: int, text: str) -> int:
    value = parse_uint(text)
    if value >= limit:
        raise ValueError(f"{value} is not below {limit}")
    return value


def parse_trace_chunks(lines: Iterable[str]) -> Iterator[TraceColumns]:
    """Parse trace CSV lines into column chunks, validating as it goes:
    one TraceColumns per PARSE_CHUNK_ROWS lines, each line one row as
    read_csv frames it.

    Raises TraceFormatError (with the offending line number) on a bad
    header, malformed fields, out-of-range values, or a timestamp
    regression; the chunk holding the bad line is not yielded.
    """
    prev_ts = -1

    def build(fields: list[str]) -> tuple:
        # The per-field path, for every line of a chunk that the column
        # checks turn down: its error names the first bad field.
        nonlocal prev_ts
        label = _LABELS.get(fields[8])
        if label is None:
            raise ValueError(f"bad label {fields[8]!r}")
        row = _checked_fields(
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
        if row[0] < prev_ts:
            raise ValueError(f"timestamp regression: {row[0]} after {prev_ts}")
        prev_ts = row[0]
        return row

    # Addresses, ports, protocols and lengths take few values: each
    # distinct text is checked and converted on first use, and equal
    # texts share one int.  The two port fields share one table, as they
    # share one width.
    addresses = _Memo(parse_ip, CONVERT_MEMO_MAX)
    ports = _Memo(partial(_uint_below, 1 << FIELD_BITS["src_port"]), CONVERT_MEMO_MAX)
    protocols = _Memo(partial(_uint_below, 1 << FIELD_BITS["protocol"]), CONVERT_MEMO_MAX)
    lengths = _Memo(partial(_uint_below, 1 << FIELD_BITS["length_bytes"]), CONVERT_MEMO_MAX)

    def columns(chunk: list[str]) -> TraceColumns | None:
        """The chunk's nine columns, converted and checked; None unless
        every line is one canonical row in range and the timestamps do
        not fall below prev_ts or each other."""
        count = len(chunk)
        # A line's own newline is optional (the per-field path strips it).
        if not chunk[-1].endswith("\n"):
            chunk[-1] += "\n"
        if not all(map(str.endswith, chunk, repeat("\n"))):
            return None
        # The fields of the joined text are those of the lines in turn,
        # and only a label passes its check while holding a newline.  So
        # with a newline ending each line, nine fields a line and a
        # checked label column pin each line to one row; the field count
        # alone does not (a 10-field line then an 8-field one give 18).
        fields = ",".join(chunk).split(",")
        if len(fields) != 9 * count:
            return None
        ts, src, dst, src_port, dst_port, protocol, length, seq, label = (
            fields[i::9] for i in range(9)
        )
        if not (_UINT_COLUMN.fullmatch(",".join(ts)) and _UINT_COLUMN.fullmatch(",".join(seq))):
            return None
        try:
            # int() raises ValueError past its digit limit.
            ts = list(map(int, ts))
            seq = list(map(int, seq))
            parsed = TraceColumns(
                ts,
                list(map(addresses.__getitem__, src)),
                list(map(addresses.__getitem__, dst)),
                list(map(ports.__getitem__, src_port)),
                list(map(ports.__getitem__, dst_port)),
                list(map(protocols.__getitem__, protocol)),
                list(map(lengths.__getitem__, length)),
                seq,
                list(map(_LABEL_LINES.__getitem__, label)),
            )
        except (KeyError, ValueError):
            return None
        if prev_ts <= ts[0] and ts == sorted(ts) and max(seq) < (1 << FIELD_BITS["tcp_seq"]):
            return parsed
        return None

    width = TRACE_HEADER.count(",") + 1
    it = _csv_body(lines, TRACE_HEADER)
    line_no = 2
    while chunk := list(islice(it, PARSE_CHUNK_ROWS)):
        parsed = columns(chunk)
        if parsed is not None:
            prev_ts = parsed.timestamp_ns[-1]
            yield parsed
        else:
            rows = [_build_row(line_no + offset, raw, width, build) for offset, raw in enumerate(chunk)]
            yield TraceColumns(*map(list, zip(*rows)))
        line_no += len(chunk)


def parse_trace(lines: Iterable[str]) -> Iterator[PacketRecord]:
    """Parse trace CSV lines into records: parse_trace_chunks' rows, in
    order, with its checks and errors."""
    return chain.from_iterable(map(TraceColumns.records, parse_trace_chunks(lines)))


def trace_meta(records: Sequence[PacketRecord]) -> TraceMeta:
    if not records:
        return TraceMeta(0, 0, 0, 0)
    anomalous = countOf(map(attrgetter("label"), records), Label.ANOMALOUS)
    return TraceMeta(len(records), records[0].timestamp_ns, records[-1].timestamp_ns, anomalous)


def open_trace(path):
    """Open a trace file for parse_trace."""
    return open(path, "r", encoding="utf-8", newline="")


def read_trace(path) -> tuple[list[PacketRecord], TraceMeta]:
    with open_trace(path) as fh:
        records = list(parse_trace(fh))
    return records, trace_meta(records)


def write_trace(path, records: Sequence[PacketRecord]) -> TraceMeta:
    write_csv(path, TRACE_HEADER, format_rows(records))
    return trace_meta(records)


class AnomalyKind(enum.Enum):
    FLOOD = "flood"
    PORT_SCAN = "portscan"


class AnomalyProfile(NamedTuple):
    """Injected attack burst.  The window is a fraction of the trace
    duration; packet count is rate_multiplier times the benign per-flow
    rate over that window."""

    kind: AnomalyKind
    rate_multiplier: float = 50.0
    window_start: float = 0.4
    window_stop: float = 0.5


class SyntheticProfile(NamedTuple):
    """Shape of a generated trace.

    timing selects how each benign flow spaces its packets: "uniform"
    draws offsets uniformly over the duration, "periodic" sends one
    packet every duration/packets_per_flow with a random phase.
    """

    flows: int = 10
    packets_per_flow: int = 100
    duration_ns: int = 10_000_000_000
    timing: str = "uniform"
    start_ts_ns: int = 0
    anomaly: AnomalyProfile | None = None


# generate_synthetic refuses a profile whose trace would hold more
# packets than this, before any draw.
MAX_TRACE_PACKETS = 1 << 24

_BENIGN_SRC_BASE = parse_ip("10.0.0.1")
_DST_BASE = parse_ip("192.168.0.1")
_ATTACK_SRC = parse_ip("10.255.255.254")
_BENIGN_LENGTHS = (60, 576, 1500)
# generate_synthetic's rows name their label by its index here.
_ROW_LABELS = (Label.BENIGN, Label.ANOMALOUS)
_ROW_BENIGN, _ROW_ANOMALOUS = range(2)


def _randranges(rng: random.Random, n: int, count: int) -> list[int]:
    """count values of rng.randrange(n), draw for draw.  randrange(n)
    takes getrandbits(n.bit_length()) until a value falls below n, so
    the values below n among the next need such draws are the next
    values it returns: each round draws once for every value still
    needed, keeps those below n, and draws again only for the rest."""
    if n < 1:
        raise ValueError(f"no value below {n} to draw")
    bits = n.bit_length()
    values: list[int] = []
    need = count
    while need > 0:
        drawn = list(filter(n.__gt__, map(rng.getrandbits, repeat(bits, need))))
        values += drawn
        need -= len(drawn)
    return values


def _tcp_seqs(first: int, count: int) -> Iterator[int]:
    """count successive tcp_seq values from first, wrapping at 2**32."""
    mask = 0xFFFFFFFF
    return map(mask.__and__, range(first, first + count))


def _flow_times(rng: random.Random, profile: SyntheticProfile) -> Sequence[int]:
    """One benign flow's packet offsets, ascending.  Uniform timing
    sorts packets_per_flow values of randrange(duration_ns), drawn in
    bulk; periodic timing sends one packet every duration_ns //
    packets_per_flow from a phase drawn below that period, so every
    packet falls inside the trace."""
    count = profile.packets_per_flow
    duration = profile.duration_ns
    if profile.timing == "uniform":
        times = _randranges(rng, duration, count)
        times.sort()
        return times
    period = duration // count
    phase = rng.randrange(period)
    return range(phase, phase + count * period, period)


def generate_synthetic(profile: SyntheticProfile, seed: int) -> list[PacketRecord]:
    """Generate a timestamp-sorted labeled trace.

    Pure function of (profile, seed): the same arguments always produce
    the identical record sequence.  Each flow's per-packet draws (its
    offsets, then its lengths) and the anomaly's offsets are taken in
    bulk, and match one randrange or choice call per packet exactly, so
    they rest only on random() and getrandbits.
    """
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
    # An int comparison, so that no count reaches a float before it is
    # known to be within the budget.
    if profile.packets_per_flow > MAX_TRACE_PACKETS:
        raise ValueError(
            f"packets_per_flow {profile.packets_per_flow} exceeds the budget of"
            f" {MAX_TRACE_PACKETS} packets"
        )
    anomaly = profile.anomaly
    anomaly_count = 0
    if anomaly is not None:
        if not 0.0 <= anomaly.window_start < anomaly.window_stop <= 1.0:
            raise ValueError("anomaly window must satisfy 0 <= start < stop <= 1")
        if anomaly.rate_multiplier <= 0:
            raise ValueError("anomaly rate_multiplier must be positive")
        if not math.isfinite(anomaly.rate_multiplier):
            raise ValueError(f"anomaly rate_multiplier must be finite, got {anomaly.rate_multiplier}")
        try:
            lo = int(anomaly.window_start * profile.duration_ns)
            hi = int(anomaly.window_stop * profile.duration_ns)
        except OverflowError:
            raise ValueError("duration_ns is too large for the anomaly window's float bounds") from None
        span = anomaly.window_stop - anomaly.window_start
        expected = anomaly.rate_multiplier * profile.packets_per_flow * span
        # A finite multiplier can still make the product infinite, which
        # round() would not take.
        if expected > MAX_TRACE_PACKETS:
            raise ValueError(
                f"anomaly packet count {expected:g} exceeds the budget of {MAX_TRACE_PACKETS} packets"
            )
        anomaly_count = round(expected)
        if anomaly_count > 0 and hi <= lo:
            raise ValueError(
                f"anomaly window [{lo}, {hi}) ns is empty at duration_ns={profile.duration_ns}"
            )
    total = profile.flows * profile.packets_per_flow + max(anomaly_count, 0)
    if total > MAX_TRACE_PACKETS:
        raise ValueError(f"trace of {total} packets exceeds the budget of {MAX_TRACE_PACKETS} packets")

    rng = random.Random(seed)
    # Rows are (offset, fields...) tuples; records are built only after
    # the sort, so they (and their timestamps) sit in memory in stream
    # order and a pass over the trace reads memory sequentially.  A row
    # holds its label as an index into _ROW_LABELS: a row of ints only
    # is untracked by the cyclic garbage collector once it survives a
    # collection, so the collections during generation walk the records
    # alone, not the rows as well.
    rows: list[tuple] = []

    for i in range(profile.flows):
        src = (_BENIGN_SRC_BASE + i) & 0xFFFFFFFF
        dst = (_DST_BASE + rng.randrange(16)) & 0xFFFFFFFF
        proto_pick = rng.random()
        if proto_pick < 0.7:
            protocol = _PROTO_TCP
        elif proto_pick < 0.95:
            protocol = _PROTO_UDP
        else:
            protocol = _PROTO_ICMP
        if protocol == _PROTO_ICMP:
            src_port = dst_port = 0
        else:
            src_port = rng.randrange(1024, 65536)
            dst_port = rng.choice((80, 443, 53, 8080))
        seq = rng.randrange(1 << 32) if protocol == _PROTO_TCP else 0
        times = _flow_times(rng, profile)
        # choice(_BENIGN_LENGTHS) is _BENIGN_LENGTHS[randrange(3)].
        picks = _randranges(rng, len(_BENIGN_LENGTHS), len(times))
        rows += zip(
            times, repeat(src), repeat(dst), repeat(src_port), repeat(dst_port), repeat(protocol),
            map(_BENIGN_LENGTHS.__getitem__, picks),
            _tcp_seqs(seq, len(times)) if protocol == _PROTO_TCP else repeat(0),
            repeat(_ROW_BENIGN),
        )

    if anomaly is not None:
        offsets = _randranges(rng, hi - lo, anomaly_count) if anomaly_count > 0 else []
        times = sorted(map(lo.__add__, offsets))
        seq = rng.randrange(1 << 32)
        if anomaly.kind is AnomalyKind.FLOOD:
            dst_ports = repeat(80)
        else:
            # Packet j goes to port 1 + j % 65535.
            dst_ports = cycle(range(1, 65536))
        rows += zip(
            times, repeat(_ATTACK_SRC), repeat(_DST_BASE), repeat(40000), dst_ports,
            repeat(_PROTO_TCP), repeat(60), _tcp_seqs(seq, len(times)), repeat(_ROW_ANOMALOUS),
        )

    rows.sort(key=itemgetter(0))
    start = profile.start_ts_ns
    # Every field but the timestamp is in range by construction:
    # addresses and tcp_seq are masked; ports, protocols and lengths are
    # constants or drawn from in-range choices.  Offsets are nonnegative,
    # so only the earliest timestamp can be negative.  The records are
    # therefore built like parse_trace builds them, unchecked.
    if rows and start + rows[0][0] < 0:
        raise ValueError("timestamp_ns must be nonnegative")
    new = tuple.__new__
    labels = _ROW_LABELS
    return [
        new(PacketRecord, (start + ts, src, dst, src_port, dst_port, protocol, length, seq, labels[label]))
        for ts, src, dst, src_port, dst_port, protocol, length, seq, label in rows
    ]
