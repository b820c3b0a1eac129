"""Shared builders for tests."""

from __future__ import annotations

import random

from flowsketch.detectors import EpochVerdicts, Verdict, Verdicts
from flowsketch.ingest import PARSE_CHUNK_ROWS, Label, PacketRecord, TraceColumns, parse_ip
from flowsketch.sketch import EpochSnapshot, StageCell


def make_packet(
    ts: int = 0,
    src: str | int = "10.0.0.1",
    dst: str | int = "192.168.0.1",
    sport: int = 1234,
    dport: int = 80,
    proto: int = 6,
    length: int = 60,
    seq: int = 0,
    label: Label = Label.BENIGN,
) -> PacketRecord:
    return PacketRecord(
        timestamp_ns=ts,
        src_ip=parse_ip(src) if isinstance(src, str) else src,
        dst_ip=parse_ip(dst) if isinstance(dst, str) else dst,
        src_port=sport,
        dst_port=dport,
        protocol=proto,
        length_bytes=length,
        tcp_seq=seq,
        label=label,
    )


def column_chunks(records, rows: int = PARSE_CHUNK_ROWS) -> list[TraceColumns]:
    """The records as column chunks of up to rows rows each, as
    parse_trace_chunks yields a trace."""
    return [
        TraceColumns(*map(list, zip(*records[lo : lo + rows])))
        for lo in range(0, len(records), rows)
    ]


def random_records(
    rng: random.Random,
    n: int,
    span_ns: int = 5_000_000_000,
    pool: int = 8,
    anomalous_rate: float = 0.0,
) -> list[PacketRecord]:
    """Fully random packets from a small address pool, sorted by time."""
    times = sorted(rng.randrange(span_ns) for _ in range(n))
    out = []
    for ts in times:
        label = Label.ANOMALOUS if rng.random() < anomalous_rate else Label.BENIGN
        out.append(
            make_packet(
                ts=ts,
                src=rng.randrange(1, pool + 1),
                dst=rng.randrange(1, pool + 1) << 8,
                sport=rng.randrange(1024, 1024 + pool),
                dport=rng.choice((80, 443, 53)),
                proto=rng.choice((6, 17)),
                length=rng.choice((60, 576, 1500)),
                seq=rng.randrange(1 << 20),
                label=label,
            )
        )
    return out


def count_snapshot(epoch_index: int, pkt_counts: list[int]) -> EpochSnapshot:
    """Snapshot of len(pkt_counts) buckets holding the given packet
    counts, with byte sums derived so byte features stay consistent.
    As in the sketch, a bucket with no packets is untouched and absent."""
    buckets = tuple(b for b, c in enumerate(pkt_counts) if c)
    cells = tuple(
        StageCell(pkt_count=c, byte_sum=100 * c, byte_min=100, byte_max=100)
        for c in pkt_counts
        if c
    )
    return EpochSnapshot(
        epoch_index, epoch_index * 1_000_000_000, True, len(pkt_counts), buckets, cells
    )


def dense_cells(stage: dict[int, StageCell], bucket_count: int) -> list[StageCell]:
    """All bucket_count cells of a sparse stage, an untouched one as
    StageCell()."""
    return [stage.get(b, StageCell()) for b in range(bucket_count)]


def dense_verdicts(verdicts, bucket_count: int | None = None) -> list[Verdict]:
    """The dense view of verdicts, the reference the tests compare with:
    one verdict per (bucket, epoch), epoch by epoch in bucket order.

    verdicts is an EpochVerdicts, a Verdicts, or the rows of a verdict
    file with the bucket count of its epochs.  The rows are read in file
    order and their layout is checked: per epoch, explicit verdicts in
    strictly ascending bucket order within range, then exactly one
    shared row (bucket None) of the same detector and epoch, which
    stands for every other bucket.
    """
    if isinstance(verdicts, EpochVerdicts):
        verdicts = Verdicts((verdicts,))
    if isinstance(verdicts, Verdicts) and bucket_count is None:
        bucket_count = verdicts.epochs[0].bucket_count if verdicts.epochs else 0
    out: list[Verdict] = []
    explicit: list[Verdict] = []
    for v in verdicts:
        if v.bucket is not None:
            assert not explicit or explicit[-1].bucket < v.bucket, "explicit rows out of order"
            explicit.append(v)
            continue
        assert all(e[:2] == v[:2] for e in explicit), "explicit row outside its epoch"
        assert all(0 <= e.bucket < bucket_count for e in explicit), "bucket out of range"
        own = {e.bucket: e for e in explicit}
        out.extend(own.get(b) or v._replace(bucket=b) for b in range(bucket_count))
        explicit = []
    assert not explicit, "explicit rows with no shared row after them"
    return out
