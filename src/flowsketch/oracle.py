"""Exact per-flow reference statistics.

ExactTracker replays a stream with unbounded memory, keeping one
FlowStats per (flow key, epoch) on the same epoch grid a sketch would
use.  It exists to check sketches: in a collision-free bucket the
sketch cell must equal the single flow's stats exactly, and in general
a cell must equal the merge of every flow hashing into it.  It takes
packet records, one at a time.

The tracker deliberately re-derives everything from first principles
(its own epoch arithmetic, its own accumulation) rather than reusing
sketch internals: neither sketch.EpochClock nor the update loop.  No
command imports this module; the tests and the benchmark's reference
do.
"""

from __future__ import annotations

from typing import Iterator

from .hashing import FlowKey, extract_key, shift_xor_hash
from .ingest import Label, PacketRecord
from .sketch import SketchConfig, StageCell


class FlowStats(StageCell):
    """Exact metrics of one flow within one epoch.  Inter-arrival gaps
    are measured between consecutive packets of the same flow in the
    same epoch, so iat_count == max(pkt_count - 1, 0).  The flow's key
    and epoch are keyword-only and follow the nine metrics."""

    def __init__(self, *metrics, key: FlowKey, epoch_index: int, **named):
        super().__init__(*metrics, **named)
        self.key = key
        self.epoch_index = epoch_index

    def observe(self, timestamp_ns: int, length_bytes: int) -> None:
        self.pkt_count += 1
        self.byte_sum += length_bytes
        if self.byte_min is None or length_bytes < self.byte_min:
            self.byte_min = length_bytes
        if self.byte_max is None or length_bytes > self.byte_max:
            self.byte_max = length_bytes
        if self.last_ts_ns is not None:
            gap = timestamp_ns - self.last_ts_ns
            self.iat_sum_ns += gap
            self.iat_count += 1
            if self.iat_min_ns is None or gap < self.iat_min_ns:
                self.iat_min_ns = gap
            if self.iat_max_ns is None or gap > self.iat_max_ns:
                self.iat_max_ns = gap
        self.last_ts_ns = timestamp_ns


def merge_flow_stats(flows: list[FlowStats]) -> StageCell:
    """Combine per-flow stats into the cell a shared bucket would hold.

    Counts and sums add, minima and maxima combine, last_ts_ns is the
    latest.  Cross-flow gaps are not synthesized: the merged iat fields
    aggregate each flow's own gaps, which matches how a sketch cell
    accumulates interleaved flows only when a single flow occupies the
    bucket.  Order-independent.
    """
    cell = StageCell()
    for fs in flows:
        cell.pkt_count += fs.pkt_count
        cell.byte_sum += fs.byte_sum
        if fs.byte_min is not None and (cell.byte_min is None or fs.byte_min < cell.byte_min):
            cell.byte_min = fs.byte_min
        if fs.byte_max is not None and (cell.byte_max is None or fs.byte_max > cell.byte_max):
            cell.byte_max = fs.byte_max
        if fs.last_ts_ns is not None and (cell.last_ts_ns is None or fs.last_ts_ns > cell.last_ts_ns):
            cell.last_ts_ns = fs.last_ts_ns
        cell.iat_sum_ns += fs.iat_sum_ns
        cell.iat_count += fs.iat_count
        if fs.iat_min_ns is not None and (cell.iat_min_ns is None or fs.iat_min_ns < cell.iat_min_ns):
            cell.iat_min_ns = fs.iat_min_ns
        if fs.iat_max_ns is not None and (cell.iat_max_ns is None or fs.iat_max_ns > cell.iat_max_ns):
            cell.iat_max_ns = fs.iat_max_ns
    return cell


class ExactTracker:
    """Unbounded-memory ground truth for one sketch configuration."""

    def __init__(self, config: SketchConfig):
        self._config = config
        self._t0: int | None = None
        self._last_ts: int | None = None
        self._flows: dict[tuple[FlowKey, int], FlowStats] = {}
        self._by_bucket: dict[tuple[int, int], list[FlowStats]] = {}
        self._buckets: dict[FlowKey, int] = {}
        self._anomalous: set[tuple[FlowKey, int]] = set()
        self._max_epoch = -1

    @property
    def config(self) -> SketchConfig:
        return self._config

    @property
    def epoch_count(self) -> int:
        """Number of epochs touched so far (the last may be partial)."""
        return self._max_epoch + 1

    def update(self, packet: PacketRecord) -> None:
        ts = packet.timestamp_ns
        if self._last_ts is not None and ts < self._last_ts:
            raise ValueError(f"timestamp regression: {ts} after {self._last_ts}")
        self._last_ts = ts
        if self._t0 is None:
            self._t0 = ts
        epoch = (ts - self._t0) // self._config.epoch_ns
        if epoch > self._max_epoch:
            self._max_epoch = epoch
        key = extract_key(packet, self._config.key_spec)
        fs = self._flows.get((key, epoch))
        if fs is None:
            fs = FlowStats(key=key, epoch_index=epoch)
            self._flows[(key, epoch)] = fs
            self._by_bucket.setdefault((self.bucket_of(key), epoch), []).append(fs)
        fs.observe(ts, packet.length_bytes)
        if packet.label is Label.ANOMALOUS:
            self._anomalous.add((key, epoch))

    def bucket_of(self, key: FlowKey) -> int:
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = shift_xor_hash(key, self._config.hash_width)
        return bucket

    def flows(self) -> Iterator[FlowStats]:
        return iter(self._flows.values())

    def keys_in_epoch(self, epoch_index: int) -> list[FlowKey]:
        return [k for (k, e) in self._flows if e == epoch_index]

    def flows_in_bucket(self, bucket: int, epoch_index: int) -> list[FlowStats]:
        return list(self._by_bucket.get((bucket, epoch_index), ()))

    def collision_free(self, bucket: int, epoch_index: int) -> bool:
        """True when at most one flow occupies the bucket that epoch."""
        return len(self._by_bucket.get((bucket, epoch_index), ())) <= 1

    def expected_bucket(self, bucket: int, epoch_index: int) -> StageCell:
        """The cell a sketch must hold for this bucket and epoch."""
        return merge_flow_stats(self.flows_in_bucket(bucket, epoch_index))

    def anomalous_cells(self) -> set[tuple[int, int]]:
        """(bucket, epoch) pairs that received at least one
        anomalous-labeled packet."""
        return {(self.bucket_of(key), epoch) for key, epoch in self._anomalous}
