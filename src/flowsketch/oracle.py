"""Exact per-flow reference statistics, and the sweep's flow pass.

ExactTracker replays a stream with unbounded memory, keeping one
FlowStats per (flow key, epoch) on the same epoch grid a sketch would
use.  It exists to check sketches: in a collision-free bucket the
sketch cell must equal the single flow's stats exactly, and in general
a cell must equal the merge of every flow hashing into it.

The tracker deliberately re-derives everything from first principles
(its own epoch arithmetic, its own accumulation) rather than reusing
sketch internals.

FlowSums is the one pass a sweep makes per key spec and epoch length.
It keeps the tracker's epoch arithmetic (anchored at the first packet)
and regression check, and takes the trace a column chunk at a time,
reading the timestamp, length and label columns and the chunk's key
column.  It records the raw keys of anomalous-labelled packets, the
ground truth, and keeps four sums per raw key of the open epoch: the
packet count, the byte sum, and the first and last timestamp.  When an
epoch closes, each hash width folds those sums into its buckets, and
the sums are dropped, so the pass holds one epoch's flows at a time.

That fold gives exactly the four fields a detector reads of a sketch
cell (detectors.feature_value): counts and bytes add, and a bucket's
inter-arrival gaps within an epoch telescope, so their sum is its last
timestamp minus its first and their count its packets minus one, however
many flows share it.  The other five metrics of a StageCell, such as
the smallest gap, are not derived: flow sums cannot give them for a
shared bucket.  ExactTracker takes packet records, one at a time.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import partial
from itertools import compress, repeat
from operator import is_, itemgetter, sub
from typing import Iterable, Iterator, NamedTuple, Sequence

from .hashing import FlowKey, extract_key, fold, shift_xor_hash
from .ingest import Label, PacketRecord, _Memo
from .sketch import FOLD_MEMO_MAX, EpochSnapshot, SketchConfig, StageCell


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


class BucketSums(NamedTuple):
    """One bucket's sums over one epoch, folded from its flows' sums:
    the four StageCell fields a detector reads, and no other."""

    pkt_count: int
    byte_sum: int
    iat_sum_ns: int
    iat_count: int


# The fields of a flow's or a bucket's sums list.
_COUNT, _BYTES, _FIRST, _LAST = map(itemgetter, range(4))


class FlowSums:
    """The sweep's pass for one key spec and epoch length, fed in
    column chunks: (raw key value, epoch) pairs that received at least
    one anomalous-labelled packet, and per hash width the epoch
    snapshots that the sketch's update loop would take of stage 0,
    each cell a BucketSums.  Epochs are anchored at the first packet as
    in ExactTracker."""

    def __init__(self, epoch_ns: int, key_bits: int, widths: Iterable[int]):
        self._epoch_ns = epoch_ns
        self._folds = {
            w: _Memo(partial(fold, key_bits=key_bits, width_bits=w), FOLD_MEMO_MAX) for w in widths
        }
        self._snapshots: dict[int, list[EpochSnapshot]] | None = {w: [] for w in self._folds}
        self._pairs: set[tuple[int, int]] = set()
        # Raw key -> [packets, bytes, first timestamp, last timestamp] of
        # the open epoch.
        self._flows: dict[int, list[int]] = {}
        self._t0: int | None = None
        self._last_ts: int | None = None
        self._epoch = 0
        self._boundary = 0

    def _open(self) -> dict[int, list[EpochSnapshot]]:
        if self._snapshots is None:
            raise ValueError("the flow pass is finished")
        return self._snapshots

    def feed(self, chunk, keys: Sequence[int]) -> None:
        """Take the next timestamp-sorted column chunk (an
        ingest.TraceColumns) and its key column.  Raises ValueError on a
        timestamp regression, including against earlier chunks, with
        the tracker's message; the rows before it are kept."""
        self._open()
        times = chunk.timestamp_ns
        if not times:
            return
        if self._t0 is None:
            self._t0 = self._last_ts = times[0]
            self._boundary = times[0] + self._epoch_ns
        last_ts = self._last_ts
        end = len(times)
        if not (last_ts <= times[0] and times == sorted(times)):
            # Stop at the first row below the one before it.
            before = [last_ts, *times]
            end = next(i for i, (ts, prev) in enumerate(zip(times, before)) if ts < prev)
            last_ts = before[end]
        lengths, labels = chunk.length_bytes, chunk.label
        start = 0
        while start < end:
            if times[start] >= self._boundary:
                self._close(times[start])
            stop = bisect_left(times, self._boundary, start, end)
            segment = labels[start:stop]
            if Label.ANOMALOUS in segment:
                anomalous = map(is_, segment, repeat(Label.ANOMALOUS))
                self._pairs.update(compress(zip(keys[start:stop], repeat(self._epoch)), anomalous))
            flows = self._flows
            get = flows.get
            for key, nbytes, ts in zip(keys[start:stop], lengths[start:stop], times[start:stop]):
                sums = get(key)
                if sums is None:
                    flows[key] = [1, nbytes, ts, ts]
                else:
                    sums[0] += 1
                    sums[1] += nbytes
                    sums[3] = ts
            start = stop
        if end < len(times):
            self._last_ts = last_ts
            raise ValueError(f"timestamp regression: {times[end]} after {last_ts}")
        self._last_ts = times[-1]

    def _fold(self, complete: bool) -> None:
        """Append the open epoch's snapshot at every width."""
        start = self._t0 + self._epoch * self._epoch_ns
        flows = self._flows
        for width, buckets in self._folds.items():
            merged: dict[int, list[int]] = {}
            get = merged.get
            for bucket, sums in zip(map(buckets.__getitem__, flows), flows.values()):
                into = get(bucket)
                if into is None:
                    # A copy: every width reads the flows' lists.
                    merged[bucket] = sums.copy()
                    continue
                into[0] += sums[0]
                into[1] += sums[1]
                # The flows are in the order of their first packets, so
                # the bucket's first timestamp is its first flow's.
                if sums[3] > into[3]:
                    into[3] = sums[3]
            order = sorted(merged)
            rows = list(map(merged.__getitem__, order))
            counts = list(map(_COUNT, rows))
            cells = map(
                tuple.__new__, repeat(BucketSums),
                zip(counts, map(_BYTES, rows), map(sub, map(_LAST, rows), map(_FIRST, rows)), map(sub, counts, repeat(1))),
            )
            self._snapshots[width].append(
                EpochSnapshot(self._epoch, start, complete, 1 << width, tuple(order), tuple(cells))
            )
        self._flows = {}

    def _close(self, ts: int) -> None:
        """Close the open epoch and the empty ones up to ts's."""
        self._fold(True)
        epoch = (ts - self._t0) // self._epoch_ns
        for width, snapshots in self._snapshots.items():
            snapshots.extend(
                EpochSnapshot(e, self._t0 + e * self._epoch_ns, True, 1 << width, (), ())
                for e in range(self._epoch + 1, epoch)
            )
        self._epoch = epoch
        self._boundary = self._t0 + (epoch + 1) * self._epoch_ns

    def finish(self) -> tuple[frozenset[tuple[int, int]], dict[int, list[EpochSnapshot]]]:
        """The anomalous pairs, and per width the snapshots in epoch
        order with the trailing partial epoch last (none when no packet
        was fed).  The pass is closed: feed() and finish() then raise."""
        snapshots = self._open()
        if self._t0 is not None:
            self._fold(False)
        self._snapshots = None
        return frozenset(self._pairs), snapshots

