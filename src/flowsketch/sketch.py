"""Streaming sketch: hashed per-bucket traffic features over epochs.

The sketch keeps mem_stages equal-length epochs of state as a shift
register of stages.  Stage 0 accumulates the current epoch; when the
stream's timestamp crosses an epoch boundary the stages shift (stage 0
becomes stage 1 and so on), the oldest stage falls off, and a fresh
stage 0 starts.

The modelled footprint, the one the hardware sketch has and that
evaluation.resource_model costs, is fixed at mem_stages * 2**hash_width
cells regardless of traffic.  This process holds only the cells that
traffic touched: each stage maps bucket to cell, a rotation starts an
empty map, and snapshots carry the touched buckets alone.  Memory and
per-epoch work therefore grow with traffic, not with 2**hash_width.

Epochs are anchored at the first packet's timestamp, so boundaries sit
at first_ts + k * epoch_ns.  Gaps in traffic still shift once per
elapsed epoch.  Inter-arrival tracking restarts each epoch: the first
packet a bucket sees in an epoch contributes no gap sample.

EpochClock is the one place that finds epoch boundaries: it cuts each
column chunk (ingest.TraceColumns) into runs of rows of one epoch.  The
sketch's one update loop runs over a run's timestamp, length and key
columns, folds each key to its bucket through a bounded memo, and
snapshots each epoch it closes into the list it is given.  Column
chunks reach it through EpochCollector.feed, and packet records,
transposed to column chunks, through Sketch.update_many and
collect_epochs.  FlowSums, the sweep's pass, reads the same clock.

A bucket's state is one StageCell of nine raw metrics, a plain mutable
object whose __dict__ holds them; SketchConfig and EpochSnapshot are
immutable tuples.  Sketch.stage returns copies of cells.  An epoch
snapshot holds stage 0's cells themselves, since nothing writes to a
cell once its epoch has closed.  Derived features such as averages are
read from a cell by detectors.feature_value.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import partial
from itertools import chain, compress, count, islice, repeat, starmap
from operator import attrgetter, is_, itemgetter, lt, sub
from typing import Iterable, Iterator, NamedTuple, Sequence

from .hashing import KeySpec, check_width, fold
from .ingest import Label, TraceColumns, _Memo, _Record, csv_line, opt_int, parse_uint, read_csv, write_csv

# Resource model constants: a cell holds 9 metric words of 8 bytes, and
# one update mutates at most 9 metric fields.
CELL_BYTES = 72
UPDATE_OPS = 9

# Refuse configs whose cell count exceeds this.
DEFAULT_MAX_CELLS = 1 << 26

# Bucket folds are memoized per raw key value; the memo is cleared if
# key cardinality outgrows this, keeping memory bounded either way.
FOLD_MEMO_MAX = 1 << 16

# Packet records are transposed to column chunks this many at a time.
# The transpose holds one iterator per record, so a batch under the
# garbage collector's first threshold (700) triggers no collection; at
# 1024 records those collections cost update_many about a fifth of its
# throughput.
RECORD_BATCH_ROWS = 512


class _SketchConfigFields(NamedTuple):
    hash_width: int
    mem_stages: int
    epoch_ns: int
    key_spec: KeySpec


class SketchConfig(_SketchConfigFields):
    """Dimensions of a sketch: hash width in bits, number of memory
    stages, epoch length, and the flow key layout.  The constructor
    checks every field."""

    __slots__ = ()

    def __new__(cls, hash_width: int, mem_stages: int, epoch_ns: int, key_spec: KeySpec) -> "SketchConfig":
        check_width(hash_width)
        if mem_stages < 1:
            raise ValueError("mem_stages must be at least 1")
        if epoch_ns <= 0:
            raise ValueError("epoch_ns must be positive")
        if not isinstance(key_spec, KeySpec):
            raise ValueError("key_spec must be a KeySpec")
        return tuple.__new__(cls, (hash_width, mem_stages, epoch_ns, key_spec))

    @property
    def bucket_count(self) -> int:
        return 1 << self.hash_width

    @property
    def cell_count(self) -> int:
        return self.mem_stages * self.bucket_count


class StageCell(_Record):
    """Aggregated metrics for one bucket in one stage.

    Minima and maxima are None while no packet (or no inter-arrival
    gap) has been observed; counters and sums start at zero.  The nine
    metrics are the instance's __dict__, in this order.
    """

    def __init__(
        self,
        pkt_count: int = 0,
        byte_sum: int = 0,
        byte_min: int | None = None,
        byte_max: int | None = None,
        last_ts_ns: int | None = None,
        iat_sum_ns: int = 0,
        iat_count: int = 0,
        iat_min_ns: int | None = None,
        iat_max_ns: int | None = None,
    ):
        self.pkt_count = pkt_count
        self.byte_sum = byte_sum
        self.byte_min = byte_min
        self.byte_max = byte_max
        self.last_ts_ns = last_ts_ns
        self.iat_sum_ns = iat_sum_ns
        self.iat_count = iat_count
        self.iat_min_ns = iat_min_ns
        self.iat_max_ns = iat_max_ns


class EpochClock:
    """Where the epochs of a timestamp-sorted stream begin and end.

    The first timestamp anchors epoch 0, and each epoch starts epoch_ns
    after the one before.  index and start name the current epoch (start
    is None before any timestamp); last_ts is the latest timestamp."""

    __slots__ = ("epoch_ns", "index", "start", "last_ts")

    def __init__(self, epoch_ns: int):
        self.epoch_ns = epoch_ns
        self.index = 0
        self.start: int | None = None
        self.last_ts: int | None = None

    def split(self, times: Sequence[int]) -> Iterator[tuple[int, int, int, int, int]]:
        """(gap, index, start, lo, hi) for each run of a chunk's
        timestamp column, rows lo to hi - 1, that falls in one epoch,
        in row order: gap is how many epochs the run moved the clock on,
        and the clock stands at the run's epoch while it is read.  The
        rows before a timestamp regression, against the row before or an
        earlier chunk, are split; then ValueError names it as
        ExactTracker does."""
        if not times:
            return
        if self.start is None:
            self.start = self.last_ts = times[0]
        end = len(times)
        if not (self.last_ts <= times[0] and sorted(times) == list(times)):
            # The first row below the one before it.
            end = next(compress(count(), map(lt, times, chain((self.last_ts,), times))), end)
        epoch_ns = self.epoch_ns
        lo = 0
        while lo < end:
            gap = max((times[lo] - self.start) // epoch_ns, 0)
            self.index += gap
            self.start += gap * epoch_ns
            hi = bisect_left(times, self.start + epoch_ns, lo, end)
            self.last_ts = times[hi - 1]
            yield gap, self.index, self.start, lo, hi
            lo = hi
        if end < len(times):
            raise ValueError(f"timestamp regression: {times[end]} after {self.last_ts}")

    def passed(self, gap: int) -> Iterator[tuple[int, int]]:
        """(index, start) of the gap epochs before the current one,
        oldest first: the epoch that a run with this gap closed, then
        the empty epochs it crossed."""
        epoch_ns = self.epoch_ns
        return zip(range(self.index - gap, self.index), range(self.start - gap * epoch_ns, self.start, epoch_ns))


class Sketch:
    """Feature extractor over a timestamp-sorted stream, holding the
    touched cells of its mem_stages stages."""

    def __init__(self, config: SketchConfig):
        if config.cell_count > DEFAULT_MAX_CELLS:
            raise ValueError(
                f"config needs {config.cell_count} cells, budget is {DEFAULT_MAX_CELLS}"
            )
        self._config = config
        # Each stage maps bucket to cell; untouched buckets have no entry.
        self._stages: list[dict[int, StageCell]] = [{} for _ in range(config.mem_stages)]
        self._clock = EpochClock(config.epoch_ns)
        # Raw key value -> bucket: a value is folded once while the memo
        # holds it.
        self._buckets = _Memo(
            partial(fold, key_bits=config.key_spec.total_bits, width_bits=config.hash_width),
            FOLD_MEMO_MAX,
        )

    @property
    def config(self) -> SketchConfig:
        return self._config

    @property
    def epoch_start_ns(self) -> int | None:
        """Start of the current (stage 0) epoch; None before any update."""
        return self._clock.start

    @property
    def epoch_index(self) -> int:
        """Index of the current epoch; equals the number of completed epochs."""
        return self._clock.index

    @staticmethod
    def _batches(packets: Iterable) -> Iterator[TraceColumns]:
        """Packet records as column chunks of up to RECORD_BATCH_ROWS
        rows, each column a tuple."""
        it = iter(packets)
        return map(TraceColumns._make, starmap(zip, iter(lambda: tuple(islice(it, RECORD_BATCH_ROWS)), ())))

    def update_many(self, packets: Iterable) -> int:
        """Fold a timestamp-sorted batch of packet records; returns the
        count.  Raises ValueError on a timestamp regression, including
        against packets from earlier calls; the packets before it are
        kept."""
        return sum(self._update(chunk, None, None) for chunk in self._batches(packets))

    def _update(self, chunk, keys: Sequence[int] | None, closed: list[EpochSnapshot] | None) -> int:
        """The update loop over a column chunk, whose key column, if
        already built, is keys, appending to closed, if given, each
        closing epoch's snapshot.  Returns the row count.

        The clock cuts the chunk into runs of one epoch.  This is the
        hot path: the per-packet work is a memoized hash fold, one cell
        fetch, and nine field updates."""
        if keys is None:
            keys = self._config.key_spec.key_column(chunk)
        times, lengths = chunk.timestamp_ns, chunk.length_bytes
        clock = self._clock
        buckets = self._buckets
        bucket_get = buckets.get
        stages = self._stages
        stage0 = stages[0]
        rows = zip(times, lengths, keys)
        for crossed, _, _, begin, end in clock.split(times):
            if crossed:
                # The closing epoch's snapshot, then one per empty epoch
                # crossed; after mem_stages rotations every stage is empty.
                if closed is not None:
                    (index, start), *empty = clock.passed(crossed)
                    closed.append(self._snapshot(index, start, True))
                    bucket_count = self._config.bucket_count
                    closed.extend(EpochSnapshot(i, s, True, bucket_count, (), ()) for i, s in empty)
                for _ in range(min(crossed, self._config.mem_stages)):
                    stages.pop()
                    stages.insert(0, {})
                stage0 = stages[0]
            for ts, nbytes, v in islice(rows, end - begin):
                b = bucket_get(v)
                if b is None:
                    b = buckets[v]
                try:
                    cell = stage0[b]
                except KeyError:
                    cell = stage0[b] = StageCell()
                cell.pkt_count += 1
                cell.byte_sum += nbytes
                lo = cell.byte_min
                if lo is None or nbytes < lo:
                    cell.byte_min = nbytes
                hi = cell.byte_max
                if hi is None or nbytes > hi:
                    cell.byte_max = nbytes
                prev = cell.last_ts_ns
                if prev is not None:
                    gap = ts - prev
                    cell.iat_sum_ns += gap
                    cell.iat_count += 1
                    lo = cell.iat_min_ns
                    if lo is None or gap < lo:
                        cell.iat_min_ns = gap
                    hi = cell.iat_max_ns
                    if hi is None or gap > hi:
                        cell.iat_max_ns = gap
                cell.last_ts_ns = ts
        return len(times)

    def rotate_epoch(self, new_epoch_start_ns: int) -> None:
        """Shift the stages by one epoch and start a fresh stage 0.

        Stage s takes stage s-1's cells bit for bit; the oldest stage is
        discarded.  The new epoch must start after the current one.
        """
        clock = self._clock
        if clock.start is None:
            raise ValueError("cannot rotate a sketch with no current epoch")
        if new_epoch_start_ns <= clock.start:
            raise ValueError("new epoch start must be after the current epoch start")
        stages = self._stages
        stages.pop()
        stages.insert(0, {})
        clock.start = new_epoch_start_ns
        clock.index += 1

    def stage(self, stage: int) -> dict[int, StageCell]:
        """Copies of the touched cells of a stage, keyed by bucket in
        ascending order.  An untouched bucket has no entry; its cell
        would be StageCell()."""
        if not 0 <= stage < self._config.mem_stages:
            raise ValueError(f"stage must be in [0, {self._config.mem_stages})")
        cells = self._stages[stage]
        return {bucket: StageCell(**vars(cells[bucket])) for bucket in sorted(cells)}

    def _snapshot(self, index: int, start: int, complete: bool) -> EpochSnapshot:
        """Stage 0's snapshot as epoch index, starting at start: its
        cells themselves, not copies, buckets ascending."""
        cells = self._stages[0]
        buckets = sorted(cells)
        return EpochSnapshot(
            index, start, complete, self._config.bucket_count,
            tuple(buckets), tuple(map(cells.__getitem__, buckets)),
        )


class EpochSnapshot(NamedTuple):
    """Stage-0 contents of one epoch, taken just before rotation (or at
    end of stream for the final, possibly partial, epoch).

    Only touched buckets are held: buckets ascending, each with its cell
    at the same position in cells.  The other buckets of bucket_count
    are empty.  A sketch's snapshot holds StageCells; a sweep's, built
    by FlowSums from flow sums, holds BucketSums.
    Detectors read a cell only through pkt_count, byte_sum, iat_sum_ns
    and iat_count, the four fields the two share.
    """

    epoch_index: int
    epoch_start_ns: int
    complete: bool
    bucket_count: int
    buckets: tuple[int, ...]
    cells: tuple


class EpochCollector:
    """Per-epoch stage-0 snapshots of a stream fed in column chunks:
    each completed epoch is snapshotted as it closes, and finish() adds
    the final partial epoch.  Only the snapshots are held, not the
    packets.

    A snapshot holds stage 0's cells themselves, not copies: nothing
    writes to a cell once its epoch has closed, and finish() closes the
    collector, after which feed() and finish() raise."""

    def __init__(self, sketch: Sketch):
        self._sketch = sketch
        self._snapshots: list[EpochSnapshot] | None = []

    def _open(self) -> list[EpochSnapshot]:
        if self._snapshots is None:
            raise ValueError("the epoch collector is finished")
        return self._snapshots

    def feed(self, chunk, keys: Sequence[int] | None = None) -> None:
        """Stream the next timestamp-sorted column chunk (an
        ingest.TraceColumns), whose key column, if already built, is
        keys, through the sketch.  Raises ValueError on a timestamp
        regression, including against earlier chunks; the rows before
        it are kept."""
        self._sketch._update(chunk, keys, self._open())

    def finish(self) -> list[EpochSnapshot]:
        """The snapshots, in epoch order, with the trailing partial
        epoch last; empty when no packet was fed."""
        snapshots = self._open()
        sketch = self._sketch
        if sketch.epoch_start_ns is not None:
            snapshots.append(sketch._snapshot(sketch.epoch_index, sketch.epoch_start_ns, False))
        self._snapshots = None
        return snapshots


def collect_epochs(sketch: Sketch, packets: Iterable) -> list[EpochSnapshot]:
    """Run a stream of packet records and collect per-epoch stage-0
    snapshots, one per elapsed epoch, empty ones across gaps included,
    plus the final partial epoch.  Empty traces yield an empty list."""
    collector = EpochCollector(sketch)
    for chunk in sketch._batches(packets):
        collector.feed(chunk)
    return collector.finish()


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
    column chunks on an EpochClock: (raw key value, epoch) pairs that
    received at least one anomalous-labelled packet, and per hash width
    the epoch snapshots that the sketch's update loop would take of
    stage 0, each cell a BucketSums.

    It keeps four sums per raw key of the open epoch: the packet count,
    the byte sum, and the first and last timestamp.  When the epoch
    closes, each hash width folds them into its buckets and they are
    dropped.  That gives exactly the four fields a detector reads of a
    sketch cell (detectors.feature_value): counts and bytes add, and a
    bucket's gaps within an epoch telescope, so their sum is its last
    timestamp minus its first and their count its packets minus one,
    however many flows share it.  Flow sums cannot give the other five
    metrics of a shared bucket, such as its smallest gap."""

    def __init__(self, epoch_ns: int, key_bits: int, widths: Iterable[int]):
        self._clock = EpochClock(epoch_ns)
        self._folds = {
            w: _Memo(partial(fold, key_bits=key_bits, width_bits=w), FOLD_MEMO_MAX) for w in widths
        }
        self._snapshots: dict[int, list[EpochSnapshot]] | None = {w: [] for w in self._folds}
        self._pairs: set[tuple[int, int]] = set()
        # Raw key -> [packets, bytes, first timestamp, last timestamp] of
        # the open epoch.
        self._flows: dict[int, list[int]] = {}

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
        times, lengths, labels = chunk.timestamp_ns, chunk.length_bytes, chunk.label
        clock = self._clock
        for crossed, index, _, begin, end in clock.split(times):
            if crossed:
                (closing, start), *empty = clock.passed(crossed)
                self._fold(closing, start, True)
                for width, snapshots in self._snapshots.items():
                    snapshots.extend(EpochSnapshot(i, s, True, 1 << width, (), ()) for i, s in empty)
            segment = labels[begin:end]
            if Label.ANOMALOUS in segment:
                anomalous = map(is_, segment, repeat(Label.ANOMALOUS))
                self._pairs.update(compress(zip(keys[begin:end], repeat(index)), anomalous))
            flows = self._flows
            get = flows.get
            for key, nbytes, ts in zip(keys[begin:end], lengths[begin:end], times[begin:end]):
                sums = get(key)
                if sums is None:
                    flows[key] = [1, nbytes, ts, ts]
                else:
                    sums[0] += 1
                    sums[1] += nbytes
                    sums[3] = ts

    def _fold(self, index: int, start: int, complete: bool) -> None:
        """Append the open epoch's snapshot at every width, as epoch
        index starting at start, and drop its flow sums."""
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
                EpochSnapshot(index, start, complete, 1 << width, tuple(order), tuple(cells))
            )
        self._flows = {}

    def finish(self) -> tuple[frozenset[tuple[int, int]], dict[int, list[EpochSnapshot]]]:
        """The anomalous pairs, and per width the snapshots in epoch
        order with the trailing partial epoch last (none when no packet
        was fed).  The pass is closed: feed() and finish() then raise."""
        snapshots = self._open()
        clock = self._clock
        if clock.start is not None:
            self._fold(clock.index, clock.start, False)
        self._snapshots = None
        return frozenset(self._pairs), snapshots


# The snapshot file's cell columns, after stage and bucket, in file order,
# each with its parser; the header, writer and parser follow this table.
# last_ts_ns is transient stream state and is not exported.
_SNAPSHOT_CELL_COLUMNS = (
    ("pkt_count", parse_uint), ("byte_sum", parse_uint), ("byte_min", opt_int),
    ("byte_max", opt_int), ("iat_count", parse_uint), ("iat_sum_ns", parse_uint),
    ("iat_min_ns", opt_int), ("iat_max_ns", opt_int),
)
SNAPSHOT_HEADER = ",".join(["stage", "bucket", *(name for name, _ in _SNAPSHOT_CELL_COLUMNS)])
_cell_fields = attrgetter(*(name for name, _ in _SNAPSHOT_CELL_COLUMNS))


def write_snapshot(path, rows: Sequence[tuple[int, int, StageCell]]) -> None:
    """Serialize (stage, bucket, cell) rows to CSV.  Rows are written as
    given; flowsketch extract takes them from epoch snapshots, so
    untouched buckets have none."""
    write_csv(path, SNAPSHOT_HEADER, (csv_line(s, b, *_cell_fields(c)) for s, b, c in rows))


def _snapshot_row(f: list[str]) -> tuple[int, int, StageCell]:
    stage, bucket = parse_uint(f[0]), parse_uint(f[1])
    columns = zip(_SNAPSHOT_CELL_COLUMNS, f[2:])
    return stage, bucket, StageCell(**{name: parse(text) for (name, parse), text in columns})


def parse_snapshot(lines: Iterable[str]) -> list[tuple[int, int, StageCell]]:
    return list(read_csv(lines, SNAPSHOT_HEADER, _snapshot_row))
