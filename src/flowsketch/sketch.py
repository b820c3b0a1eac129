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

The sketch has one update loop, over (timestamp, length, raw key) rows,
which folds each key to its bucket through a bounded memo.  Packet
records reach it through Sketch.update_many and collect_epochs; a
column chunk (ingest.TraceColumns) reaches it through
EpochCollector.feed, as zip of its timestamp and length columns and its
key column.  The loop is the one place that finds epoch boundaries,
and it snapshots each epoch it closes into the list it is given.

A bucket's state is one StageCell of nine raw metrics, a plain mutable
object whose __dict__ holds them; SketchConfig and EpochSnapshot are
immutable tuples.  Sketch.stage returns copies of cells.  An epoch
snapshot holds stage 0's cells themselves, since nothing writes to a
cell once its epoch has closed.  Derived features such as averages are
read from a cell by detectors.feature_value.
"""

from __future__ import annotations

from functools import partial
from itertools import chain, islice, starmap
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from .hashing import KeySpec, check_width, fold
from .ingest import PARSE_CHUNK_ROWS, TraceColumns, _Memo, _Record, csv_line, opt_int, parse_uint, read_csv, write_csv

# Resource model constants: a cell holds 9 metric words of 8 bytes, and
# one update mutates at most 9 metric fields.
CELL_BYTES = 72
UPDATE_OPS = 9

# Refuse configs whose cell count exceeds this.
DEFAULT_MAX_CELLS = 1 << 26

# Bucket folds are memoized per raw key value; the memo is cleared if
# key cardinality outgrows this, keeping memory bounded either way.
FOLD_MEMO_MAX = 1 << 16


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
        self._epoch_start: int | None = None
        self._epoch_index = 0
        self._last_ts: int | None = None
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
        return self._epoch_start

    @property
    def epoch_index(self) -> int:
        """Index of the current epoch; equals the number of completed epochs."""
        return self._epoch_index

    def _rows(self, packets: Iterable) -> Iterator[tuple[int, int, int]]:
        """(timestamp, length, raw key) per packet record.  A
        single-field key reads all three in one attrgetter call; wider
        keys are built as a column chunk's are, from the records
        transposed PARSE_CHUNK_ROWS at a time."""
        fields = self._config.key_spec.fields
        if len(fields) == 1:
            return map(attrgetter("timestamp_ns", "length_bytes", fields[0]), packets)
        it = iter(packets)
        batches = iter(lambda: list(islice(it, PARSE_CHUNK_ROWS)), [])
        key_column = self._config.key_spec.key_column
        return chain.from_iterable(
            zip(chunk.timestamp_ns, chunk.length_bytes, key_column(chunk))
            for chunk in map(TraceColumns._make, starmap(zip, batches))
        )

    def update_many(self, packets: Iterable) -> int:
        """Fold a timestamp-sorted batch of packet records; returns the
        count.  Raises ValueError on a timestamp regression, including
        against packets from earlier calls."""
        return self._update(self._rows(packets), None)

    def _update(self, rows: Iterable[tuple[int, int, int]], closed: list[EpochSnapshot] | None) -> int:
        """The update loop over (timestamp, length, raw key) rows,
        appending to closed, if given, each closing epoch's snapshot.

        This is the hot path: the per-packet work is a memoized hash
        fold, one cell fetch, and nine field updates."""
        epoch_ns = self._config.epoch_ns
        buckets = self._buckets
        bucket_get = buckets.get
        stages = self._stages
        stage0 = stages[0]
        last_ts = self._last_ts if self._last_ts is not None else -1
        epoch_start = self._epoch_start
        boundary = None if epoch_start is None else epoch_start + epoch_ns
        count = 0
        try:
            for ts, nbytes, v in rows:
                if ts < last_ts:
                    raise ValueError(f"timestamp regression: {ts} after {last_ts}")
                last_ts = ts
                if boundary is None:
                    epoch_start = ts
                    boundary = ts + epoch_ns
                elif ts >= boundary:
                    self._epoch_start = epoch_start
                    self._advance_epochs(ts, closed)
                    epoch_start = self._epoch_start
                    boundary = epoch_start + epoch_ns
                    stage0 = stages[0]
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
                count += 1
        finally:
            self._last_ts = last_ts if last_ts >= 0 else None
            self._epoch_start = epoch_start
        return count

    def _advance_epochs(self, ts: int, closed: list[EpochSnapshot] | None) -> None:
        """Move to the epoch that contains ts.  At most mem_stages
        rotations are made: by then every stage is empty, so the epoch
        index and start move on by arithmetic.  Given a list, it appends
        the closing epoch's snapshot, then an empty one per empty epoch
        of the gap, as stage 0 is empty until the packet at ts arrives."""
        epoch_ns = self._config.epoch_ns
        index, start = self._epoch_index, self._epoch_start
        gap = (ts - start) // epoch_ns
        if closed is not None:
            closed.append(self._snapshot(True))
            buckets = self._config.bucket_count
            closed.extend(EpochSnapshot(index + k, start + k * epoch_ns, True, buckets, (), ()) for k in range(1, gap))
        rotations = min(gap, self._config.mem_stages)
        for _ in range(rotations):
            self.rotate_epoch(self._epoch_start + epoch_ns)
        self._epoch_index += gap - rotations
        self._epoch_start += (gap - rotations) * epoch_ns

    def rotate_epoch(self, new_epoch_start_ns: int) -> None:
        """Shift the stages by one epoch and start a fresh stage 0.

        Stage s takes stage s-1's cells bit for bit; the oldest stage is
        discarded.  The new epoch must start after the current one.
        """
        if self._epoch_start is None:
            raise ValueError("cannot rotate a sketch with no current epoch")
        if new_epoch_start_ns <= self._epoch_start:
            raise ValueError("new epoch start must be after the current epoch start")
        stages = self._stages
        stages.pop()
        stages.insert(0, {})
        self._epoch_start = new_epoch_start_ns
        self._epoch_index += 1

    def stage(self, stage: int) -> dict[int, StageCell]:
        """Copies of the touched cells of a stage, keyed by bucket in
        ascending order.  An untouched bucket has no entry; its cell
        would be StageCell()."""
        if not 0 <= stage < self._config.mem_stages:
            raise ValueError(f"stage must be in [0, {self._config.mem_stages})")
        cells = self._stages[stage]
        return {bucket: StageCell(**vars(cells[bucket])) for bucket in sorted(cells)}

    def _snapshot(self, complete: bool) -> EpochSnapshot:
        """The current epoch's snapshot: stage 0's cells themselves, not
        copies, buckets ascending."""
        cells = self._stages[0]
        buckets = sorted(cells)
        return EpochSnapshot(
            self._epoch_index, self._epoch_start, complete, self._config.bucket_count,
            tuple(buckets), tuple(map(cells.__getitem__, buckets)),
        )


class EpochSnapshot(NamedTuple):
    """Stage-0 contents of one epoch, taken just before rotation (or at
    end of stream for the final, possibly partial, epoch).

    Only touched buckets are held: buckets ascending, each with its cell
    at the same position in cells.  The other buckets of bucket_count
    are empty.  A sketch's snapshot holds StageCells; a sweep's, built
    by oracle.FlowSums from flow sums, holds oracle.BucketSums.
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
        regression, including against earlier chunks."""
        snapshots = self._open()
        if keys is None:
            keys = self._sketch.config.key_spec.key_column(chunk)
        self._sketch._update(zip(chunk.timestamp_ns, chunk.length_bytes, keys), snapshots)

    def finish(self) -> list[EpochSnapshot]:
        """The snapshots, in epoch order, with the trailing partial
        epoch last; empty when no packet was fed."""
        snapshots = self._open()
        if self._sketch.epoch_start_ns is not None:
            snapshots.append(self._sketch._snapshot(False))
        self._snapshots = None
        return snapshots


def collect_epochs(sketch: Sketch, packets: Iterable) -> list[EpochSnapshot]:
    """Run a stream of packet records and collect per-epoch stage-0
    snapshots, one per elapsed epoch, empty ones across gaps included,
    plus the final partial epoch.  Empty traces yield an empty list."""
    collector = EpochCollector(sketch)
    sketch._update(sketch._rows(packets), collector._open())
    return collector.finish()


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
