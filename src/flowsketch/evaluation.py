"""Evaluation pipeline: detection quality, resource cost, update
throughput, and Pareto comparison across configurations.

A sweep runs a grid of (sketch config x detector setting) cells over
one labeled trace, read once as column chunks.  It does not replay the
sketch: one sketch.FlowSums pass per key spec and epoch length, on the
sketch's own epoch clock, keeps per-flow sums and folds them into every
hash width's buckets, which gives exactly the cell fields detectors
read, and its anomalous keys give the ground truth; the oracle is not
imported.  Each cell is scored against a ground-truth grid at (bucket,
epoch) granularity, by set arithmetic over the explicit verdicts, and
costed with a simple memory model.  Cells on the Pareto front (maximize f1, minimize memory) are
flagged in the report, so the report depends only on the trace and the
grid.  bench_throughput measures one config's update throughput on its
own, through the sketch's update loop.

Grids, scores and costs are immutable tuples; QualityScores keeps its
ratios as exact Fractions.  SweepRow and ParetoPoint are plain objects,
since the sweep and the Pareto pass fill their fields in place.
"""

from __future__ import annotations

import gc
import json
import time
from fractions import Fraction
from itertools import chain, compress
from operator import attrgetter, countOf
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .detectors import DetectorSetting, EpochVerdicts, Verdicts, run_detector
from .ingest import PacketRecord, TraceColumns, _Record, csv_line, opt_float, opt_int, parse_flag, parse_uint, read_csv, write_csv
from .hashing import KeySpec, fold
from .sketch import CELL_BYTES, UPDATE_OPS, FlowSums, Sketch, SketchConfig

if TYPE_CHECKING:
    from .oracle import ExactTracker

BENCH_MIN_PACKETS = 10_000


class GroundTruthGrid(NamedTuple):
    """Labels projected onto sketch coordinates: a (bucket, epoch) cell
    is anomalous iff at least one anomalous-labeled packet hashed into
    it during that epoch."""

    bucket_count: int
    epoch_count: int
    anomalous: frozenset[tuple[int, int]]

    @classmethod
    def from_tracker(cls, tracker: ExactTracker, epoch_count: int) -> "GroundTruthGrid":
        cells = frozenset(
            (b, e) for (b, e) in tracker.anomalous_cells() if e < epoch_count
        )
        return cls(tracker.config.bucket_count, epoch_count, cells)

    @classmethod
    def from_keys(
        cls, pairs: Iterable[tuple[int, int]], config: SketchConfig, epoch_count: int
    ) -> "GroundTruthGrid":
        """Project the anomalous (raw key, epoch) pairs of a
        sketch.FlowSums pass onto a config's grid: each raw key folded
        to its bucket, epochs from epoch_count on dropped."""
        bits = config.key_spec.total_bits
        width = config.hash_width
        cells = frozenset(
            (fold(value, bits, width), e) for value, e in pairs if e < epoch_count
        )
        return cls(config.bucket_count, epoch_count, cells)


class QualityScores(NamedTuple):
    """Confusion counts and exact rational quality metrics.  Ratios with
    a zero denominator are defined as 0."""

    tp: int
    fp: int
    fn: int
    tn: int
    precision: Fraction
    recall: Fraction
    f1: Fraction


_EPOCH, _BUCKET, _FLAG = attrgetter("epoch_index"), attrgetter("bucket"), attrgetter("anomalous")


def _name_bad_verdict(epoch: EpochVerdicts, bucket_count: int) -> None:
    """Raise ValueError naming the first explicit verdict of the epoch
    that is outside it or the grid, or repeats a bucket."""
    e = epoch.epoch_index
    seen = set()
    for v in epoch.explicit:
        cell = (v.bucket, v.epoch_index)
        if v.epoch_index != e or not 0 <= v.bucket < bucket_count:
            raise ValueError(f"verdict for {cell} is outside epoch {e} of the grid")
        if v.bucket in seen:
            raise ValueError(f"duplicate verdict for cell {cell}")
        seen.add(v.bucket)


def score(verdicts: Verdicts, grid: GroundTruthGrid) -> QualityScores:
    """Match verdicts against the grid cell by cell.

    The verdicts must cover exactly the grid's (bucket, epoch) domain,
    once each: every grid epoch once, over the grid's buckets, with no
    explicit verdict outside its epoch or the grid and none repeated.
    They may come in any order.  An epoch's explicit verdicts are
    counted as sets of buckets, flagged and all, against its anomalous
    cells.  The other buckets of an epoch share one verdict, and this is
    the one place that counts them: by arithmetic from how many of the
    epoch's anomalous cells they hold.
    """
    expected = grid.bucket_count * grid.epoch_count
    covered = sum(epoch.bucket_count for epoch in verdicts.epochs)
    if covered != expected:
        raise ValueError(f"verdicts cover {covered} cells, grid has {expected}")
    truth: dict[int, set[int]] = {}
    for b, e in grid.anomalous:
        truth.setdefault(e, set()).add(b)
    seen_epochs = set()
    tp = fp = fn = tn = 0
    for epoch in verdicts.epochs:
        e = epoch.epoch_index
        if epoch.bucket_count != grid.bucket_count or not 0 <= e < grid.epoch_count:
            raise ValueError(
                f"verdicts for epoch {e} over {epoch.bucket_count} buckets are outside the grid"
            )
        if e in seen_epochs:
            raise ValueError(f"duplicate verdicts for epoch {e}")
        seen_epochs.add(e)
        explicit = epoch.explicit
        buckets = list(map(_BUCKET, explicit))
        seen = set(buckets)
        valid = (
            len(seen) == len(buckets)
            and countOf(map(_EPOCH, explicit), e) == len(buckets)
            and (not seen or (min(seen) >= 0 and max(seen) < grid.bucket_count))
        )
        if not valid:
            _name_bad_verdict(epoch, grid.bucket_count)
        anomalous = truth.get(e, set())
        flagged = set(compress(buckets, map(_FLAG, explicit)))
        hits = len(seen & anomalous)
        flagged_hits = len(flagged & anomalous)
        tp += flagged_hits
        fp += len(flagged) - flagged_hits
        fn += hits - flagged_hits
        tn += len(seen) - len(flagged) - (hits - flagged_hits)
        rest = grid.bucket_count - len(seen)
        rest_hits = len(anomalous) - hits
        if epoch.shared_anomalous:
            tp += rest_hits
            fp += rest - rest_hits
        else:
            fn += rest_hits
            tn += rest - rest_hits
    precision = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
    recall = Fraction(tp, tp + fn) if tp + fn else Fraction(0)
    denom = 2 * tp + fp + fn
    f1 = Fraction(2 * tp, denom) if denom else Fraction(0)
    return QualityScores(tp, fp, fn, tn, precision, recall, f1)


class ResourceCost(NamedTuple):
    """Modeled footprint of a configuration.  memory_bytes counts every
    cell at a fixed 72-byte size (9 eight-byte metric words); update_ops
    is the constant number of metric-field mutations per packet."""

    memory_bytes: int
    update_ops: int


def resource_model(config: SketchConfig) -> ResourceCost:
    return ResourceCost(config.cell_count * CELL_BYTES, UPDATE_OPS)


class BenchResult(NamedTuple):
    """Throughput measurement: median packets/second over the runs."""

    pps: float
    runs: tuple[float, ...]
    packet_count: int
    mean_packet_bytes: float


def bench_throughput(
    config: SketchConfig,
    records: Sequence[PacketRecord],
    repetitions: int = 3,
) -> BenchResult:
    """Measure sketch update throughput on a fixed trace.

    Each repetition streams the whole trace through a fresh sketch and
    times only the update loop on the monotonic clock.  A warmup pass
    runs first and garbage collection is paused while timing.  The
    reported figure is the median over repetitions.
    """
    # Imported here, as only this command needs it: every other command
    # starts without it.
    import statistics

    n = len(records)
    if n < BENCH_MIN_PACKETS:
        raise ValueError(f"benchmark needs at least {BENCH_MIN_PACKETS} packets, got {n}")
    if repetitions < 3:
        raise ValueError("benchmark needs at least 3 repetitions")
    Sketch(config).update_many(records)  # warmup
    runs = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repetitions):
            sketch = Sketch(config)
            start = time.perf_counter_ns()
            sketch.update_many(records)
            elapsed = time.perf_counter_ns() - start
            runs.append(n / (elapsed / 1e9))
    finally:
        if gc_was_enabled:
            gc.enable()
    mean_bytes = sum(r.length_bytes for r in records) / n
    return BenchResult(statistics.median(runs), tuple(runs), n, mean_bytes)


class ParetoPoint(_Record):
    """One configuration's objectives: f1 up, memory down, and (when
    benchmarked) throughput up."""

    def __init__(
        self,
        config_id: str,
        f1: float,
        memory_bytes: int,
        measured_pps: float | None = None,
        dominated: bool = False,
    ):
        self.config_id = config_id
        self.f1 = f1
        self.memory_bytes = memory_bytes
        self.measured_pps = measured_pps
        self.dominated = dominated


def _dominates(a: ParetoPoint, b: ParetoPoint, use_pps: bool) -> bool:
    """a dominates b: at least as good everywhere, better somewhere."""
    if a.f1 < b.f1 or a.memory_bytes > b.memory_bytes:
        return False
    better = a.f1 > b.f1 or a.memory_bytes < b.memory_bytes
    if use_pps:
        if a.measured_pps < b.measured_pps:
            return False
        better = better or a.measured_pps > b.measured_pps
    return better


def pareto_front(
    points: Sequence[ParetoPoint], use_pps: bool = False
) -> tuple[list[ParetoPoint], list[ParetoPoint]]:
    """Partition points into (front, dominated), flagging each point.

    Throughput is a third objective only when use_pps is set, and then
    every point needs a measurement.  Points with identical
    objective vectors do not dominate each other, so exact ties are all
    kept on the front.  The front is returned sorted by f1 descending,
    then memory ascending.
    """
    if not points:
        raise ValueError("pareto partition needs at least one point")
    if use_pps and any(p.measured_pps is None for p in points):
        raise ValueError("use_pps requires a throughput measurement on every point")
    front: list[ParetoPoint] = []
    dominated: list[ParetoPoint] = []
    for p in points:
        p.dominated = any(
            q is not p and _dominates(q, p, use_pps) for q in points
        )
        (dominated if p.dominated else front).append(p)
    front.sort(key=lambda p: (-p.f1, p.memory_bytes))
    return front, dominated


class SweepRow(_Record):
    """One grid cell of a sweep: configuration, detection quality and
    resource cost.  error is set (and the quality fields are None) when
    the cell failed."""

    def __init__(
        self,
        config_id: str,
        hash_width: int,
        mem_stages: int,
        epoch_ns: int,
        key_spec: str,
        detector_id: str,
        detector_params: str,
        tp: int | None = None,
        fp: int | None = None,
        fn: int | None = None,
        tn: int | None = None,
        precision: float | None = None,
        recall: float | None = None,
        f1: float | None = None,
        memory_bytes: int | None = None,
        update_ops: int | None = None,
        on_front: bool = False,
        error: str | None = None,
    ):
        self.config_id = config_id
        self.hash_width = hash_width
        self.mem_stages = mem_stages
        self.epoch_ns = epoch_ns
        self.key_spec = key_spec
        self.detector_id = detector_id
        self.detector_params = detector_params
        self.tp = tp
        self.fp = fp
        self.fn = fn
        self.tn = tn
        self.precision = precision
        self.recall = recall
        self.f1 = f1
        self.memory_bytes = memory_bytes
        self.update_ops = update_ops
        self.on_front = on_front
        self.error = error


def _config_id(config: SketchConfig, setting: DetectorSetting) -> str:
    return (
        f"W{config.hash_width}-S{config.mem_stages}-E{config.epoch_ns}"
        f"-{config.key_spec}-{setting.detector_id()}-{setting.params_str()}"
    )


def sweep(
    chunks: Iterable[TraceColumns],
    sketch_configs: Sequence[SketchConfig],
    detector_settings: Sequence[DetectorSetting],
) -> list[SweepRow]:
    """Evaluate every (sketch config, detector setting) cell on a trace,
    given as timestamp-sorted column chunks (ingest.TraceColumns, as
    ingest.parse_trace_chunks yields them), and return its rows, ordered
    by config id.

    Only completed epochs are scored; a trailing partial epoch is
    excluded from both verdicts and ground truth.  A failing cell does
    not abort the sweep: the failure is recorded on its row and the
    remaining cells still run.  The Pareto front ranks f1 and memory
    only, so the rows depend on nothing but the trace and the grid.

    The chunks are read once and none is kept: each goes through every
    pass below before the next is read, so peak memory is the open
    epoch's flow sums and the snapshots, not the trace.  Each chunk's
    key column is built once per key spec and shared by the passes of
    that spec.  An error raised by chunks itself, such as a parse error,
    aborts the sweep.  A bad grid raises as soon as it is found, after
    the first chunk is read and before the rest is.

    Snapshots hold stage 0, which does not depend on the stage count,
    so a row's verdicts depend on its config only through (key spec,
    epoch length, hash width).  Configs are grouped by those three, and
    each group is evaluated once: one snapshot list, one grid, and one
    detector run and score per setting.  Both come from one
    sketch.FlowSums pass per (key spec, epoch length), whose anomalous
    keys and per-flow sums each hash width folds to its own buckets; no
    sketch replays the trace.  Its snapshots' cells are BucketSums, the
    four fields a detector reads, equal to the sketch's cells in those
    fields.  The cell budget check of Sketch(config) and the resource
    model run per config, as its rows are built.

    A budget error stays on its config's rows.  Every pass reads the
    same timestamps, so a timestamp regression fails them all at one
    row; the first failure stops every pass and lands on every other
    row.  A detector error lands on every row of the group for that
    setting.
    """
    it = iter(chunks)
    head = next(it, None)
    if not sketch_configs or not detector_settings:
        raise ValueError("sweep needs at least one sketch config and one detector setting")
    if head is None:
        raise ValueError("sweep needs a nonempty trace")
    ids = {
        _config_id(c, s) for c in sketch_configs for s in detector_settings
    }
    if len(ids) != len(sketch_configs) * len(detector_settings):
        raise ValueError("sweep grid contains duplicate cells")
    groups: dict[tuple[KeySpec, int, int], list[SketchConfig]] = {}
    for config in sketch_configs:
        key = (config.key_spec, config.epoch_ns, config.hash_width)
        groups.setdefault(key, []).append(config)
    widths: dict[tuple[KeySpec, int], list[int]] = {}
    for key_spec, epoch_ns, width in groups:
        widths.setdefault((key_spec, epoch_ns), []).append(width)
    passes = {
        (key_spec, epoch_ns): FlowSums(epoch_ns, key_spec.total_bits, ws)
        for (key_spec, epoch_ns), ws in widths.items()
    }
    # Every pass reads the same timestamps, so a timestamp regression
    # fails them all at the same row with the same message: the first
    # failure stops every pass.  The trace is still read to its end, so
    # that an error in the input itself aborts the sweep.
    failure: str | None = None
    key_specs = dict.fromkeys(key_spec for key_spec, _ in passes)
    it = chain([head], it)
    del head
    for chunk in it:
        if failure is not None:
            continue
        columns = {key_spec: key_spec.key_column(chunk) for key_spec in key_specs}
        try:
            for (key_spec, _), flow_pass in passes.items():
                flow_pass.feed(chunk, columns[key_spec])
        except ValueError as exc:
            failure = str(exc)
    finished = {key: flow_pass.finish() for key, flow_pass in passes.items()}
    rows: list[SweepRow] = []
    for key, configs in groups.items():
        outcomes: list[QualityScores | str] = []
        if failure is not None:
            outcomes = [failure] * len(detector_settings)
        else:
            pairs, snapshots = finished[key[:2]]
            completed = snapshots.pop(key[2])
            grid = GroundTruthGrid.from_keys(pairs, configs[0], len(completed))
            for setting in detector_settings:
                try:
                    outcomes.append(score(run_detector(setting, completed), grid))
                except ValueError as exc:
                    outcomes.append(str(exc))
        for config in configs:
            cells = outcomes
            try:
                Sketch(config)  # the cell budget check
            except ValueError as exc:
                cells = [str(exc)] * len(detector_settings)
            cost = resource_model(config)
            for setting, outcome in zip(detector_settings, cells):
                row = SweepRow(
                    config_id=_config_id(config, setting),
                    hash_width=config.hash_width,
                    mem_stages=config.mem_stages,
                    epoch_ns=config.epoch_ns,
                    key_spec=str(config.key_spec),
                    detector_id=setting.detector_id(),
                    detector_params=setting.params_str(),
                    memory_bytes=cost.memory_bytes,
                    update_ops=cost.update_ops,
                )
                if isinstance(outcome, str):
                    row.error = outcome
                else:
                    row.tp, row.fp, row.fn, row.tn = outcome.tp, outcome.fp, outcome.fn, outcome.tn
                    row.precision = float(outcome.precision)
                    row.recall = float(outcome.recall)
                    row.f1 = float(outcome.f1)
                rows.append(row)
    clean = [r for r in rows if r.error is None]
    if clean:
        points = [ParetoPoint(r.config_id, r.f1, r.memory_bytes) for r in clean]
        pareto_front(points)
        for r, p in zip(clean, points):
            r.on_front = not p.dominated
    rows.sort(key=lambda r: r.config_id)
    return rows


def _opt_ratio(text: str) -> float | None:
    value = opt_float(text)
    if value is not None and not 0.0 <= value <= 1.0:
        raise ValueError(f"ratio {text!r} outside [0, 1]")
    return value


# The report's columns in file order, each a SweepRow field with its
# parser; the header, writer and parser follow this table.  A failed
# row's error lives in the JSON report only.
_REPORT_COLUMNS = (
    ("config_id", str), ("hash_width", parse_uint), ("mem_stages", parse_uint),
    ("epoch_ns", parse_uint), ("key_spec", str), ("detector_id", str),
    ("detector_params", str), ("tp", opt_int), ("fp", opt_int), ("fn", opt_int),
    ("tn", opt_int), ("precision", _opt_ratio), ("recall", _opt_ratio), ("f1", _opt_ratio),
    ("memory_bytes", opt_int), ("update_ops", opt_int), ("on_front", parse_flag),
)
REPORT_HEADER = ",".join(name for name, _ in _REPORT_COLUMNS)
_report_fields = attrgetter(*(name for name, _ in _REPORT_COLUMNS))


def write_report_csv(path, rows: Sequence[SweepRow]) -> None:
    """Write sweep rows as CSV.  Failed rows keep their config columns
    and leave the quality fields empty; error details live in the JSON
    report."""
    write_csv(path, REPORT_HEADER, (csv_line(*_report_fields(r)) for r in rows))


def _report_row(f: list[str]) -> SweepRow:
    return SweepRow(**{name: parse(text) for (name, parse), text in zip(_REPORT_COLUMNS, f)})


def parse_report_csv(lines: Iterable[str]) -> list[SweepRow]:
    """Parse a report in the one layout write_report_csv writes; a
    report from before the measured_pps column was removed is rejected
    by its header."""
    return list(read_csv(lines, REPORT_HEADER, _report_row))


def write_report_json(path, rows: Sequence[SweepRow]) -> None:
    """Machine-readable report: same fields as the CSV plus per-row
    error messages."""
    payload = [vars(r) for r in rows]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
