"""Evaluation pipeline: detection quality, resource cost, throughput,
and Pareto comparison across configurations.

A sweep runs a grid of (sketch config x detector setting) cells over
one labeled trace, read once as column chunks.  Each cell is scored against a ground-truth grid at
(bucket, epoch) granularity, costed with a simple memory model, and
optionally benchmarked for update throughput.  Cells on the Pareto
front (maximize f1 and throughput, minimize memory) are flagged in the
report.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import chain
from operator import attrgetter
from typing import Iterable, Sequence

from .detectors import DetectorSetting, Verdicts, run_detector
from .ingest import PacketRecord, TraceColumns, csv_line, opt_float, opt_int, parse_flag, parse_uint, read_csv, write_csv
from .hashing import KeySpec, fold
from .oracle import AnomalousKeys, ExactTracker
from .sketch import CELL_BYTES, UPDATE_OPS, EpochCollector, Sketch, SketchConfig

BENCH_MIN_PACKETS = 10_000


@dataclass(frozen=True)
class GroundTruthGrid:
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
        """Project oracle.anomalous_keys pairs onto a config's grid:
        each raw key folded to its bucket, epochs from epoch_count on
        dropped."""
        bits = config.key_spec.total_bits
        width = config.hash_width
        cells = frozenset(
            (fold(value, bits, width), e) for value, e in pairs if e < epoch_count
        )
        return cls(config.bucket_count, epoch_count, cells)


@dataclass(frozen=True)
class QualityScores:
    """Confusion counts and exact rational quality metrics.  Ratios with
    a zero denominator are defined as 0."""

    tp: int
    fp: int
    fn: int
    tn: int
    precision: Fraction
    recall: Fraction
    f1: Fraction


def score(verdicts: Verdicts, grid: GroundTruthGrid) -> QualityScores:
    """Match verdicts against the grid cell by cell.

    The verdicts must cover exactly the grid's (bucket, epoch) domain,
    once each: every grid epoch once, over the grid's buckets, with no
    explicit verdict outside its epoch or the grid and none repeated.
    Explicit verdicts are matched one by one.  The other buckets of an
    epoch share one verdict, and this is the one place that counts them:
    by arithmetic from how many of the epoch's anomalous cells they hold.
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
        anomalous = truth.get(e, set())
        seen = set()
        for v in epoch.explicit:
            cell = (v.bucket, v.epoch_index)
            if v.epoch_index != e or not 0 <= v.bucket < grid.bucket_count:
                raise ValueError(f"verdict for {cell} is outside epoch {e} of the grid")
            if v.bucket in seen:
                raise ValueError(f"duplicate verdict for cell {cell}")
            seen.add(v.bucket)
            hit = v.bucket in anomalous
            if v.anomalous and hit:
                tp += 1
            elif v.anomalous:
                fp += 1
            elif hit:
                fn += 1
            else:
                tn += 1
        rest = grid.bucket_count - len(seen)
        rest_hits = len(anomalous - seen)
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


@dataclass(frozen=True)
class ResourceCost:
    """Modeled footprint of a configuration.  memory_bytes counts every
    cell at a fixed 72-byte size (9 eight-byte metric words); update_ops
    is the constant number of metric-field mutations per packet."""

    memory_bytes: int
    update_ops: int


def resource_model(config: SketchConfig) -> ResourceCost:
    return ResourceCost(config.cell_count * CELL_BYTES, UPDATE_OPS)


@dataclass(frozen=True)
class BenchResult:
    """Throughput measurement: median packets/second over the runs."""

    pps: float
    runs: tuple[float, ...]
    packet_count: int
    mean_packet_bytes: float


def _check_bench(packet_count: int, repetitions: int) -> None:
    if packet_count < BENCH_MIN_PACKETS:
        raise ValueError(
            f"benchmark needs at least {BENCH_MIN_PACKETS} packets, got {packet_count}"
        )
    if repetitions < 3:
        raise ValueError("benchmark needs at least 3 repetitions")


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
    n = len(records)
    _check_bench(n, repetitions)
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


@dataclass
class ParetoPoint:
    """One configuration's objectives: f1 up, memory down, and (when
    benchmarked) throughput up."""

    config_id: str
    f1: float
    memory_bytes: int
    measured_pps: float | None = None
    dominated: bool = False


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
    points: Sequence[ParetoPoint], use_pps: bool | None = None
) -> tuple[list[ParetoPoint], list[ParetoPoint]]:
    """Partition points into (front, dominated), flagging each point.

    Throughput participates as an objective only when every point has a
    measurement (or explicitly via use_pps).  Points with identical
    objective vectors do not dominate each other, so exact ties are all
    kept on the front.  The front is returned sorted by f1 descending,
    then memory ascending.
    """
    if not points:
        raise ValueError("pareto partition needs at least one point")
    if use_pps is None:
        use_pps = all(p.measured_pps is not None for p in points)
    elif use_pps and any(p.measured_pps is None for p in points):
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


@dataclass
class SweepRow:
    """One grid cell of a sweep: configuration, detection quality,
    resource cost, and optional throughput.  error is set (and the
    quality fields are None) when the cell failed."""

    config_id: str
    hash_width: int
    mem_stages: int
    epoch_ns: int
    key_spec: str
    detector_id: str
    detector_params: str
    tp: int | None = None
    fp: int | None = None
    fn: int | None = None
    tn: int | None = None
    precision: float | None = None
    recall: float | None = None
    f1: float | None = None
    memory_bytes: int | None = None
    update_ops: int | None = None
    measured_pps: float | None = None
    on_front: bool = False
    error: str | None = None


def _config_id(config: SketchConfig, setting: DetectorSetting) -> str:
    return (
        f"W{config.hash_width}-S{config.mem_stages}-E{config.epoch_ns}"
        f"-{config.key_spec}-{setting.detector_id()}-{setting.params_str()}"
    )


def sweep(
    chunks: Iterable[TraceColumns],
    sketch_configs: Sequence[SketchConfig],
    detector_settings: Sequence[DetectorSetting],
    bench: bool = False,
    bench_repetitions: int = 3,
) -> list[SweepRow]:
    """Evaluate every (sketch config, detector setting) cell on a trace,
    given as timestamp-sorted column chunks (ingest.TraceColumns, as
    ingest.parse_trace_chunks yields them), and return its rows, ordered
    by config id.

    Only completed epochs are scored; a trailing partial epoch is
    excluded from both verdicts and ground truth.  A failing cell does
    not abort the sweep: the failure is recorded on its row and the
    remaining cells still run.  Benchmark preconditions depend only on
    the trace, so they are checked before any cell runs.

    The chunks are read once and none is kept: each goes through every
    pass below before the next is read, so peak memory is the passes'
    per-epoch state, not the trace.  Each chunk's key column is built
    once per key spec and shared by the passes of that spec.  An error
    raised by chunks itself, such as a parse error, aborts the sweep.  A
    bad grid raises as soon as it is found, after the first chunk is
    read and before the rest is.  With bench, chunks must be a sequence:
    the throughput benchmark replays the trace as packet records, as
    bench_throughput does.

    Snapshots hold stage 0, which does not depend on the stage count,
    so a row's verdicts depend on its config only through (key spec,
    epoch length, hash width).  Configs are grouped by those three, and
    each group is evaluated once, on a replay of its first config
    within the cell budget: one snapshot list, one grid, and one
    detector run and score per setting.  Ground truth is one light
    oracle.AnomalousKeys pass per (key spec, epoch length), folded to
    buckets for each hash width.  The cell budget check of
    Sketch(config), the resource model and the throughput benchmark
    run per config.

    A budget error stays on its config's rows.  An error of a shared
    pass, such as a timestamp regression, lands on every row of the
    group within the budget, and a detector error on every row of the
    group for that setting.
    """
    it = iter(chunks)
    head = next(it, None)
    if not sketch_configs or not detector_settings:
        raise ValueError("sweep needs at least one sketch config and one detector setting")
    if head is None:
        raise ValueError("sweep needs a nonempty trace")
    if bench:
        records = list(chain.from_iterable(map(TraceColumns.records, chunks)))
        _check_bench(len(records), bench_repetitions)
    ids = {
        _config_id(c, s) for c in sketch_configs for s in detector_settings
    }
    if len(ids) != len(sketch_configs) * len(detector_settings):
        raise ValueError("sweep grid contains duplicate cells")
    groups: dict[tuple[KeySpec, int, int], list[SketchConfig]] = {}
    for config in sketch_configs:
        key = (config.key_spec, config.epoch_ns, config.hash_width)
        groups.setdefault(key, []).append(config)
    budget_errors: dict[SketchConfig, str] = {}
    replays: dict[tuple[KeySpec, int, int], EpochCollector] = {}
    truths: dict[tuple[KeySpec, int], AnomalousKeys] = {}
    for key, configs in groups.items():
        for config in configs:
            try:
                sketch = Sketch(config)
            except ValueError as exc:
                budget_errors[config] = str(exc)
            else:
                if key not in replays:
                    replays[key] = EpochCollector(sketch)
                    if key[:2] not in truths:
                        truths[key[:2]] = AnomalousKeys(key[1])
    # A pass that fails stops taking chunks; the trace is still read to
    # its end, so that an error in the input itself aborts the sweep.
    failures: dict[tuple, str] = {}
    live: dict[tuple, EpochCollector | AnomalousKeys] = {**replays, **truths}
    it = chain([head], it)
    del head
    for chunk in it:
        columns = {key_spec: key_spec.key_column(chunk) for key_spec in {key[0] for key in live}}
        for key, stream_pass in list(live.items()):
            try:
                stream_pass.feed(chunk, columns[key[0]])
            except ValueError as exc:
                failures[key] = str(exc)
                del live[key]
    pairs = {key: truth.finish() for key, truth in truths.items() if key not in failures}
    rows: list[SweepRow] = []
    for key, configs in groups.items():
        replay = replays.pop(key, None)
        outcomes: list[QualityScores | str] | str | None = (
            None if replay is None else failures.get(key, failures.get(key[:2]))
        )
        if replay is not None and outcomes is None:
            completed = [s for s in replay.finish() if s.complete]
            grid = GroundTruthGrid.from_keys(pairs[key[:2]], configs[0], len(completed))
            outcomes = []
            for setting in detector_settings:
                try:
                    outcomes.append(score(run_detector(setting, completed), grid))
                except ValueError as exc:
                    outcomes.append(str(exc))
        for config in configs:
            bench_pps: float | None = None
            error = budget_errors.get(config)
            if error is None and isinstance(outcomes, str):
                error = outcomes
            if error is None and bench:
                try:
                    bench_pps = bench_throughput(config, records, repetitions=bench_repetitions).pps
                except ValueError as exc:
                    error = str(exc)
            cost = resource_model(config)
            cells = outcomes if error is None else [error] * len(detector_settings)
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
                    measured_pps=bench_pps,
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
        points = [
            ParetoPoint(r.config_id, r.f1, r.memory_bytes, r.measured_pps)
            for r in clean
        ]
        pareto_front(points, use_pps=bench)
        flags = {p.config_id: not p.dominated for p in points}
        for r in clean:
            r.on_front = flags[r.config_id]
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
    ("memory_bytes", opt_int), ("update_ops", opt_int), ("measured_pps", opt_float),
    ("on_front", parse_flag),
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
    return list(read_csv(lines, REPORT_HEADER, _report_row))


def write_report_json(path, rows: Sequence[SweepRow]) -> None:
    """Machine-readable report: same fields as the CSV plus per-row
    error messages."""
    payload = [asdict(r) for r in rows]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
