"""Per-bucket anomaly detectors over epoch snapshot streams.

All detectors consume the stage-0 snapshots produced by the sketch, one
per epoch, from a list or as a stream, and decide every (bucket, epoch)
of the grid.  A verdict is anomalous exactly when its score exceeds the
detector's threshold (k for the model-based detectors).

Three detectors are provided: a plain threshold on a feature value, a
z-score against a baseline fitted on a training prefix, and an EWMA
tracker that scores deviation from a running mean scaled by a running
mean absolute deviation.

Verdicts are stored sparsely, by one function for every detector,
_sparse_verdicts.  In each epoch it scores, as one column, the buckets
the snapshot holds (the touched ones) and the buckets with state of
their own: z-score buckets whose training mean or std is nonzero, and
EWMA buckets whose running mean or deviation is nonzero.  The feature,
score and flag columns are built by C-level maps.  The mean alone
would not do: with alpha 1 a bucket's mean is 0 one idle epoch before
its deviation is.  Every other bucket shares one verdict, scored once
per epoch from a feature value of 0.0, every feature of an empty cell,
with zero state.  That is exact: such a bucket's cell is empty and its
state is zero, so scoring it on its own would run the very same
arithmetic on the very same numbers, whatever the threshold, k or alpha
(negative ones included).

An epoch's verdicts are kept as columns: its explicit buckets, their
scores and their flags.  A Verdict row is built only where rows are the
format: when Verdicts is iterated, and by parse_verdicts.

Verdict, EpochVerdicts, BaselineModel and DetectorSetting are immutable
tuples.  Verdicts is an immutable object, as its iteration and len()
are those of the verdict rows, not of its one field.

A verdict file holds the verdicts as they are stored: per epoch, the
explicit verdicts in ascending bucket order, then one row with no
bucket, the verdict every other bucket of the epoch shares.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import chain, compress, islice, repeat
from operator import attrgetter, gt, not_, truediv
from typing import TYPE_CHECKING, Callable, Collection, Iterable, Iterator, NamedTuple, Sequence

from .ingest import _Record, csv_line, opt_int, parse_flag, parse_float, parse_uint, read_csv, write_csv

if TYPE_CHECKING:
    from .sketch import EpochSnapshot

# Each feature as the cell fields it reads: a count or sum alone, or an
# average's numerator and denominator.
_FEATURE_FIELDS = {
    "pkt_count": ("pkt_count",),
    "byte_sum": ("byte_sum",),
    "byte_avg": ("byte_sum", "pkt_count"),
    "iat_avg_ns": ("iat_sum_ns", "iat_count"),
}
FEATURES = tuple(_FEATURE_FIELDS)

# The detector kinds, each with the parameters it requires.  Only these
# are set on a DetectorSetting, so its parameter string stays minimal.
DETECTOR_PARAMS = {
    "threshold": ("threshold",),
    "zscore": ("k", "train_epochs"),
    "ewma": ("k", "alpha"),
}

# Floor for the EWMA deviation denominator, so a settled series does
# not divide by zero.
EWMA_EPS = 1e-9

_INF = math.inf


def _feature_fields(feature: str) -> tuple[str, ...]:
    fields = _FEATURE_FIELDS.get(feature)
    if fields is None:
        raise ValueError(f"unknown feature selector {feature!r}")
    return fields


def feature_value(cell, feature: str) -> float:
    """Scalar feature of a cell; absent averages read as 0.  A cell is
    read only through pkt_count, byte_sum, iat_sum_ns and iat_count, so
    it may be a sketch's StageCell or a sweep's sketch.BucketSums."""
    fields = _feature_fields(feature)
    value = getattr(cell, fields[0])
    if len(fields) == 1:
        return float(value)
    count = getattr(cell, fields[1])
    return value / count if count else 0.0


def feature_column(cells: Sequence, feature: str) -> list[float]:
    """feature_value of each cell, by C-level maps.  An average whose
    count is 0 has a sum of 0 in every cell the sketch or the flow pass
    builds, so it is read as 0 / 1; if a cell breaks that rule, or has a
    negative count, the column is read through feature_value."""
    fields = _feature_fields(feature)
    if len(fields) == 1:
        return list(map(float, map(attrgetter(fields[0]), cells)))
    sums = list(map(attrgetter(fields[0]), cells))
    counts = list(map(attrgetter(fields[1]), cells))
    if any(compress(sums, map(not_, counts))) or min(counts, default=0) < 0:
        return [feature_value(cell, feature) for cell in cells]
    return list(map(truediv, sums, map(max, counts, repeat(1))))


class Verdict(NamedTuple):
    """One detector decision in one epoch, an immutable tuple of its five
    fields: for one bucket, or with bucket None for every bucket of the
    epoch that has no verdict of its own."""

    detector_id: str
    epoch_index: int
    bucket: int | None
    score: float
    anomalous: bool


class EpochVerdicts(NamedTuple):
    """One detector's verdicts on one epoch of bucket_count buckets.

    buckets holds the buckets scored one by one, in ascending order, and
    scores and flags their scores and flags, position by position; every
    other bucket has the shared score and flag.
    """

    detector_id: str
    epoch_index: int
    bucket_count: int
    buckets: tuple[int, ...]
    scores: tuple[float, ...]
    flags: tuple[bool, ...]
    shared_score: float
    shared_anomalous: bool


class Verdicts(_Record):
    """A detector's verdicts over a run of epochs, one EpochVerdicts
    each.  Iteration yields the rows of a verdict file: per epoch its
    explicit verdicts, then its shared verdict with bucket None.  len()
    counts those rows.  Immutable and hashable, like its epochs."""

    def __init__(self, epochs: tuple[EpochVerdicts, ...]):
        object.__setattr__(self, "epochs", epochs)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self.epochs)

    def __len__(self) -> int:
        return sum(len(e.buckets) + 1 for e in self.epochs)

    def __iter__(self) -> Iterator[Verdict]:
        for e in self.epochs:
            rows = zip(repeat(e.detector_id), repeat(e.epoch_index), e.buckets, e.scores, e.flags)
            yield from map(tuple.__new__, repeat(Verdict), rows)
            yield Verdict(e.detector_id, e.epoch_index, None, e.shared_score, e.shared_anomalous)


def _sparse_verdicts(
    kind: str, snapshot: EpochSnapshot, feature: str, stateful: Collection[int],
    scores: Callable[[Sequence, Sequence[float]], Iterable[float]], limit: float,
) -> EpochVerdicts:
    """Decide one epoch.  The buckets the snapshot holds or in stateful,
    ascending, are scored as one column, scores(buckets, xs) with xs
    their feature values; the shared verdict is scores((None,), (0.0,)),
    0.0 being every feature of an empty cell.  A score above limit is
    anomalous.  stateful is read before the first scores call, which may
    update it."""
    buckets = snapshot.buckets
    xs = feature_column(snapshot.cells, feature)
    if stateful:
        by_bucket = dict(zip(buckets, xs))
        buckets = tuple(sorted(by_bucket.keys() | stateful))
        xs = list(map(by_bucket.get, buckets, repeat(0.0)))
    s = tuple(scores(buckets, xs))
    flags = tuple(map(gt, s, repeat(limit)))
    (shared,) = scores((None,), (0.0,))
    return EpochVerdicts(
        kind, snapshot.epoch_index, snapshot.bucket_count, buckets, s, flags, shared, shared > limit
    )


def _raw(buckets: Sequence, xs: Sequence[float]) -> Sequence[float]:
    return xs


def detect_threshold(snapshot: EpochSnapshot, feature: str, threshold: float) -> EpochVerdicts:
    """Score every bucket by its raw feature value."""
    return _sparse_verdicts("threshold", snapshot, feature, (), _raw, threshold)


class BaselineModel(NamedTuple):
    """Per-bucket mean and population standard deviation of one feature
    over a training prefix of epochs.  Only buckets whose mean or std
    is nonzero have entries; every other bucket has mean 0 and std 0."""

    feature: str
    training_epochs: int
    bucket_count: int
    means: dict[int, float]
    stds: dict[int, float]


def fit_baseline(snapshots: Sequence[EpochSnapshot], feature: str) -> BaselineModel:
    """Fit a BaselineModel on the given epochs (at least two)."""
    n = len(snapshots)
    if n < 2:
        raise ValueError(f"baseline needs at least 2 training epochs, got {n}")
    bucket_count = snapshots[0].bucket_count
    for snap in snapshots:
        if snap.bucket_count != bucket_count:
            raise ValueError("training snapshots disagree on bucket count")
    epochs = [dict(zip(snap.buckets, feature_column(snap.cells, feature))) for snap in snapshots]
    means = {}
    stds = {}
    # A bucket no training epoch touched has mean 0 and std 0.
    for b in sorted(set().union(*epochs)):
        # An untouched bucket's feature is 0.0, as an empty cell's.
        values = [xs.get(b, 0.0) for xs in epochs]
        mean = sum(values) / n
        var = sum((x - mean) ** 2 for x in values) / n
        std = math.sqrt(var)
        if mean or std:
            means[b] = mean
            stds[b] = std
    return BaselineModel(feature, n, bucket_count, means, stds)


def _zscore(x: float, mean: float, std: float) -> float:
    if std == 0.0:
        return 0.0 if x == mean else _INF
    return abs(x - mean) / std


def detect_zscore(snapshot: EpochSnapshot, model: BaselineModel, k: float) -> EpochVerdicts:
    """Score each bucket by |x - mean| / std against the baseline.

    A zero-std bucket scores 0 when x equals its mean and +inf
    otherwise.  That covers a bucket with no training traffic: every
    feature of an empty cell is 0 and no feature is negative, so its
    mean and std are 0 and it scores +inf for any traffic and 0 for
    none.
    """
    if snapshot.bucket_count != model.bucket_count:
        raise ValueError(
            f"snapshot has {snapshot.bucket_count} buckets, model expects {model.bucket_count}"
        )
    means, stds = model.means, model.stds

    def scores(buckets: Sequence, xs: Sequence[float]) -> Iterable[float]:
        return map(_zscore, xs, map(means.get, buckets, repeat(0.0)), map(stds.get, buckets, repeat(0.0)))

    return _sparse_verdicts("zscore", snapshot, model.feature, means.keys(), scores, k)


class EwmaDetector:
    """Streaming per-bucket EWMA with a mean-absolute-deviation scale.

    Scores are computed against the state from previous epochs before
    the state absorbs the current one, so the first epoch observed is
    all benign by construction.  Only buckets whose mean or deviation
    is nonzero keep state.
    """

    def __init__(self, feature: str, alpha: float, k: float):
        check_setting(DetectorSetting("ewma", feature, k=k, alpha=alpha))
        self.feature = feature
        self.alpha = alpha
        self.k = k
        self._bucket_count: int | None = None
        # bucket -> (mean, deviation), both from previous epochs.
        self._state: dict[int, tuple[float, float]] = {}

    def _score(self, bucket: int | None, x: float) -> float:
        """Score x against the bucket's (mean, dev), then fold x into a
        real bucket's state, keeping it only while it is nonzero."""
        mean, dev = self._state.get(bucket, (0.0, 0.0))
        delta = abs(x - mean)
        score = delta / max(dev, EWMA_EPS)
        if bucket is not None:
            alpha = self.alpha
            mean, dev = alpha * x + (1.0 - alpha) * mean, alpha * delta + (1.0 - alpha) * dev
            if mean or dev:
                self._state[bucket] = (mean, dev)
            else:
                self._state.pop(bucket, None)
        return score

    def observe(self, snapshot: EpochSnapshot) -> EpochVerdicts:
        if self._bucket_count is None:
            # The first epoch only seeds the state: it scores no bucket.
            self._bucket_count = snapshot.bucket_count
            for b, x in zip(snapshot.buckets, feature_column(snapshot.cells, self.feature)):
                if x:
                    self._state[b] = (x, 0.0)
            return EpochVerdicts("ewma", snapshot.epoch_index, snapshot.bucket_count, (), (), (), 0.0, False)
        if snapshot.bucket_count != self._bucket_count:
            raise ValueError(
                f"snapshot has {snapshot.bucket_count} buckets, "
                f"detector state has {self._bucket_count}"
            )
        return _sparse_verdicts(
            "ewma", snapshot, self.feature, self._state.keys(), partial(map, self._score), self.k
        )


class DetectorSetting(NamedTuple):
    """Declarative description of one detector run.

    kind is a key of DETECTOR_PARAMS; only the parameters listed there
    for it need to be set.
    """

    kind: str
    feature: str = "pkt_count"
    threshold: float | None = None
    k: float | None = None
    alpha: float | None = None
    train_epochs: int | None = None

    def detector_id(self) -> str:
        return self.kind

    def params_str(self) -> str:
        """Canonical parameter string, stable across runs: the feature,
        then the kind's parameters that are set, in DETECTOR_PARAMS
        order."""
        parts = [f"feature={self.feature}"]
        for name in DETECTOR_PARAMS.get(self.kind, ()):
            value = getattr(self, name)
            if value is not None:
                parts.append(f"{name}={value!r}")
        return ";".join(parts)


def check_setting(setting: DetectorSetting) -> None:
    """Raise ValueError unless the setting can run on some snapshots: a
    known feature and kind, each of the kind's parameters set and not
    NaN, a train_epochs of at least 2 and an alpha in (0, 1]."""
    if setting.feature not in FEATURES:
        raise ValueError(f"unknown feature selector {setting.feature!r}")
    if setting.kind not in DETECTOR_PARAMS:
        raise ValueError(f"unknown detector kind {setting.kind!r}")
    for name in DETECTOR_PARAMS[setting.kind]:
        value = getattr(setting, name)
        if value is None:
            raise ValueError(f"{setting.kind} detector needs {name}")
        # A NaN threshold or k compares false with every score, so it
        # would flag nothing rather than fail.
        if value != value:
            raise ValueError(f"{setting.kind} detector {name} must be a number, got nan")
    if setting.kind == "zscore" and setting.train_epochs < 0:
        raise ValueError(f"train_epochs={setting.train_epochs} must be nonnegative")
    if setting.kind == "zscore" and setting.train_epochs < 2:
        raise ValueError(f"baseline needs at least 2 training epochs, got {setting.train_epochs}")
    if setting.kind == "ewma" and not 0.0 < setting.alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {setting.alpha}")


def run_detector(
    setting: DetectorSetting, snapshots: Iterable[EpochSnapshot]
) -> Verdicts:
    """Apply a detector setting to epoch snapshots, a list or a stream,
    read once, in order.

    The z-score detector holds the first train_epochs snapshots, fits on
    them, and then scores every snapshot, training prefix included.
    """
    check_setting(setting)
    snapshots = iter(snapshots)
    if setting.kind == "threshold":
        observe = partial(detect_threshold, feature=setting.feature, threshold=setting.threshold)
    elif setting.kind == "zscore":
        train = setting.train_epochs
        prefix = list(islice(snapshots, train))
        if train > len(prefix):
            raise ValueError(
                f"train_epochs={train} exceeds available epochs ({len(prefix)})"
            )
        model = fit_baseline(prefix, setting.feature)
        observe = partial(detect_zscore, model=model, k=setting.k)
        snapshots = chain(prefix, snapshots)
    else:
        observe = EwmaDetector(setting.feature, setting.alpha, setting.k).observe
    return Verdicts(tuple(map(observe, snapshots)))


# A verdict file's columns are Verdict's fields; each has its parser here.
VERDICT_HEADER = ",".join(Verdict._fields)
_VERDICT_PARSERS = (str, parse_uint, opt_int, parse_float, parse_flag)


def write_verdicts(path, verdicts: Iterable[Verdict]) -> None:
    write_csv(path, VERDICT_HEADER, (csv_line(*v) for v in verdicts))


def _check_follows(last: Verdict, v: Verdict) -> None:
    """Raise ValueError unless row v may follow row last in a verdict file."""
    if v.detector_id != last.detector_id:
        raise ValueError(f"detector {v.detector_id!r} after {last.detector_id!r} in one file")
    if last.bucket is None and v.epoch_index <= last.epoch_index:
        raise ValueError(f"epoch {v.epoch_index} after epoch {last.epoch_index}")
    if last.bucket is not None and v.epoch_index != last.epoch_index:
        raise ValueError(f"epoch {v.epoch_index} before the shared row of epoch {last.epoch_index}")
    if last.bucket is not None and v.bucket is not None and v.bucket <= last.bucket:
        raise ValueError(f"bucket {v.bucket} after bucket {last.bucket} in epoch {v.epoch_index}")


def parse_verdicts(lines: Iterable[str]) -> list[Verdict]:
    """Read a verdict file in the one layout write_verdicts gives it: one
    detector, epochs ascending, and per epoch its explicit rows in
    strictly ascending bucket order, then its shared row.  A row out of
    that layout raises TraceFormatError naming its line.  Buckets are not
    checked against a range: the file does not carry the bucket count."""
    last: Verdict | None = None

    def row(fields: list[str]) -> Verdict:
        nonlocal last
        v = Verdict._make(parse(text) for parse, text in zip(_VERDICT_PARSERS, fields))
        if last is not None:
            _check_follows(last, v)
        last = v
        return v

    def end() -> None:
        if last is not None and last.bucket is not None:
            raise ValueError(f"epoch {last.epoch_index} has no shared row")

    return list(read_csv(lines, VERDICT_HEADER, row, end))
