"""Per-bucket anomaly detectors over epoch snapshot streams.

All detectors consume the stage-0 snapshots produced by the sketch, one
per epoch, and decide every (bucket, epoch) of the grid.  A verdict is
anomalous exactly when its score exceeds the detector's threshold (k
for the model-based detectors).

Three detectors are provided: a plain threshold on a feature value, a
z-score against a baseline fitted on a training prefix, and an EWMA
tracker that scores deviation from a running mean scaled by a running
mean absolute deviation.

Verdicts are stored sparsely, by one loop for every detector,
_sparse_verdicts.  In each epoch it scores, one by one, the buckets the
snapshot holds (the touched ones) and the buckets with state of their
own: z-score buckets whose training mean or std is nonzero, and EWMA
buckets whose running mean or deviation is nonzero.  The mean alone
would not do: with alpha 1 a bucket's mean is 0 one idle epoch before
its deviation is.  Every other bucket shares one verdict, scored once
per epoch from StageCell() with zero state.  That is exact: such a
bucket's cell is empty and its state is zero, so scoring it on its own
would run the very same arithmetic on the very same numbers, whatever
the threshold, k or alpha (negative ones included).

A verdict file holds the verdicts as they are stored: per epoch, the
explicit verdicts in ascending bucket order, then one row with no
bucket, the verdict every other bucket of the epoch shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Collection, Iterable, Iterator, NamedTuple, Sequence

from .ingest import csv_line, opt_int, parse_flag, parse_float, parse_uint, read_csv, write_csv
from .sketch import EpochSnapshot, StageCell

FEATURES = ("pkt_count", "byte_sum", "byte_avg", "iat_avg_ns")

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

# The cell of every bucket a snapshot does not hold.
_EMPTY = StageCell()


def feature_value(cell: StageCell, feature: str) -> float:
    """Scalar feature of a cell; absent averages read as 0."""
    if feature == "pkt_count":
        return float(cell.pkt_count)
    if feature == "byte_sum":
        return float(cell.byte_sum)
    if feature == "byte_avg":
        return cell.byte_sum / cell.pkt_count if cell.pkt_count else 0.0
    if feature == "iat_avg_ns":
        return cell.iat_sum_ns / cell.iat_count if cell.iat_count else 0.0
    raise ValueError(f"unknown feature selector {feature!r}")


class Verdict(NamedTuple):
    """One detector decision in one epoch, an immutable tuple of its five
    fields: for one bucket, or with bucket None for every bucket of the
    epoch that has no verdict of its own."""

    detector_id: str
    epoch_index: int
    bucket: int | None
    score: float
    anomalous: bool


@dataclass(frozen=True)
class EpochVerdicts:
    """One detector's verdicts on one epoch of bucket_count buckets.

    explicit holds the buckets scored one by one, in ascending bucket
    order; every other bucket has the shared score and flag.
    """

    detector_id: str
    epoch_index: int
    bucket_count: int
    explicit: tuple[Verdict, ...]
    shared_score: float
    shared_anomalous: bool


@dataclass(frozen=True)
class Verdicts:
    """A detector's verdicts over a run of epochs, one EpochVerdicts
    each.  Iteration yields the rows of a verdict file: per epoch its
    explicit verdicts, then its shared verdict with bucket None.  len()
    counts those rows."""

    epochs: tuple[EpochVerdicts, ...]

    def __len__(self) -> int:
        return sum(len(e.explicit) + 1 for e in self.epochs)

    def __iter__(self) -> Iterator[Verdict]:
        for e in self.epochs:
            yield from e.explicit
            yield Verdict(e.detector_id, e.epoch_index, None, e.shared_score, e.shared_anomalous)


def _sparse_verdicts(
    kind: str, snapshot: EpochSnapshot, feature: str, stateful: Collection[int],
    score: Callable[[int | None, float], float], limit: float,
) -> EpochVerdicts:
    """Decide one epoch: score(bucket, x) for every bucket the snapshot
    holds or in stateful, ascending, then the shared verdict as
    score(None, x) of an empty cell; a score above limit is anomalous.
    stateful is read before the first score call, which may update it."""
    cells = dict(zip(snapshot.buckets, snapshot.cells))
    epoch = snapshot.epoch_index
    explicit = []
    for b in sorted(cells.keys() | stateful):
        s = score(b, feature_value(cells.get(b, _EMPTY), feature))
        explicit.append(Verdict(kind, epoch, b, s, s > limit))
    s = score(None, feature_value(_EMPTY, feature))
    return EpochVerdicts(kind, epoch, snapshot.bucket_count, tuple(explicit), s, s > limit)


def detect_threshold(snapshot: EpochSnapshot, feature: str, threshold: float) -> EpochVerdicts:
    """Score every bucket by its raw feature value."""
    return _sparse_verdicts("threshold", snapshot, feature, (), lambda b, x: x, threshold)


@dataclass(frozen=True)
class BaselineModel:
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
    epochs = [dict(zip(snap.buckets, snap.cells)) for snap in snapshots]
    means = {}
    stds = {}
    # A bucket no training epoch touched has mean 0 and std 0.
    for b in sorted(set().union(*epochs)):
        values = [feature_value(cells.get(b, _EMPTY), feature) for cells in epochs]
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
    return _sparse_verdicts(
        "zscore", snapshot, model.feature, means.keys(),
        lambda b, x: _zscore(x, means.get(b, 0.0), stds.get(b, 0.0)), k,
    )


class EwmaDetector:
    """Streaming per-bucket EWMA with a mean-absolute-deviation scale.

    Scores are computed against the state from previous epochs before
    the state absorbs the current one, so the first epoch observed is
    all benign by construction.  Only buckets whose mean or deviation
    is nonzero keep state.
    """

    def __init__(self, feature: str, alpha: float, k: float):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if feature not in FEATURES:
            raise ValueError(f"unknown feature selector {feature!r}")
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
            for b, cell in zip(snapshot.buckets, snapshot.cells):
                x = feature_value(cell, self.feature)
                if x:
                    self._state[b] = (x, 0.0)
            return EpochVerdicts("ewma", snapshot.epoch_index, snapshot.bucket_count, (), 0.0, False)
        if snapshot.bucket_count != self._bucket_count:
            raise ValueError(
                f"snapshot has {snapshot.bucket_count} buckets, "
                f"detector state has {self._bucket_count}"
            )
        return _sparse_verdicts("ewma", snapshot, self.feature, self._state.keys(), self._score, self.k)


@dataclass(frozen=True)
class DetectorSetting:
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


def run_detector(
    setting: DetectorSetting, snapshots: Sequence[EpochSnapshot]
) -> Verdicts:
    """Apply a detector setting to an epoch snapshot sequence.

    The z-score detector fits on the first train_epochs snapshots and
    then scores every snapshot, training prefix included.
    """
    if setting.feature not in FEATURES:
        raise ValueError(f"unknown feature selector {setting.feature!r}")
    if setting.kind not in DETECTOR_PARAMS:
        raise ValueError(f"unknown detector kind {setting.kind!r}")
    for name in DETECTOR_PARAMS[setting.kind]:
        if getattr(setting, name) is None:
            raise ValueError(f"{setting.kind} detector needs {name}")
    if setting.kind == "threshold":
        observe = partial(detect_threshold, feature=setting.feature, threshold=setting.threshold)
    elif setting.kind == "zscore":
        train = setting.train_epochs
        if train < 0:
            raise ValueError(f"train_epochs={train} must be nonnegative")
        if train > len(snapshots):
            raise ValueError(
                f"train_epochs={train} exceeds available epochs ({len(snapshots)})"
            )
        model = fit_baseline(snapshots[:train], setting.feature)
        observe = partial(detect_zscore, model=model, k=setting.k)
    else:
        observe = EwmaDetector(setting.feature, setting.alpha, setting.k).observe
    return Verdicts(tuple(observe(snap) for snap in snapshots))


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
