"""Per-bucket anomaly detectors over epoch snapshot streams.

All detectors consume the stage-0 snapshots produced by the sketch, one
per epoch, and emit one verdict per (bucket, epoch).  A verdict is
anomalous exactly when its score exceeds the detector's threshold (k
for the model-based detectors).

Three detectors are provided: a plain threshold on a feature value, a
z-score against a baseline fitted on a training prefix, and an EWMA
tracker that scores deviation from a running mean scaled by a running
mean absolute deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Sequence

from .ingest import csv_line, parse_flag, parse_float, parse_uint, read_csv, write_csv
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


@dataclass(frozen=True)
class Verdict:
    """One detector decision for one bucket in one epoch."""

    detector_id: str
    epoch_index: int
    bucket: int
    score: float
    anomalous: bool


def detect_threshold(
    snapshot: EpochSnapshot, feature: str, threshold: float
) -> list[Verdict]:
    """Score every bucket by its raw feature value."""
    out = []
    for bucket, cell in enumerate(snapshot.cells):
        x = feature_value(cell, feature)
        out.append(Verdict("threshold", snapshot.epoch_index, bucket, x, x > threshold))
    return out


@dataclass(frozen=True)
class BaselineModel:
    """Per-bucket mean and population standard deviation of one feature
    over a training prefix of epochs."""

    feature: str
    training_epochs: int
    means: tuple[float, ...]
    stds: tuple[float, ...]

    @property
    def bucket_count(self) -> int:
        return len(self.means)


def fit_baseline(snapshots: Sequence[EpochSnapshot], feature: str) -> BaselineModel:
    """Fit a BaselineModel on the given epochs (at least two)."""
    n = len(snapshots)
    if n < 2:
        raise ValueError(f"baseline needs at least 2 training epochs, got {n}")
    bucket_count = len(snapshots[0].cells)
    for snap in snapshots:
        if len(snap.cells) != bucket_count:
            raise ValueError("training snapshots disagree on bucket count")
    means = []
    stds = []
    for b in range(bucket_count):
        values = [feature_value(snap.cells[b], feature) for snap in snapshots]
        mean = sum(values) / n
        var = sum((x - mean) ** 2 for x in values) / n
        means.append(mean)
        stds.append(math.sqrt(var))
    return BaselineModel(feature, n, tuple(means), tuple(stds))


def detect_zscore(snapshot: EpochSnapshot, model: BaselineModel, k: float) -> list[Verdict]:
    """Score each bucket by |x - mean| / std against the baseline.

    A zero-std bucket scores 0 when x equals its mean and +inf
    otherwise.  That covers a bucket with no training traffic: every
    feature of an empty cell is 0 and no feature is negative, so its
    mean and std are 0 and it scores +inf for any traffic and 0 for
    none.
    """
    if len(snapshot.cells) != model.bucket_count:
        raise ValueError(
            f"snapshot has {len(snapshot.cells)} buckets, model expects {model.bucket_count}"
        )
    out = []
    for bucket, cell in enumerate(snapshot.cells):
        x = feature_value(cell, model.feature)
        std = model.stds[bucket]
        if std == 0.0:
            score = 0.0 if x == model.means[bucket] else _INF
        else:
            score = abs(x - model.means[bucket]) / std
        out.append(Verdict("zscore", snapshot.epoch_index, bucket, score, score > k))
    return out


class EwmaDetector:
    """Streaming per-bucket EWMA with a mean-absolute-deviation scale.

    Scores are computed against the state from previous epochs before
    the state absorbs the current one, so the first epoch observed is
    all benign by construction.
    """

    def __init__(self, feature: str, alpha: float, k: float):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if feature not in FEATURES:
            raise ValueError(f"unknown feature selector {feature!r}")
        self.feature = feature
        self.alpha = alpha
        self.k = k
        self._means: list[float] | None = None
        self._devs: list[float] | None = None

    def observe(self, snapshot: EpochSnapshot) -> list[Verdict]:
        xs = [feature_value(cell, self.feature) for cell in snapshot.cells]
        epoch = snapshot.epoch_index
        if self._means is None:
            self._means = list(xs)
            self._devs = [0.0] * len(xs)
            return [Verdict("ewma", epoch, b, 0.0, False) for b in range(len(xs))]
        if len(xs) != len(self._means):
            raise ValueError(
                f"snapshot has {len(xs)} buckets, detector state has {len(self._means)}"
            )
        alpha = self.alpha
        out = []
        for b, x in enumerate(xs):
            m_prev = self._means[b]
            d_prev = self._devs[b]
            delta = abs(x - m_prev)
            score = delta / max(d_prev, EWMA_EPS)
            out.append(Verdict("ewma", epoch, b, score, score > self.k))
            self._means[b] = alpha * x + (1.0 - alpha) * m_prev
            self._devs[b] = alpha * delta + (1.0 - alpha) * d_prev
        return out


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
) -> list[Verdict]:
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
        if train > len(snapshots):
            raise ValueError(
                f"train_epochs={train} exceeds available epochs ({len(snapshots)})"
            )
        model = fit_baseline(snapshots[:train], setting.feature)
        observe = partial(detect_zscore, model=model, k=setting.k)
    else:
        observe = EwmaDetector(setting.feature, setting.alpha, setting.k).observe
    out: list[Verdict] = []
    for snap in snapshots:
        out.extend(observe(snap))
    return out


VERDICT_HEADER = "detector_id,epoch_index,bucket,score,anomalous"


def write_verdicts(path, verdicts: Sequence[Verdict]) -> None:
    write_csv(
        path,
        VERDICT_HEADER,
        (csv_line(v.detector_id, v.epoch_index, v.bucket, v.score, v.anomalous) for v in verdicts),
    )


def _verdict_row(f: list[str]) -> Verdict:
    return Verdict(f[0], parse_uint(f[1]), parse_uint(f[2]), parse_float(f[3]), parse_flag(f[4]))


def parse_verdicts(lines: Iterable[str]) -> list[Verdict]:
    return list(read_csv(lines, VERDICT_HEADER, _verdict_row))
