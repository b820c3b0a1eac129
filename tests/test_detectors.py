"""Threshold, z-score, and EWMA detectors."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from flowsketch.detectors import (
    FEATURES,
    VERDICT_HEADER,
    DetectorSetting,
    EwmaDetector,
    Verdict,
    detect_threshold,
    detect_zscore,
    feature_column,
    feature_value,
    fit_baseline,
    parse_verdicts,
    run_detector,
    write_verdicts,
)
from flowsketch.ingest import TraceFormatError
from flowsketch.sketch import BucketSums, EpochSnapshot, StageCell

from conftest import count_snapshot, dense_cells, dense_verdicts


def test_feature_values():
    empty = StageCell()
    assert feature_value(empty, "pkt_count") == 0.0
    assert feature_value(empty, "byte_avg") == 0.0
    assert feature_value(empty, "iat_avg_ns") == 0.0
    cell = StageCell(pkt_count=4, byte_sum=600, iat_sum_ns=3000, iat_count=3)
    assert feature_value(cell, "pkt_count") == 4.0
    assert feature_value(cell, "byte_sum") == 600.0
    assert feature_value(cell, "byte_avg") == 150.0
    assert feature_value(cell, "iat_avg_ns") == 1000.0
    with pytest.raises(ValueError):
        feature_value(cell, "entropy")


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.builds(
        StageCell,
        pkt_count=st.integers(-1, 3), byte_sum=st.integers(-1, 3000),
        iat_sum_ns=st.integers(-1, 50), iat_count=st.integers(-1, 3),
    )),
    st.sampled_from(FEATURES),
)
def test_feature_column_is_the_feature_value_of_each_cell(cells, feature):
    # Zero counts with nonzero sums and negative counts are no cell the
    # sketch builds; the column still reads them as feature_value does.
    want = [feature_value(cell, feature).hex() for cell in cells]
    assert [x.hex() for x in feature_column(cells, feature)] == want
    sums = [BucketSums(c.pkt_count, c.byte_sum, c.iat_sum_ns, c.iat_count) for c in cells]
    assert [x.hex() for x in feature_column(sums, feature)] == want


def test_threshold_detector():
    snap = count_snapshot(0, [0, 100, 99, 101])
    verdicts = dense_verdicts(detect_threshold(snap, "pkt_count", 99.0))
    assert [v.anomalous for v in verdicts] == [False, True, False, True]
    assert [v.score for v in verdicts] == [0.0, 100.0, 99.0, 101.0]
    assert all(v.detector_id == "threshold" and v.epoch_index == 0 for v in verdicts)
    none_flagged = dense_verdicts(detect_threshold(snap, "pkt_count", math.inf))
    assert not any(v.anomalous for v in none_flagged)


def test_threshold_scale_equivariance():
    rng = random.Random(19)
    counts = [rng.randrange(200) for _ in range(16)]
    scaled = [3 * c for c in counts]
    base = dense_verdicts(detect_threshold(count_snapshot(0, counts), "pkt_count", 70.0))
    tripled = dense_verdicts(detect_threshold(count_snapshot(0, scaled), "pkt_count", 210.0))
    assert [v.anomalous for v in base] == [v.anomalous for v in tripled]


def test_threshold_monotone_in_threshold():
    rng = random.Random(29)
    snap = count_snapshot(0, [rng.randrange(100) for _ in range(32)])
    low = {v.bucket for v in dense_verdicts(detect_threshold(snap, "pkt_count", 20.0)) if v.anomalous}
    high = {v.bucket for v in dense_verdicts(detect_threshold(snap, "pkt_count", 60.0)) if v.anomalous}
    assert high <= low


def test_fit_baseline_frozen_values():
    snaps = [count_snapshot(e, [10, 8, 0]) for e in range(3)]
    snaps[1] = count_snapshot(1, [10, 12, 0])
    model = fit_baseline(snaps, "pkt_count")
    assert model.training_epochs == 3
    assert model.means[0] == 10.0 and model.stds[0] == 0.0
    # bucket 1 sees 8, 12, 8: mean 28/3, population variance 32/9
    assert model.means[1] == pytest.approx(28 / 3)
    assert model.stds[1] == pytest.approx(math.sqrt(32 / 9))
    # no training traffic: mean 0 and std 0, held as no entry
    assert 2 not in model.means and 2 not in model.stds
    assert model.means.get(2, 0.0) == 0.0 and model.stds.get(2, 0.0) == 0.0


def test_fit_baseline_two_epoch_example():
    model = fit_baseline([count_snapshot(0, [8]), count_snapshot(1, [12])], "pkt_count")
    assert model.means[0] == 10.0
    assert model.stds[0] == 2.0  # population std, divide by n


def test_fit_baseline_needs_two_epochs():
    with pytest.raises(ValueError):
        fit_baseline([count_snapshot(0, [1])], "pkt_count")
    with pytest.raises(ValueError):
        fit_baseline([count_snapshot(0, [1]), count_snapshot(1, [1, 2])], "pkt_count")


def test_zscore_scores():
    # baseline: mean 100, std 10
    train = [count_snapshot(0, [90]), count_snapshot(1, [110])]
    model = fit_baseline(train, "pkt_count")
    assert model.means[0] == 100.0 and model.stds[0] == 10.0
    (v,) = dense_verdicts(detect_zscore(count_snapshot(2, [131]), model, k=3.0))
    assert v.score == pytest.approx(3.1)
    assert v.anomalous
    (v,) = dense_verdicts(detect_zscore(count_snapshot(2, [129]), model, k=3.0))
    assert v.score == pytest.approx(2.9)
    assert not v.anomalous
    assert v.detector_id == "zscore"


def test_zscore_zero_std():
    model = fit_baseline([count_snapshot(0, [7]), count_snapshot(1, [7])], "pkt_count")
    (v,) = dense_verdicts(detect_zscore(count_snapshot(2, [7]), model, k=3.0))
    assert v.score == 0.0 and not v.anomalous
    (v,) = dense_verdicts(detect_zscore(count_snapshot(2, [8]), model, k=3.0))
    assert v.score == math.inf and v.anomalous


def test_zscore_cold_bucket():
    model = fit_baseline([count_snapshot(0, [0, 5]), count_snapshot(1, [0, 5])], "pkt_count")
    assert 0 not in model.means and 0 not in model.stds
    assert model.means.get(0, 0.0) == 0.0 and model.stds.get(0, 0.0) == 0.0
    verdicts = dense_verdicts(detect_zscore(count_snapshot(2, [3, 5]), model, k=3.0))
    assert verdicts[0].score == math.inf and verdicts[0].anomalous
    verdicts = dense_verdicts(detect_zscore(count_snapshot(2, [0, 5]), model, k=3.0))
    assert verdicts[0].score == 0.0 and not verdicts[0].anomalous


def reference_zscore(snapshots, feature, k, train_epochs):
    """Independent z-score reference with an explicit cold-bucket rule:
    a bucket that saw no packet in training scores +inf for any traffic
    and 0 for none; other zero-std buckets score 0 at their mean and
    +inf elsewhere."""
    dense = [dense_cells(dict(zip(s.buckets, s.cells)), s.bucket_count) for s in snapshots]
    train = dense[:train_epochs]
    model = []
    for b in range(snapshots[0].bucket_count):
        values = [feature_value(cells[b], feature) for cells in train]
        mean = sum(values) / len(values)
        std = math.sqrt(sum((x - mean) ** 2 for x in values) / len(values))
        cold = all(cells[b].pkt_count == 0 for cells in train)
        model.append((mean, std, cold))
    out = []
    for snap, cells in zip(snapshots, dense):
        for b, cell in enumerate(cells):
            x = feature_value(cell, feature)
            mean, std, cold = model[b]
            if cold:
                score = math.inf if x > 0 else 0.0
            elif std == 0.0:
                score = 0.0 if x == mean else math.inf
            else:
                score = abs(x - mean) / std
            out.append(Verdict("zscore", snap.epoch_index, b, score, score > k))
    return out


@st.composite
def sketch_cells(draw):
    """A cell as the sketch builds it: empty, or with packets, nonnegative
    sums and at most pkt_count - 1 gaps.  Small ranges make ties, zero
    deviations and buckets idle through training common."""
    pkt = draw(st.integers(0, 3))
    if pkt == 0:
        return StageCell()
    gaps = draw(st.integers(0, pkt - 1))
    return StageCell(
        pkt_count=pkt,
        byte_sum=draw(st.integers(0, 3 * pkt)),
        iat_count=gaps,
        iat_sum_ns=draw(st.integers(0, 3 * gaps)),
    )


@st.composite
def zscore_runs(draw):
    buckets = draw(st.integers(1, 4))
    epochs = draw(st.integers(2, 6))
    row = st.lists(sketch_cells(), min_size=buckets, max_size=buckets)
    snaps = []
    for e in range(epochs):
        touched = [(b, cell) for b, cell in enumerate(draw(row)) if cell.pkt_count]
        snaps.append(EpochSnapshot(
            e, e * 1000, True, buckets,
            tuple(b for b, _ in touched), tuple(cell for _, cell in touched),
        ))
    return snaps, draw(st.integers(2, epochs))


@settings(max_examples=300, deadline=None)
@given(zscore_runs(), st.sampled_from(FEATURES), st.sampled_from((-1.0, 0.0, 0.5, 3.0)))
def test_zscore_matches_cold_rule_reference(run, feature, k):
    snaps, train = run
    setting = DetectorSetting("zscore", feature, k=k, train_epochs=train)
    assert dense_verdicts(run_detector(setting, snaps)) == reference_zscore(snaps, feature, k, train)


def test_zscore_shift_invariance():
    rng = random.Random(37)
    base = [[rng.randrange(50) for _ in range(8)] for _ in range(4)]
    shift = 17
    plain_model = fit_baseline(
        [count_snapshot(e, row) for e, row in enumerate(base[:3])], "pkt_count"
    )
    shifted_model = fit_baseline(
        [count_snapshot(e, [c + shift for c in row]) for e, row in enumerate(base[:3])],
        "pkt_count",
    )
    plain = dense_verdicts(detect_zscore(count_snapshot(3, base[3]), plain_model, k=2.0))
    shifted = dense_verdicts(detect_zscore(
        count_snapshot(3, [c + shift for c in base[3]]), shifted_model, k=2.0
    ))
    # invariance is exact in the reals; floats only round the last bits
    assert [v.score for v in plain] == pytest.approx([v.score for v in shifted], rel=1e-9)
    assert [v.anomalous for v in plain] == [v.anomalous for v in shifted]


def test_zscore_bucket_count_mismatch():
    model = fit_baseline([count_snapshot(0, [1, 2]), count_snapshot(1, [1, 2])], "pkt_count")
    with pytest.raises(ValueError):
        detect_zscore(count_snapshot(2, [1, 2, 3]), model, k=1.0)


def test_ewma_first_epoch_benign():
    det = EwmaDetector("pkt_count", alpha=0.5, k=3.0)
    verdicts = dense_verdicts(det.observe(count_snapshot(0, [50, 0, 9999])))
    assert all(not v.anomalous and v.score == 0.0 for v in verdicts)


def test_ewma_constant_series_stays_quiet():
    det = EwmaDetector("pkt_count", alpha=0.3, k=3.0)
    for epoch in range(10):
        verdicts = dense_verdicts(det.observe(count_snapshot(epoch, [5, 5, 5, 5])))
        assert all(v.score == 0.0 and not v.anomalous for v in verdicts)


def test_ewma_recurrence_frozen():
    # series 10, 10, 22, 10 at alpha 0.5:
    #   epoch 1: |10-10| / eps = 0
    #   epoch 2: |22-10| / eps  (deviation still 0, floored at 1e-9)
    #   epoch 3: m=16, d=6 after epoch 2, so |10-16| / 6 = 1
    det = EwmaDetector("pkt_count", alpha=0.5, k=3.0)
    scores = [
        dense_verdicts(det.observe(count_snapshot(e, [x])))[0].score
        for e, x in enumerate((10, 10, 22, 10))
    ]
    assert scores[0] == 0.0
    assert scores[1] == 0.0
    assert scores[2] == pytest.approx(12.0 / 1e-9)
    assert scores[3] == pytest.approx(1.0)


def _assert_ewma_recurrence(series: list[list[int]], alpha: float, k: float) -> None:
    """EwmaDetector's dense verdicts against the recurrence written out
    bucket by bucket."""
    buckets = len(series[0])
    det = EwmaDetector("pkt_count", alpha=alpha, k=k)
    got = [dense_verdicts(det.observe(count_snapshot(e, row))) for e, row in enumerate(series)]
    m = list(map(float, series[0]))
    d = [0.0] * buckets
    for epoch in range(1, len(series)):
        for b in range(buckets):
            x = float(series[epoch][b])
            expected = abs(x - m[b]) / max(d[b], 1e-9)
            v = got[epoch][b]
            assert v.score == pytest.approx(expected, rel=1e-12)
            assert v.anomalous == (v.score > k)
            d[b] = alpha * abs(x - m[b]) + (1 - alpha) * d[b]
            m[b] = alpha * x + (1 - alpha) * m[b]


def test_ewma_matches_independent_recurrence():
    rng = random.Random(43)
    _assert_ewma_recurrence([[rng.randrange(100) for _ in range(6)] for _ in range(20)], 0.3, 2.0)


@pytest.mark.parametrize("alpha", [0.3, 1.0])
def test_ewma_matches_recurrence_as_buckets_go_idle(alpha):
    # Bursts between idle epochs: at alpha 1 an idle bucket's state falls
    # to zero and is dropped in the same epoch that other idle buckets
    # are scored from theirs.
    rng = random.Random(47)
    _assert_ewma_recurrence([[rng.choice((0, 0, 0, 7, 40)) for _ in range(8)] for _ in range(25)], alpha, 2.0)


def test_ewma_validation():
    with pytest.raises(ValueError):
        EwmaDetector("pkt_count", alpha=0.0, k=1.0)
    with pytest.raises(ValueError):
        EwmaDetector("pkt_count", alpha=1.5, k=1.0)
    with pytest.raises(ValueError):
        EwmaDetector("entropy", alpha=0.5, k=1.0)
    EwmaDetector("pkt_count", alpha=1.0, k=1.0)
    det = EwmaDetector("pkt_count", alpha=0.5, k=1.0)
    det.observe(count_snapshot(0, [1, 2]))
    with pytest.raises(ValueError):
        det.observe(count_snapshot(1, [1, 2, 3]))


def test_run_detector_ewma_order():
    snaps = [count_snapshot(e, [1, 2]) for e in range(3)]
    verdicts = dense_verdicts(run_detector(DetectorSetting("ewma", "pkt_count", alpha=0.5, k=1.0), snaps))
    assert len(verdicts) == 6
    assert all(v.detector_id == "ewma" for v in verdicts)
    assert [v.epoch_index for v in verdicts] == [0, 0, 1, 1, 2, 2]


def test_run_detector_dispatch_and_coverage():
    snaps = [count_snapshot(e, [3, 3, 3, 3]) for e in range(5)]
    for setting in (
        DetectorSetting("threshold", threshold=10.0),
        DetectorSetting("zscore", k=3.0, train_epochs=2),
        DetectorSetting("ewma", k=3.0, alpha=0.5),
    ):
        verdicts = dense_verdicts(run_detector(setting, snaps))
        assert len(verdicts) == 20  # one per bucket per epoch, training included
        cells = {(v.epoch_index, v.bucket) for v in verdicts}
        assert len(cells) == 20


def test_run_detector_validation():
    snaps = [count_snapshot(e, [1]) for e in range(3)]
    with pytest.raises(ValueError):
        run_detector(DetectorSetting("threshold"), snaps)  # no threshold
    with pytest.raises(ValueError):
        run_detector(DetectorSetting("zscore", k=1.0), snaps)  # no train_epochs
    with pytest.raises(ValueError):
        run_detector(DetectorSetting("zscore", k=1.0, train_epochs=4), snaps)
    with pytest.raises(ValueError, match=r"train_epochs=-1 must be nonnegative"):
        run_detector(DetectorSetting("zscore", k=1.0, train_epochs=-1), snaps * 2)
    # A prefix too short for a baseline is refused by the setting alone.
    for train in (0, 1):
        for epochs in (snaps, []):
            with pytest.raises(ValueError, match=f"^baseline needs at least 2 training epochs, got {train}$"):
                run_detector(DetectorSetting("zscore", k=1.0, train_epochs=train), epochs)
    with pytest.raises(ValueError):
        run_detector(DetectorSetting("ewma", k=1.0), snaps)  # no alpha
    with pytest.raises(ValueError):
        run_detector(DetectorSetting("madness"), snaps)
    with pytest.raises(ValueError):
        run_detector(DetectorSetting("threshold", feature="entropy", threshold=1.0), snaps)
    # A NaN limit compares false with every score, so it would flag
    # nothing; it is refused even with no epoch to score.
    for setting, name in (
        (DetectorSetting("threshold", threshold=math.nan), "threshold"),
        (DetectorSetting("zscore", k=math.nan, train_epochs=1), "k"),
        (DetectorSetting("ewma", k=math.nan, alpha=0.3), "k"),
    ):
        for epochs in (snaps, []):
            with pytest.raises(ValueError, match=f"^{setting.kind} detector {name} must be a number, got nan$"):
                run_detector(setting, epochs)


def test_verdict_invariant_score_exceeds_threshold():
    rng = random.Random(47)
    snaps = [count_snapshot(e, [rng.randrange(30) for _ in range(8)]) for e in range(6)]
    for setting, bound in (
        (DetectorSetting("threshold", threshold=12.0), 12.0),
        (DetectorSetting("zscore", k=1.5, train_epochs=3), 1.5),
        (DetectorSetting("ewma", k=1.5, alpha=0.4), 1.5),
    ):
        for v in dense_verdicts(run_detector(setting, snaps)):
            assert v.anomalous == (v.score > bound)


def test_detectors_are_deterministic():
    rng = random.Random(53)
    snaps = [count_snapshot(e, [rng.randrange(50) for _ in range(8)]) for e in range(6)]
    setting = DetectorSetting("zscore", k=2.0, train_epochs=3)
    assert run_detector(setting, snaps) == run_detector(setting, snaps)


def test_verdict_csv_round_trip(tmp_path):
    # bucket 0 is cold in training, bucket 1 has zero std: both go
    # infinite later and must survive serialization
    counts = ([0, 5, 3, 7], [0, 5, 4, 2], [1, 5, 9, 9], [0, 6, 2, 2])
    snaps = [count_snapshot(e, row) for e, row in enumerate(counts)]
    verdicts = run_detector(DetectorSetting("zscore", k=1.0, train_epochs=2), snaps)
    assert any(v.score == math.inf for v in dense_verdicts(verdicts))  # cold/zero-std paths serialize
    path = tmp_path / "verdicts.csv"
    write_verdicts(path, verdicts)
    with open(path, newline="") as fh:
        parsed = parse_verdicts(fh)
    assert parsed == list(verdicts)
    assert dense_verdicts(parsed, 4) == dense_verdicts(verdicts)
    first = path.read_bytes()
    write_verdicts(path, parsed)
    assert path.read_bytes() == first
    with pytest.raises(ValueError):
        parse_verdicts(["wrong,header"])
    assert parse_verdicts([VERDICT_HEADER]) == []


def test_verdict_file_holds_the_stored_rows(tmp_path):
    # Per epoch: the explicit verdicts in ascending bucket order, then
    # one row with an empty bucket for the buckets left over, written
    # even where none is left over (epoch 1 touches both buckets).
    snaps = [count_snapshot(0, [0, 7]), count_snapshot(1, [3, 5])]
    verdicts = run_detector(DetectorSetting("threshold", threshold=4.0), snaps)
    assert len(verdicts) == 5
    path = tmp_path / "verdicts.csv"
    write_verdicts(path, verdicts)
    assert path.read_text() == (
        f"{VERDICT_HEADER}\n"
        "threshold,0,1,7.0,true\n"
        "threshold,0,,0.0,false\n"
        "threshold,1,0,3.0,false\n"
        "threshold,1,1,5.0,true\n"
        "threshold,1,,0.0,false\n"
    )
    with open(path, newline="") as fh:
        assert parse_verdicts(fh) == [
            Verdict("threshold", 0, 1, 7.0, True),
            Verdict("threshold", 0, None, 0.0, False),
            Verdict("threshold", 1, 0, 3.0, False),
            Verdict("threshold", 1, 1, 5.0, True),
            Verdict("threshold", 1, None, 0.0, False),
        ]


def test_detector_verdicts_are_hashable_columns():
    # Every column is a tuple, the stateful detectors' sorted union of
    # touched and stateful buckets included, so verdicts hash by value.
    snaps = [count_snapshot(0, [0, 7, 2]), count_snapshot(1, [3, 0, 0]), count_snapshot(2, [0, 5, 0])]
    for setting in (
        DetectorSetting("threshold", threshold=4.0),
        DetectorSetting("zscore", k=1.0, train_epochs=2),
        DetectorSetting("ewma", k=1.0, alpha=0.5),
    ):
        verdicts = run_detector(setting, snaps)
        assert hash(verdicts) == hash(run_detector(setting, snaps)), setting.kind
        for epoch in verdicts.epochs:
            assert {type(c) for c in (epoch.buckets, epoch.scores, epoch.flags)} == {tuple}, setting.kind


@pytest.mark.parametrize("bad", ["zscore,1,0", "zscore,1,0,0.5,maybe", "zscore,1,x,0.5,true"])
def test_parse_verdicts_names_bad_line(bad):
    with pytest.raises(TraceFormatError) as err:
        parse_verdicts([VERDICT_HEADER, "zscore,0,0,inf,true", bad])
    assert err.value.line_no == 3


@pytest.mark.parametrize("field, text", [(1, "+1"), (2, "0_7"), (1, "01"), (2, " 3"), (1, "-0")])
def test_parse_verdicts_rejects_non_canonical_integer(field, text):
    good = "zscore,1,7,0.5,false"
    fields = good.split(",")
    fields[field] = text
    with pytest.raises(TraceFormatError) as err:
        parse_verdicts([VERDICT_HEADER, good, ",".join(fields)])
    assert err.value.line_no == 3


@pytest.mark.parametrize("text", ["+0.5", "1_0.5", " 2.5", "5E-1", "0.50", "nan", "Infinity", ".5"])
def test_parse_verdicts_rejects_non_canonical_float(text):
    good = "zscore,1,7,0.5,false"
    with pytest.raises(TraceFormatError) as err:
        parse_verdicts([VERDICT_HEADER, good, f"zscore,1,8,{text},false"])
    assert err.value.line_no == 3


@pytest.mark.parametrize("text", ["inf", "-inf", "0.0", "1e-05", "12345.678"])
def test_parse_verdicts_accepts_canonical_float(text):
    verdict, _ = parse_verdicts([VERDICT_HEADER, f"zscore,1,8,{text},true", "zscore,1,,0.0,false"])
    assert repr(verdict.score) == text


@pytest.mark.parametrize(
    "rows, message",
    [
        # explicit buckets must strictly ascend within an epoch
        pytest.param(
            ["zscore,0,5,1.0,true", "zscore,0,3,1.0,true"], "bucket 3 after bucket 5 in epoch 0",
            id="descending-bucket",
        ),
        pytest.param(
            ["zscore,0,3,1.0,true", "zscore,0,3,2.0,false"], "bucket 3 after bucket 3 in epoch 0",
            id="repeated-bucket",
        ),
        # explicit rows belong to the shared row that closes their epoch
        pytest.param(
            ["zscore,0,3,1.0,true", "zscore,1,,0.0,false"],
            "epoch 1 before the shared row of epoch 0",
            id="shared-row-of-another-epoch",
        ),
        pytest.param(
            ["zscore,0,3,1.0,true", "ewma,0,,0.0,false"],
            "detector 'ewma' after 'zscore' in one file",
            id="shared-row-of-another-detector",
        ),
        # epochs ascend, so an epoch has one shared row
        pytest.param(
            ["zscore,1,,0.0,false", "zscore,0,,0.0,false"], "epoch 0 after epoch 1",
            id="descending-epoch",
        ),
        pytest.param(
            ["zscore,0,,0.0,false", "zscore,0,,0.0,false"], "epoch 0 after epoch 0",
            id="second-shared-row",
        ),
        # one detector per file
        pytest.param(
            ["zscore,0,,0.0,false", "ewma,1,,0.0,false"],
            "detector 'ewma' after 'zscore' in one file",
            id="second-detector",
        ),
        # explicit rows need a shared row after them
        pytest.param(
            ["zscore,0,,0.0,false", "zscore,1,4,1.0,true"], "epoch 1 has no shared row",
            id="no-shared-row-at-end",
        ),
        # rows that the parser once accepted whole
        pytest.param(
            ["zscore,0,5,1.0,true", "zscore,0,3,1.0,true", "zscore,0,3,2.0,false",
             "ewma,7,,0.0,false", "zscore,0,,1.0,true"],
            "bucket 3 after bucket 5 in epoch 0",
            id="found-rows",
        ),
    ],
)
def test_parse_verdicts_accepts_only_the_written_layout(rows, message):
    with pytest.raises(TraceFormatError) as err:
        parse_verdicts([VERDICT_HEADER, *rows])
    assert err.value.line_no == 3
    assert str(err.value) == f"line 3: {message}"


def test_params_str_follows_detector_params():
    assert DetectorSetting("threshold", threshold=9.0).params_str() == "feature=pkt_count;threshold=9.0"
    assert (
        DetectorSetting("zscore", "byte_avg", k=3.0, train_epochs=2).params_str()
        == "feature=byte_avg;k=3.0;train_epochs=2"
    )
    assert (
        DetectorSetting("ewma", k=3.0, alpha=0.3).params_str()
        == "feature=pkt_count;k=3.0;alpha=0.3"
    )
    # A parameter the kind does not take has no effect on the run, so it
    # is not part of the id either.
    assert DetectorSetting("threshold", threshold=9.0, k=1.0).params_str() == (
        "feature=pkt_count;threshold=9.0"
    )
