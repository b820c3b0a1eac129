"""Differential guard for the epoch pipeline: collect_epochs ->
run_detector -> score must give the verdicts and confusion counts of a
straightforward dense pipeline, which scores every bucket of every
epoch one by one.

The reference below is a plain copy of the dense detectors and scorer:
per-epoch snapshots of all 2**W stage-0 cells, detect_threshold,
fit_baseline + detect_zscore, the EWMA recurrence and a cell-by-cell
score.  Inputs cover random widths, stage counts, epoch lengths and key
specs, gaps of several epochs, every feature, and thresholds, k and
alpha at and below zero and at the edges of their ranges.  The
verdicts also go through a verdict file and back: the parsed rows are
exactly the stored ones, and expanded they are the dense reference.
"""

import math

from hypothesis import given, settings, strategies as st

from flowsketch.detectors import (
    FEATURES,
    DetectorSetting,
    Verdict,
    feature_value,
    parse_verdicts,
    run_detector,
    write_verdicts,
)
from flowsketch.evaluation import GroundTruthGrid, score
from flowsketch.hashing import KeySpec
from flowsketch.ingest import Label
from flowsketch.oracle import ExactTracker
from flowsketch.sketch import Sketch, SketchConfig, collect_epochs

from conftest import count_snapshot, dense_cells, dense_verdicts, make_packet, per_packet_replay

KEY_SPECS = (KeySpec(("src_ip",)), KeySpec(("src_ip", "dst_port")), KeySpec(("dst_port", "protocol")))
EWMA_EPS = 1e-9


def dense_snapshots(config, packets):
    """(epoch_index, complete, cells) per epoch that the reference
    replay closes, cells holding all 2**W stage-0 buckets, an untouched
    one as StageCell()."""
    out = []

    def visit(sk, index, complete):
        out.append((index, complete, dense_cells(sk.stage(0), sk.config.bucket_count)))

    per_packet_replay(Sketch(config), packets, visit)
    return out


def dense_threshold(snaps, feature, threshold):
    out = []
    for epoch, cells in snaps:
        for bucket, cell in enumerate(cells):
            x = feature_value(cell, feature)
            out.append(Verdict("threshold", epoch, bucket, x, x > threshold))
    return out


def dense_zscore(snaps, feature, k, train_epochs):
    if train_epochs > len(snaps):
        raise ValueError("train_epochs exceeds available epochs")
    train = snaps[:train_epochs]
    n = len(train)
    means, stds = [], []
    for b in range(len(snaps[0][1])):
        values = [feature_value(cells[b], feature) for _, cells in train]
        mean = sum(values) / n
        var = sum((x - mean) ** 2 for x in values) / n
        means.append(mean)
        stds.append(math.sqrt(var))
    out = []
    for epoch, cells in snaps:
        for bucket, cell in enumerate(cells):
            x = feature_value(cell, feature)
            std = stds[bucket]
            if std == 0.0:
                s = 0.0 if x == means[bucket] else math.inf
            else:
                s = abs(x - means[bucket]) / std
            out.append(Verdict("zscore", epoch, bucket, s, s > k))
    return out


def dense_ewma(snaps, feature, alpha, k):
    out = []
    means = devs = None
    for epoch, cells in snaps:
        xs = [feature_value(cell, feature) for cell in cells]
        if means is None:
            means = list(xs)
            devs = [0.0] * len(xs)
            out.extend(Verdict("ewma", epoch, b, 0.0, False) for b in range(len(xs)))
            continue
        for b, x in enumerate(xs):
            m_prev = means[b]
            d_prev = devs[b]
            delta = abs(x - m_prev)
            s = delta / max(d_prev, EWMA_EPS)
            out.append(Verdict("ewma", epoch, b, s, s > k))
            means[b] = alpha * x + (1.0 - alpha) * m_prev
            devs[b] = alpha * delta + (1.0 - alpha) * d_prev
    return out


def dense_score(verdicts, grid):
    """Confusion counts, one verdict per grid cell."""
    assert len(verdicts) == grid.bucket_count * grid.epoch_count
    assert len({(v.bucket, v.epoch_index) for v in verdicts}) == len(verdicts)
    tp = fp = fn = tn = 0
    for v in verdicts:
        truth = (v.bucket, v.epoch_index) in grid.anomalous
        if v.anomalous and truth:
            tp += 1
        elif v.anomalous:
            fp += 1
        elif truth:
            fn += 1
        else:
            tn += 1
    return tp, fp, fn, tn


@st.composite
def gapped_runs(draw):
    width = draw(st.integers(1, 10))
    stages = draw(st.integers(1, 3))
    epoch_ns = draw(st.integers(1, 1000))
    config = SketchConfig(width, stages, epoch_ns, draw(st.sampled_from(KEY_SPECS)))
    within = st.integers(0, epoch_ns - 1)
    across = st.integers(epoch_ns, 6 * epoch_ns)
    gaps = draw(st.lists(st.one_of(within, within, across), min_size=1, max_size=24))
    ts = draw(st.integers(0, 10**6))
    packets = []
    for gap in [0] + gaps:
        ts += gap
        packets.append(
            make_packet(
                ts=ts,
                src=draw(st.integers(1, 8)),
                dport=draw(st.sampled_from((53, 80, 443))),
                proto=draw(st.sampled_from((6, 17))),
                length=draw(st.sampled_from((60, 576, 1500))),
                label=draw(st.sampled_from((Label.BENIGN, Label.BENIGN, Label.ANOMALOUS))),
            )
        )
    return config, packets


def exact_bits(verdicts):
    return [(v.detector_id, v.epoch_index, v.bucket, v.score.hex(), v.anomalous) for v in verdicts]


@settings(max_examples=300, deadline=None)
@given(
    gapped_runs(),
    st.sampled_from(FEATURES),
    st.sampled_from((-1.0, 0.0, 0.5, 1.0, 3.0, 700.0)),
    st.sampled_from((-1.0, 0.0, 3.0)),
    st.sampled_from((0.3, 1.0)),
    st.integers(2, 40),
)
def test_sparse_pipeline_matches_dense_reference(
    tmp_path_factory, run, feature, threshold, k, alpha, train_epochs
):
    assert_matches_dense_reference(tmp_path_factory, run, feature, threshold, k, alpha, train_epochs)


@settings(max_examples=150, deadline=None)
@given(
    gapped_runs(),
    st.sampled_from(FEATURES),
    st.sampled_from((-1, 0, 1, 3, 700)),
    st.sampled_from((-1, 0, 3)),
    st.sampled_from((0.3, 1.0)),
    st.integers(2, 40),
)
def test_sparse_pipeline_with_int_limits_matches_dense_reference(
    tmp_path_factory, run, feature, threshold, k, alpha, train_epochs
):
    # A verdict is anomalous when its score is above an int threshold or
    # k just as above a float one.
    assert_matches_dense_reference(tmp_path_factory, run, feature, threshold, k, alpha, train_epochs)


def assert_matches_dense_reference(tmp_path_factory, run, feature, threshold, k, alpha, train_epochs):
    config, packets = run
    path = tmp_path_factory.mktemp("verdicts") / "verdicts.csv"
    reference = [(i, cells) for i, complete, cells in dense_snapshots(config, packets) if complete]
    completed = [s for s in collect_epochs(Sketch(config), packets) if s.complete]
    assert [s.epoch_index for s in completed] == [i for i, _ in reference]
    for snap, (_, cells) in zip(completed, reference):
        assert dense_cells(dict(zip(snap.buckets, snap.cells)), snap.bucket_count) == cells
    tracker = ExactTracker(config)
    for pkt in packets:
        tracker.update(pkt)
    grid = GroundTruthGrid.from_tracker(tracker, len(completed))
    train_epochs = min(train_epochs, len(reference) + 1)
    cases = (
        (DetectorSetting("threshold", feature, threshold=threshold),
         lambda: dense_threshold(reference, feature, threshold)),
        (DetectorSetting("zscore", feature, k=k, train_epochs=train_epochs),
         lambda: dense_zscore(reference, feature, k, train_epochs)),
        (DetectorSetting("ewma", feature, k=k, alpha=alpha),
         lambda: dense_ewma(reference, feature, alpha, k)),
    )
    for setting, dense in cases:
        try:
            want = dense()
        except ValueError:
            try:
                run_detector(setting, completed)
            except ValueError:
                continue
            raise AssertionError(f"{setting} ran where the dense reference fails")
        got = run_detector(setting, completed)
        dense = dense_verdicts(got, config.bucket_count)
        assert len(dense) == len(want)
        assert exact_bits(dense) == exact_bits(want)
        write_verdicts(path, got)
        with open(path, newline="") as fh:
            parsed = parse_verdicts(fh)
        assert parsed == list(got)
        assert exact_bits(parsed) == exact_bits(got)
        assert exact_bits(dense_verdicts(parsed, config.bucket_count)) == exact_bits(want)
        quality = score(got, grid)
        assert (quality.tp, quality.fp, quality.fn, quality.tn) == dense_score(want, grid)


def test_stateful_buckets_absent_from_a_snapshot_match_dense_reference():
    # Buckets 0 and 2 have training traffic and EWMA state; epoch 2
    # touches no bucket and epoch 3 only bucket 1, so both are scored
    # from an empty cell, beside the shared verdict.
    counts = ([5, 0, 3, 0], [7, 0, 3, 0], [0, 0, 0, 0], [0, 2, 0, 0], [5, 0, 0, 0])
    snaps = [count_snapshot(e, row) for e, row in enumerate(counts)]
    reference = [(s.epoch_index, dense_cells(dict(zip(s.buckets, s.cells)), 4)) for s in snaps]
    assert snaps[2].buckets == () and snaps[3].buckets == (1,)
    # count_snapshot's cells hold no gaps, so iat_avg_ns reads 0 and
    # leaves no state.
    for feature in ("pkt_count", "byte_sum", "byte_avg"):
        for setting, want in (
            (DetectorSetting("zscore", feature, k=1, train_epochs=2), dense_zscore(reference, feature, 1, 2)),
            (DetectorSetting("ewma", feature, k=1, alpha=0.5), dense_ewma(reference, feature, 0.5, 1)),
        ):
            got = run_detector(setting, snaps)
            assert [v.bucket for v in got.epochs[2].explicit] == [0, 2]
            assert exact_bits(dense_verdicts(got, 4)) == exact_bits(want)
