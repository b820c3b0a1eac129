"""Quality scoring, resource model, Pareto partition, bench, and sweep."""

import json
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from flowsketch.detectors import DetectorSetting, EpochVerdicts, Verdict, Verdicts, run_detector
from flowsketch import evaluation, sketch
from flowsketch.evaluation import (
    REPORT_HEADER,
    GroundTruthGrid,
    ParetoPoint,
    QualityScores,
    SweepRow,
    bench_throughput,
    pareto_front,
    parse_report_csv,
    resource_model,
    score,
    sweep,
    write_report_csv,
    write_report_json,
)
from flowsketch.hashing import KeySpec, extract_key, shift_xor_hash
from flowsketch.ingest import (
    AnomalyKind,
    AnomalyProfile,
    Label,
    PARSE_CHUNK_ROWS,
    SyntheticProfile,
    TraceColumns,
    TraceFormatError,
    generate_synthetic,
    open_trace,
    parse_trace_chunks,
    read_trace,
    write_trace,
)
from flowsketch.oracle import ExactTracker
from flowsketch.sketch import CELL_BYTES, DEFAULT_MAX_CELLS, EpochCollector, FlowSums, Sketch, SketchConfig, collect_epochs

from conftest import column_chunks, make_packet, random_records

SRC_KEY = KeySpec(("src_ip",))


SHAPES = ("dense", "flagged", "benign")


def make_verdicts(grid, flagged, shape="dense"):
    """Verdicts flagging exactly the given cells.  dense gives every
    cell an explicit verdict; flagged makes the flagged cells explicit
    and shares a benign verdict among the rest; benign makes the other
    cells explicit and shares an anomalous one among the flagged."""
    epochs = []
    for e in range(grid.epoch_count):
        explicit = tuple(
            Verdict("test", e, b, 1.0, (b, e) in flagged)
            for b in range(grid.bucket_count)
            if shape == "dense" or (((b, e) in flagged) == (shape == "flagged"))
        )
        epochs.append(EpochVerdicts("test", e, grid.bucket_count, explicit, 0.0, shape == "benign"))
    return Verdicts(tuple(epochs))


def test_score_frozen_counts():
    grid = GroundTruthGrid(5, 4, frozenset((b, 0) for b in range(5)) | {(0, 1), (1, 1), (2, 1), (3, 1), (4, 1)})
    # 10 true cells; flag 8 of them plus 2 clean cells
    flagged = {(b, 0) for b in range(5)} | {(0, 1), (1, 1), (2, 1)} | {(0, 2), (1, 2)}
    for shape in SHAPES:
        q = score(make_verdicts(grid, flagged, shape), grid)
        assert (q.tp, q.fp, q.fn, q.tn) == (8, 2, 2, 8)
        assert q.precision == Fraction(4, 5)
        assert q.recall == Fraction(4, 5)
        assert q.f1 == Fraction(4, 5)


def test_score_zero_denominators():
    grid = GroundTruthGrid(4, 2, frozenset())
    for shape in SHAPES:
        q = score(make_verdicts(grid, set(), shape), grid)
        assert q == QualityScores(0, 0, 0, 8, Fraction(0), Fraction(0), Fraction(0))


def test_score_f1_harmonic_identity():
    rng = random.Random(3)
    for _ in range(50):
        truth = {(b, e) for b in range(6) for e in range(5) if rng.random() < 0.3}
        flagged = {(b, e) for b in range(6) for e in range(5) if rng.random() < 0.3}
        grid = GroundTruthGrid(6, 5, frozenset(truth))
        q = score(make_verdicts(grid, flagged), grid)
        assert q.tp + q.fp + q.fn + q.tn == 30
        if q.precision + q.recall > 0:
            assert q.f1 == 2 * q.precision * q.recall / (q.precision + q.recall)
        # the shared verdict's cells are counted by arithmetic
        for shape in SHAPES:
            assert score(make_verdicts(grid, flagged, shape), grid) == q


def test_score_permutation_invariance():
    rng = random.Random(5)
    grid = GroundTruthGrid(4, 4, frozenset({(0, 0), (3, 2)}))
    for shape in SHAPES:
        verdicts = make_verdicts(grid, {(0, 0), (1, 1)}, shape)
        shuffled = []
        for epoch in verdicts.epochs:
            explicit = list(epoch.explicit)
            rng.shuffle(explicit)
            shuffled.append(epoch._replace(explicit=tuple(explicit)))
        rng.shuffle(shuffled)
        assert score(Verdicts(tuple(shuffled)), grid) == score(verdicts, grid)


def test_score_domain_validation():
    grid = GroundTruthGrid(4, 2, frozenset())
    epochs = make_verdicts(grid, set()).epochs
    with pytest.raises(ValueError, match="cover 4 cells"):
        score(Verdicts(epochs[:-1]), grid)
    with pytest.raises(ValueError, match="duplicate"):
        score(Verdicts(epochs[:-1] + epochs[:1]), grid)  # epoch 0 twice, epoch 1 missing
    bad = epochs[-1]._replace(epoch_index=9)
    with pytest.raises(ValueError, match="outside the grid"):
        score(Verdicts(epochs[:-1] + (bad,)), grid)
    # explicit verdicts: repeated, outside the buckets, filed under another epoch
    last = epochs[-1]
    for explicit, message in (
        (last.explicit[:-1] + last.explicit[:1], "duplicate verdict for cell"),
        (last.explicit[:-1] + (Verdict("test", 1, 4, 0.0, False),), "outside"),
        (last.explicit[:-1] + (Verdict("test", 0, 3, 0.0, False),), "outside"),
    ):
        with pytest.raises(ValueError, match=message):
            score(Verdicts(epochs[:-1] + (last._replace(explicit=explicit),)), grid)
    # an epoch over a different bucket count
    with pytest.raises(ValueError, match="outside the grid"):
        score(Verdicts(tuple(e._replace(bucket_count=8) for e in epochs[:1])), grid)


def per_verdict_score(verdicts, grid):
    """The scorer as a loop over every explicit verdict in its given
    order, each checked, then matched: the reference for score's set
    counting, its messages included."""
    expected = grid.bucket_count * grid.epoch_count
    covered = sum(epoch.bucket_count for epoch in verdicts.epochs)
    if covered != expected:
        raise ValueError(f"verdicts cover {covered} cells, grid has {expected}")
    seen_epochs = set()
    tp = fp = fn = tn = 0
    for epoch in verdicts.epochs:
        e = epoch.epoch_index
        if epoch.bucket_count != grid.bucket_count or not 0 <= e < grid.epoch_count:
            raise ValueError(f"verdicts for epoch {e} over {epoch.bucket_count} buckets are outside the grid")
        if e in seen_epochs:
            raise ValueError(f"duplicate verdicts for epoch {e}")
        seen_epochs.add(e)
        seen = set()
        for v in epoch.explicit:
            cell = (v.bucket, v.epoch_index)
            if v.epoch_index != e or not 0 <= v.bucket < grid.bucket_count:
                raise ValueError(f"verdict for {cell} is outside epoch {e} of the grid")
            if v.bucket in seen:
                raise ValueError(f"duplicate verdict for cell {cell}")
            seen.add(v.bucket)
        for b in range(grid.bucket_count):
            explicit = [v.anomalous for v in epoch.explicit if v.bucket == b]
            flagged = explicit[0] if explicit else epoch.shared_anomalous
            hit = (b, e) in grid.anomalous
            tp += flagged and hit
            fp += flagged and not hit
            fn += hit and not flagged
            tn += not (hit or flagged)
    return tp, fp, fn, tn


@st.composite
def faulty_verdicts(draw):
    """Verdicts over a small grid, explicit ones in any order, epochs in
    any order, and now and then one bad explicit verdict: a repeated
    bucket, a bucket outside the grid, or one filed under another
    epoch."""
    bucket_count = 1 << draw(st.integers(1, 4))
    epoch_count = draw(st.integers(1, 4))
    cells = st.tuples(st.integers(0, bucket_count - 1), st.integers(0, epoch_count - 1))
    grid = GroundTruthGrid(bucket_count, epoch_count, frozenset(draw(st.sets(cells))))
    epochs = []
    for e in range(epoch_count):
        buckets = draw(st.permutations(sorted(draw(st.sets(st.integers(0, bucket_count - 1))))))
        explicit = [Verdict("test", e, b, 0.0, draw(st.booleans())) for b in buckets]
        fault = draw(st.sampled_from((None, None, None, "repeat", "epoch", "below", "above")))
        if explicit and fault is not None:
            i = draw(st.integers(0, len(explicit) - 1))
            v = explicit[i]
            if fault == "repeat":
                explicit.insert(draw(st.integers(0, len(explicit))), v._replace(anomalous=draw(st.booleans())))
            elif fault == "epoch":
                explicit[i] = v._replace(epoch_index=draw(st.sampled_from((e - 1, e + 1, epoch_count))))
            else:
                explicit[i] = v._replace(bucket=-1 if fault == "below" else bucket_count + draw(st.integers(0, 2)))
        epochs.append(EpochVerdicts("test", e, bucket_count, tuple(explicit), 0.0, draw(st.booleans())))
    return Verdicts(tuple(draw(st.permutations(epochs)))), grid


def outcome(fn):
    try:
        return fn()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(faulty_verdicts())
def test_score_counts_as_the_per_verdict_loop(case):
    verdicts, grid = case
    want = outcome(lambda: per_verdict_score(verdicts, grid))
    got = outcome(lambda: score(verdicts, grid))
    if isinstance(want, str):
        assert got == want
    else:
        assert got[:4] == want


def test_grid_from_tracker_matches_manual_projection():
    profile = SyntheticProfile(
        flows=12, packets_per_flow=60, duration_ns=6_000_000_000,
        anomaly=AnomalyProfile(AnomalyKind.FLOOD),
    )
    records = generate_synthetic(profile, seed=11)
    config = SketchConfig(4, 1, 1_000_000_000, SRC_KEY)
    tracker = ExactTracker(config)
    for r in records:
        tracker.update(r)
    grid = GroundTruthGrid.from_tracker(tracker, 5)
    t0 = records[0].timestamp_ns
    manual = set()
    for r in records:
        if r.label is Label.ANOMALOUS:
            epoch = (r.timestamp_ns - t0) // 1_000_000_000
            if epoch < 5:
                manual.add((shift_xor_hash(extract_key(r, SRC_KEY), 4), epoch))
    assert set(grid.anomalous) == manual
    assert next(iter(manual)) in grid.anomalous


def test_grid_from_keys_matches_tracker_at_every_width():
    # The light pass, folded per width, against the full tracker's
    # anomalous cells over the completed epochs, across a gap.
    rng = random.Random(5)
    five_tuple = KeySpec(("src_ip", "dst_ip", "src_port", "dst_port", "protocol"))
    keys = (SRC_KEY, KeySpec(("src_ip", "dst_port")), five_tuple)
    for trial in range(6):
        before = random_records(rng, 300, span_ns=2_000_000, pool=40, anomalous_rate=0.3)
        after = random_records(rng, 100, span_ns=1_000_000, pool=40, anomalous_rate=0.3)
        records = before + [r._replace(timestamp_ns=r.timestamp_ns + 9_000_000) for r in after]
        key = keys[trial % 3]
        for epoch_ns in (100_000, 700_000):
            truth = FlowSums(epoch_ns, key.total_bits, ())
            for chunk in column_chunks(records, 128):
                truth.feed(chunk, key.key_column(chunk))
            pairs, _ = truth.finish()
            for width in range(1, 13):
                config = SketchConfig(width, 1, epoch_ns, key)
                tracker = ExactTracker(config)
                for r in records:
                    tracker.update(r)
                completed = sum(s.complete for s in collect_epochs(Sketch(config), records))
                assert completed == tracker.epoch_count - 1
                want = {(b, e) for b, e in tracker.anomalous_cells() if e < completed}
                grid = GroundTruthGrid.from_keys(pairs, config, completed)
                assert grid == GroundTruthGrid.from_tracker(tracker, completed)
                assert grid.anomalous == want and want


def test_resource_model_frozen_sizes():
    key = SRC_KEY
    sizes = {
        (1, 4): resource_model(SketchConfig(4, 1, 1000, key)).memory_bytes,
        (1, 5): resource_model(SketchConfig(5, 1, 1000, key)).memory_bytes,
        (3, 4): resource_model(SketchConfig(4, 3, 1000, key)).memory_bytes,
        (3, 5): resource_model(SketchConfig(5, 3, 1000, key)).memory_bytes,
    }
    assert sizes[(1, 4)] == 16 * CELL_BYTES == 1152
    assert sizes[(3, 5)] == 96 * CELL_BYTES == 6912
    assert sizes[(3, 5)] == 6 * sizes[(1, 4)]
    # cost ordering: stages and width both grow the footprint
    assert sizes[(1, 4)] < sizes[(1, 5)] < sizes[(3, 4)] < sizes[(3, 5)]
    assert resource_model(SketchConfig(4, 1, 1000, key)).update_ops == 9


def test_resource_model_monotonicity():
    rng = random.Random(7)
    for _ in range(50):
        w = rng.randrange(1, 20)
        s = rng.randrange(1, 6)
        base = resource_model(SketchConfig(w, s, 1000, SRC_KEY)).memory_bytes
        assert resource_model(SketchConfig(w + 1, s, 1000, SRC_KEY)).memory_bytes > base
        assert resource_model(SketchConfig(w, s + 1, 1000, SRC_KEY)).memory_bytes > base


def test_pareto_three_point_example():
    a = ParetoPoint("a", 0.9, 1000)
    b = ParetoPoint("b", 0.8, 500)
    c = ParetoPoint("c", 0.7, 2000)
    front, dominated = pareto_front([a, b, c])
    assert [p.config_id for p in front] == ["a", "b"]
    assert [p.config_id for p in dominated] == ["c"]
    assert c.dominated and not a.dominated and not b.dominated


def test_pareto_single_and_ties():
    (front, dominated) = pareto_front([ParetoPoint("only", 0.5, 100)])
    assert len(front) == 1 and not dominated
    twins = [ParetoPoint("x", 0.5, 100), ParetoPoint("y", 0.5, 100)]
    front, dominated = pareto_front(twins)
    assert {p.config_id for p in front} == {"x", "y"}
    assert not dominated


def test_pareto_sort_order():
    pts = [
        ParetoPoint("low", 0.2, 50),
        ParetoPoint("hi", 0.9, 900),
        ParetoPoint("mid", 0.5, 200),
    ]
    front, _ = pareto_front(pts)
    assert [p.config_id for p in front] == ["hi", "mid", "low"]


def test_pareto_validation():
    with pytest.raises(ValueError):
        pareto_front([])
    with pytest.raises(ValueError):
        pareto_front([ParetoPoint("a", 0.5, 10)], use_pps=True)


def test_pareto_mixed_pps_falls_back_to_two_objectives():
    pts = [ParetoPoint("a", 0.5, 100, 10.0), ParetoPoint("b", 0.5, 100, None)]
    front, dominated = pareto_front(pts)  # pps ignored: identical vectors
    assert len(front) == 2 and not dominated


def test_pareto_ranks_pps_only_when_asked():
    # Every point has a measurement, but throughput is an objective only
    # with use_pps: "fast" is dominated on f1 and memory alone.
    pts = [ParetoPoint("best", 0.9, 100, 10.0), ParetoPoint("fast", 0.5, 200, 1e6)]
    front, dominated = pareto_front(pts)
    assert [p.config_id for p in front] == ["best"]
    assert [p.config_id for p in dominated] == ["fast"]
    front, dominated = pareto_front(pts, use_pps=True)
    assert [p.config_id for p in front] == ["best", "fast"] and not dominated


def test_pareto_dominating_point_prunes():
    pts = [ParetoPoint("a", 0.6, 300), ParetoPoint("b", 0.5, 400)]
    front, _ = pareto_front(pts)
    assert {p.config_id for p in front} == {"a"}
    pts.append(ParetoPoint("c", 0.7, 200))
    front, dominated = pareto_front(pts)
    assert {p.config_id for p in front} == {"c"}
    assert {p.config_id for p in dominated} == {"a", "b"}


def bench_trace(n=12_000, seed=17):
    flows = 100
    return generate_synthetic(
        SyntheticProfile(flows=flows, packets_per_flow=n // flows,
                         duration_ns=5_000_000_000),
        seed=seed,
    )


def test_bench_requires_enough_packets():
    records = bench_trace(n=2_000)
    with pytest.raises(ValueError):
        bench_throughput(SketchConfig(4, 1, 1_000_000_000, SRC_KEY), records)
    with pytest.raises(ValueError):
        bench_throughput(SketchConfig(4, 1, 1_000_000_000, SRC_KEY), bench_trace(), repetitions=2)


def test_bench_reports_median_of_runs():
    import statistics

    records = bench_trace()
    result = bench_throughput(SketchConfig(4, 1, 1_000_000_000, SRC_KEY), records)
    assert len(result.runs) == 3
    assert result.pps == statistics.median(result.runs)
    assert result.pps > 0
    assert result.packet_count == len(records)
    assert 60 <= result.mean_packet_bytes <= 1500


def paired_ratio(a, b, pairs=9):
    """Median over pairs of the throughput ratio of two (config,
    records) benches, b over a.  A pair runs its two benches back to
    back, alternating which goes first, so a slow spell of the host
    lands on both sides of one ratio rather than on one side of the
    median."""
    import statistics

    ratios = []
    for i in range(pairs):
        if i % 2 == 0:
            pps_a = bench_throughput(*a, repetitions=5).pps
            pps_b = bench_throughput(*b, repetitions=5).pps
        else:
            pps_b = bench_throughput(*b, repetitions=5).pps
            pps_a = bench_throughput(*a, repetitions=5).pps
        ratios.append(pps_b / pps_a)
    return statistics.median(ratios)


def test_bench_stability_under_length_doubling():
    config = SketchConfig(4, 1, 1_000_000_000, SRC_KEY)
    ratio = paired_ratio((config, bench_trace(n=50_000)), (config, bench_trace(n=100_000)))
    # |short - long| / min(short, long), with ratio = long / short
    assert max(ratio, 1 / ratio) - 1 < 0.2


def test_bench_more_stages_is_not_faster():
    records = bench_trace(n=50_000)
    # 1-us epochs against ~100-us gaps between packets: almost every
    # packet crosses at least 3 boundaries, so S=3 rotates 3 times per
    # packet where S=1 rotates once.  At 100-ms epochs few packets cross
    # a boundary, so both do nearly the same work.
    ratio = paired_ratio(
        (SketchConfig(4, 1, 1_000, SRC_KEY), records),
        (SketchConfig(4, 3, 1_000, SRC_KEY), records),
    )
    # rotation work grows with the stage count; allow measurement noise
    assert ratio <= 1.1


def flood_records(seed=3):
    profile = SyntheticProfile(
        flows=24, packets_per_flow=100, duration_ns=10_000_000_000,
        timing="periodic",
        anomaly=AnomalyProfile(AnomalyKind.FLOOD, rate_multiplier=50.0),
    )
    return generate_synthetic(profile, seed=seed)


def zs(k, train=3):
    return DetectorSetting("zscore", k=k, train_epochs=train)


def test_sweep_single_cell():
    records = flood_records()
    config = SketchConfig(4, 1, 1_000_000_000, SRC_KEY)
    (row,) = sweep(column_chunks(records), [config], [zs(3.0)])
    assert row.error is None
    assert row.on_front
    assert row.memory_bytes == 16 * CELL_BYTES
    assert row.update_ops == 9
    # cross-check the row against a direct scoring pass
    snaps = [s for s in collect_epochs(Sketch(config), records) if s.complete]
    tracker = ExactTracker(config)
    for r in records:
        tracker.update(r)
    grid = GroundTruthGrid.from_tracker(tracker, len(snaps))
    q = score(run_detector(zs(3.0), snaps), grid)
    assert (row.tp, row.fp, row.fn, row.tn) == (q.tp, q.fp, q.fn, q.tn)
    assert row.f1 == float(q.f1)


def test_sweep_opens_an_epoch_at_a_packet_on_its_boundary():
    # Epochs of 1000 ns anchor at ts 0, so the anomalous packet at 1000
    # opens epoch 1, which then holds both of source 2's packets, and
    # the packet at 2500 closes it.  Threshold 1.5 flags that cell alone,
    # so the row reads tp 1 only if the boundary packet falls in epoch 1
    # in both the snapshots and the ground truth.
    packets = [
        make_packet(ts=0, src=1),
        make_packet(ts=1000, src=2, label=Label.ANOMALOUS),
        make_packet(ts=1200, src=2),
        make_packet(ts=2500, src=1),
    ]
    config = SketchConfig(4, 1, 1000, SRC_KEY)
    (row,) = sweep(column_chunks(packets), [config], [DetectorSetting("threshold", threshold=1.5)])
    assert (row.tp, row.fp, row.fn, row.tn) == (1, 0, 0, 31)


def test_sweep_grid_cardinality_and_order():
    records = flood_records()
    configs = [
        SketchConfig(w, s, 1_000_000_000, SRC_KEY)
        for w in (4, 5)
        for s in (1, 3)
    ]
    rows = sweep(column_chunks(records), configs, [zs(2.0), zs(3.0)])
    assert len(rows) == 8
    assert [r.config_id for r in rows] == sorted(r.config_id for r in rows)
    assert all(r.error is None for r in rows)
    assert any(r.on_front for r in rows)
    # every on-front row is undominated among the clean rows
    for r in rows:
        if r.on_front:
            for other in rows:
                assert not (
                    other.f1 > r.f1 and other.memory_bytes <= r.memory_bytes
                    or other.f1 >= r.f1 and other.memory_bytes < r.memory_bytes
                )


def test_sweep_records_cell_failures_and_continues():
    records = flood_records()
    configs = [SketchConfig(4, s, 1_000_000_000, SRC_KEY) for s in (1, 2)]
    rows = sweep(column_chunks(records), configs, [zs(3.0), zs(3.0, train=99)])
    assert len(rows) == 4
    bad = [r for r in rows if r.error is not None]
    # The failing setting fails on the rows of both stage counts.
    assert [r.mem_stages for r in bad] == [1, 2]
    for r in bad:
        assert "train_epochs" in r.error and "train_epochs=99" in r.detector_params
        assert r.tp is None and r.f1 is None and not r.on_front
    good = next(r for r in rows if r.error is None)
    assert good.on_front


def test_sweep_budget_failure_stays_on_its_rows():
    # S=5 at W=24 is over the cell budget; S=4 is exactly at it.  The
    # two share one replay, which must not take on the S=5 failure.
    records = flood_records()
    configs = [SketchConfig(24, s, 1_000_000_000, SRC_KEY) for s in (5, 4)]
    assert configs[1].cell_count == DEFAULT_MAX_CELLS
    rows = sweep(column_chunks(records), configs, [zs(3.0), DetectorSetting("threshold", threshold=20.0)])
    completed = sum(s.complete for s in collect_epochs(Sketch(configs[1]), records))
    for row in rows:
        if row.mem_stages == 5:
            assert row.error == "config needs 83886080 cells, budget is 67108864"
            assert row.tp is None
        else:
            assert row.error is None
            assert row.tp + row.fp + row.fn + row.tn == (1 << 24) * completed
            assert row.tp > 0


def test_sweep_grid_all_over_the_budget_fails_every_row():
    # No config of the group is within the cell budget; its one-stage
    # replay still runs, and every row carries its config's budget error.
    configs = [SketchConfig(24, s, 1_000_000_000, SRC_KEY) for s in (5, 6)]
    rows = sweep(column_chunks(flood_records()), configs, [zs(3.0), DetectorSetting("threshold", threshold=20.0)])
    assert len(rows) == 4
    for row in rows:
        assert row.error == f"config needs {row.mem_stages << 24} cells, budget is 67108864"
        assert row.tp is None and row.f1 is None and not row.on_front
        assert row.memory_bytes == (row.mem_stages << 24) * CELL_BYTES


def test_sweep_timestamp_regression_fails_every_row_it_reaches():
    records = flood_records()
    records[40], records[41] = records[41], records[40]
    tracker = ExactTracker(SketchConfig(4, 1, 1_000_000_000, SRC_KEY))
    with pytest.raises(ValueError) as regression:
        for r in records:
            tracker.update(r)
    assert str(regression.value).startswith("timestamp regression: ")
    configs = [
        SketchConfig(w, s, e, k)
        for w in (4, 24)
        for s in (1, 5)
        for e in (500_000_000, 1_000_000_000)
        for k in (SRC_KEY, KeySpec(("src_ip", "dst_port")))
    ]
    rows = sweep(column_chunks(records), configs, [zs(3.0), DetectorSetting("ewma", k=3.0, alpha=0.3)])
    assert len(rows) == 32
    for row in rows:
        if row.hash_width == 24 and row.mem_stages == 5:
            assert row.error == "config needs 83886080 cells, budget is 67108864"
        else:
            assert row.error == str(regression.value)


def test_tuple_columns_match_their_list_twin():
    # The sketch's record path builds chunks whose columns are tuples;
    # every consumer of a chunk reads them as it reads lists.
    records = random_records(random.Random(5), 250, span_ns=20_000, anomalous_rate=0.3)
    lists = column_chunks(records, rows=100)
    tuples = [TraceColumns._make(map(tuple, chunk)) for chunk in lists]
    key = KeySpec(("src_ip", "dst_port"))
    configs = [SketchConfig(w, 1, 1000, key) for w in (2, 4)]
    settings_ = [DetectorSetting("threshold", threshold=3.0), DetectorSetting("ewma", k=3.0, alpha=0.3)]
    rows = sweep(lists, configs, settings_)
    assert all(r.error is None for r in rows)
    assert sweep(tuples, configs, settings_) == rows

    def collected(chunks):
        collector = EpochCollector(Sketch(configs[1]))
        for chunk in chunks:
            collector.feed(chunk)
        return collector.finish()

    def flow_pass(chunks):
        sums = FlowSums(1000, key.total_bits, (2, 4))
        for chunk in chunks:
            sums.feed(chunk, key.key_column(chunk))
        return sums.finish()

    assert collected(tuples) == collected(lists) == collect_epochs(Sketch(configs[1]), records)
    assert flow_pass(tuples) == flow_pass(lists)


def test_sweep_reads_past_a_failed_pass_to_an_error_in_the_input():
    # The out-of-order chunk stops every pass, but the rest of the
    # chunks is still read, so an error raised by the input aborts the
    # sweep rather than a row error being reported.
    records = [make_packet(ts=ts) for ts in (0, 5, 3, 7)]

    def stream():
        yield from column_chunks(records)
        raise ValueError("line 9: bad row")

    configs = [SketchConfig(w, 1, 1_000_000_000, SRC_KEY) for w in (4, 5)]
    with pytest.raises(ValueError, match="^line 9: bad row$"):
        sweep(stream(), configs, [zs(3.0)])


class OneShot:
    """An iterable that fails if it is iterated twice."""

    def __init__(self, items):
        self.items = iter(items)
        self.taken = False

    def __iter__(self):
        assert not self.taken, "iterated twice"
        self.taken = True
        return self.items


def test_sweep_computes_shared_passes_once(monkeypatch):
    configs = [SketchConfig(w, s, 1_000_000_000, SRC_KEY) for w in (8, 12) for s in (1, 2)]
    settings = [zs(3.0), DetectorSetting("ewma", k=3.0, alpha=0.3), DetectorSetting("threshold", threshold=100.0)]
    records = flood_records()
    assert len(records) > 2 * PARSE_CHUNK_ROWS
    want = sweep(column_chunks(records), configs, settings)
    calls = {"replay": 0, "flow pass": 0, "tracker": 0, "run_detector": 0, "score": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(Sketch, "_update", counting("replay", Sketch._update))
    monkeypatch.setattr(evaluation, "FlowSums", counting("flow pass", FlowSums))
    monkeypatch.setattr(ExactTracker, "update", counting("tracker", ExactTracker.update))
    monkeypatch.setattr(evaluation, "run_detector", counting("run_detector", run_detector))
    monkeypatch.setattr(evaluation, "score", counting("score", score))
    trace = OneShot(column_chunks(records))
    rows = sweep(trace, configs, settings)
    assert len(rows) == 12 and all(r.error is None for r in rows)
    assert rows == want
    assert next(trace.items, None) is None
    # One flow pass per (key spec, epoch length), fed from the one read
    # of the trace, folds its sums for both widths: no sketch replays
    # the trace.  Then once per (W, setting), since the stage count does
    # not change the verdicts.
    assert calls == {"replay": 0, "flow pass": 1, "tracker": 0, "run_detector": 6, "score": 6}


def test_sweep_of_a_trace_file_holds_no_records(tmp_path):
    # The long trace has 4x the packets of the short one over the same
    # flows and epochs, so only the records grow.  Two hash widths make
    # two replays and one ground-truth pass read the one stream.
    configs = [SketchConfig(w, 1, 1_000_000_000, SRC_KEY) for w in (8, 12)]
    settings = [zs(3.0), DetectorSetting("threshold", threshold=100.0)]
    peaks = []
    for packets_per_flow in (200, 800):
        profile = SyntheticProfile(
            flows=40, packets_per_flow=packets_per_flow, duration_ns=8_000_000_000,
            anomaly=AnomalyProfile(AnomalyKind.FLOOD, rate_multiplier=20.0),
        )
        path = tmp_path / f"trace{packets_per_flow}.csv"
        write_trace(path, generate_synthetic(profile, seed=5))
        want = sweep(column_chunks(read_trace(path)[0]), configs, settings)
        with open_trace(path) as fh:
            tracemalloc.start()
            try:
                rows = sweep(parse_trace_chunks(fh), configs, settings)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert rows == want
    # The peaks read 41 KB apart on Python 3.11; holding the long
    # trace's 25,200 more records would add 4.6 MB.
    assert peaks[1] - peaks[0] < 2**18, peaks


def test_sweep_holds_the_flow_sums_of_one_open_epoch(monkeypatch):
    # Every epoch has 500 sources of its own, so holding the flow sums
    # of every epoch would grow with the epoch count; a fold memo of 16
    # keys keeps the memo out of the measure.  At W=1 the snapshots and
    # verdicts add a few hundred bytes an epoch.
    monkeypatch.setattr(sketch, "FOLD_MEMO_MAX", 16)
    epoch_ns, sources = 10_000, 500

    def chunks(epochs):
        for e in range(epochs):
            yield from column_chunks(
                [make_packet(ts=e * epoch_ns + i, src=e * sources + i + 1) for i in range(sources)]
            )

    peaks = {}
    for epochs in (10, 100):
        tracemalloc.start()
        try:
            rows = sweep(chunks(epochs), [SketchConfig(1, 1, epoch_ns, SRC_KEY)], [DetectorSetting("threshold", threshold=5.0)])
            peaks[epochs] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (rows[0].fp, rows[0].tn, rows[0].error) == (2 * (epochs - 1), 0, None)
    # The peaks read 0.41 and 0.46 MB on Python 3.11; the sums of all
    # 100 epochs' flows would add about 12 MB.
    assert peaks[100] < 1.5 * peaks[10], peaks


def test_sweep_determinism():
    records = flood_records()
    configs = [SketchConfig(w, 1, 1_000_000_000, SRC_KEY) for w in (4, 5)]
    a = sweep(column_chunks(records), configs, [zs(3.0)])
    b = sweep(column_chunks(records), configs, [zs(3.0)])
    assert a == b


def test_sweep_validation():
    records = flood_records()
    config = SketchConfig(4, 1, 1_000_000_000, SRC_KEY)
    with pytest.raises(ValueError):
        sweep([], [config], [zs(3.0)])
    with pytest.raises(ValueError):
        sweep(column_chunks(records), [], [zs(3.0)])
    with pytest.raises(ValueError):
        sweep(column_chunks(records), [config], [])
    with pytest.raises(ValueError):
        sweep(column_chunks(records), [config, config], [zs(3.0)])  # duplicate cell


def test_sweep_raises_a_grid_error_without_reading_the_rest():
    # The grid is checked once the first chunk is read.  An error later
    # in the input is not reached: the CLI reads the rest itself when an
    # error in the trace must come first.
    records = flood_records()
    assert len(records) > PARSE_CHUNK_ROWS

    def stream():
        yield from column_chunks(records)
        raise TraceFormatError(len(records) + 2, "bad label 'sideways'")

    config = SketchConfig(4, 1, 1_000_000_000, SRC_KEY)
    with pytest.raises(ValueError, match="sweep grid contains duplicate cells"):
        sweep(stream(), [config, config], [zs(3.0)])
    with pytest.raises(TraceFormatError, match="sideways"):
        sweep(stream(), [config], [zs(3.0)])


def test_sweep_puts_a_negative_train_epochs_on_its_rows():
    records = flood_records()
    configs = [SketchConfig(w, 1, 1_000_000_000, SRC_KEY) for w in (4, 5)]
    rows = sweep(column_chunks(records), configs, [zs(3.0), zs(3.0, train=-1)])
    bad = [r for r in rows if r.error is not None]
    assert [r.hash_width for r in bad] == [4, 5]
    assert all(r.error == "train_epochs=-1 must be nonnegative" for r in bad)


def test_report_csv_round_trip(tmp_path):
    records = flood_records()
    configs = [SketchConfig(w, 1, 1_000_000_000, SRC_KEY) for w in (4, 5)]
    rows = sweep(column_chunks(records), configs, [zs(3.0), zs(3.0, train=99)])
    path = tmp_path / "report.csv"
    write_report_csv(path, rows)
    with open(path, newline="") as fh:
        parsed = parse_report_csv(fh)
    assert len(parsed) == len(rows)
    for got, want in zip(parsed, rows):
        assert got.config_id == want.config_id
        assert got.f1 == want.f1
        assert got.on_front == want.on_front
        assert got.error is None  # errors travel in the JSON report only
    first = path.read_bytes()
    write_report_csv(path, parsed)
    assert path.read_bytes() == first


def test_report_json_carries_errors(tmp_path):
    records = flood_records()
    config = SketchConfig(4, 1, 1_000_000_000, SRC_KEY)
    rows = sweep(column_chunks(records), [config], [zs(3.0), zs(3.0, train=99)])
    path = tmp_path / "report.json"
    write_report_json(path, rows)
    payload = json.loads(path.read_text())
    assert len(payload) == 2
    by_error = {bool(entry["error"]): entry for entry in payload}
    assert by_error[True]["f1"] is None
    assert by_error[False]["f1"] == next(r.f1 for r in rows if r.error is None)
    assert by_error[False]["memory_bytes"] == 16 * CELL_BYTES


def test_report_columns_are_the_sweep_row_fields():
    # The report's one column table names every SweepRow field but error,
    # which only the JSON report carries.
    names = [name for name in vars(SweepRow("a", 4, 1, 1000, "src_ip", "zscore", "")) if name != "error"]
    assert REPORT_HEADER.split(",") == names


def test_parse_report_rejects_garbage():
    with pytest.raises(ValueError):
        parse_report_csv(["nope"])


@pytest.mark.parametrize("flag", ["yes", ""])
def test_parse_report_names_bad_line(flag):
    row = "a,4,1,1000,src_ip,zscore,k=3.0,1,0,0,15,1.0,1.0,1.0,1152,9,"
    with pytest.raises(TraceFormatError) as err:
        parse_report_csv([REPORT_HEADER, row + "true", row + flag])
    assert err.value.line_no == 3


@pytest.mark.parametrize(
    "field, text",
    [(1, "+8"), (3, "1_000"), (2, "01"), (7, " 1"), (10, "015"), (14, "-0")],
)
def test_parse_report_rejects_non_canonical_integer(field, text):
    good = "a,4,1,1000,src_ip,zscore,k=3.0,1,0,0,15,1.0,1.0,1.0,1152,9,true"
    fields = good.split(",")
    fields[field] = text
    with pytest.raises(TraceFormatError) as err:
        parse_report_csv([REPORT_HEADER, good, ",".join(fields)])
    assert err.value.line_no == 3



@pytest.mark.parametrize(
    "field, text",
    [(11, "+1_0.0"), (11, "10.0"), (12, "-0.5"), (13, "1.5"), (13, "1.00"), (12, "nan"),
     (13, "inf"), (11, "5E-1"), (12, " 0.5"), (12, "1e0")],
)
def test_parse_report_rejects_non_canonical_float(field, text):
    good = "a,4,1,1000,src_ip,zscore,k=3.0,1,0,0,15,1.0,0.5,0.6666666666666666,1152,9,true"
    fields = good.split(",")
    fields[field] = text
    rows = parse_report_csv([REPORT_HEADER, good])
    assert (rows[0].precision, rows[0].recall, rows[0].f1) == (1.0, 0.5, 0.6666666666666666)
    with pytest.raises(TraceFormatError) as err:
        parse_report_csv([REPORT_HEADER, good, ",".join(fields)])
    assert err.value.line_no == 3
