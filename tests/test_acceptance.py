"""Acceptance gate.

Each test checks one release criterion end to end and prints a single
PASS/FAIL line straight to the terminal (bypassing capture) so the
teed test log doubles as the acceptance report.  Tolerances are pinned
here and nowhere else; unit tests cover the fine-grained behavior.
"""

import random
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

from flowsketch.detectors import (
    DetectorSetting,
    parse_verdicts,
    run_detector,
    write_verdicts,
)
from flowsketch.evaluation import (
    GroundTruthGrid,
    ParetoPoint,
    bench_throughput,
    pareto_front,
    resource_model,
    score,
    sweep,
    write_report_csv,
    parse_report_csv,
)
from flowsketch.hashing import FlowKey, KeySpec, shift_xor_hash
from flowsketch.ingest import (
    AnomalyKind,
    AnomalyProfile,
    SyntheticProfile,
    generate_synthetic,
    read_trace,
    write_trace,
)
from flowsketch.oracle import ExactTracker
from flowsketch.sketch import (
    Sketch,
    SketchConfig,
    collect_epochs,
    parse_snapshot,
    write_snapshot,
)

from conftest import column_chunks, dense_cells, random_records

FIVE_TUPLE = KeySpec(("src_ip", "dst_ip", "src_port", "dst_port", "protocol"))
SRC_ONLY = KeySpec(("src_ip",))
EPOCH_NS = 1_000_000_000
SEEDS = range(50)


@contextmanager
def criterion(capfd, num: int, name: str):
    """Print exactly one PASS/FAIL line per criterion on the real
    terminal, past pytest's output capture."""

    def emit(outcome):
        with capfd.disabled():
            print(f"[acceptance {num:02d}] {name}: {outcome}", flush=True)

    try:
        yield
    except BaseException:
        emit("FAIL")
        raise
    emit("PASS")


def seeded_trace(seed: int):
    """Benign multi-flow trace, around 1.5k packets over five epochs."""
    profile = SyntheticProfile(
        flows=30, packets_per_flow=50, duration_ns=5 * EPOCH_NS
    )
    return generate_synthetic(profile, seed=seed)


def test_criterion_01_collision_free_oracle_equivalence(capfd):
    with criterion(capfd, 1, "collision-free per-flow equivalence at hash width 20"):
        config = SketchConfig(20, 1, EPOCH_NS, FIVE_TUPLE)
        for seed in SEEDS:
            records = seeded_trace(seed)
            assert len(records) <= 10_000
            tracker = ExactTracker(config)
            for r in records:
                tracker.update(r)

            for snap in collect_epochs(Sketch(config), records):
                epoch_index = snap.epoch_index
                cells = dict(zip(snap.buckets, snap.cells))
                keys = tracker.keys_in_epoch(epoch_index)
                assert set(cells) == {tracker.bucket_of(key) for key in keys}
                for key in keys:
                    bucket = tracker.bucket_of(key)
                    # the trace is built so distinct keys never share a
                    # bucket at this width; a collision here would void
                    # the per-flow comparison below
                    assert tracker.collision_free(bucket, epoch_index)
                    got = cells[shift_xor_hash(key, config.hash_width)]
                    assert got == tracker.expected_bucket(bucket, epoch_index)


def test_criterion_02_bucket_aggregation_under_collisions(capfd):
    with criterion(capfd, 2, "bucket aggregation law at hash widths 4 and 5"):
        for width in (4, 5):
            config = SketchConfig(width, 1, EPOCH_NS, FIVE_TUPLE)
            for seed in SEEDS:
                rng = random.Random(10_000 + seed)
                records = random_records(rng, 1500, pool=8)
                tracker = ExactTracker(config)
                for r in records:
                    tracker.update(r)

                for snap in collect_epochs(Sketch(config), records):
                    epoch_index = snap.epoch_index
                    cells = dense_cells(dict(zip(snap.buckets, snap.cells)), config.bucket_count)
                    for bucket in range(config.bucket_count):
                        want = tracker.expected_bucket(bucket, epoch_index)
                        got = cells[bucket]
                        assert got.pkt_count == want.pkt_count
                        assert got.byte_sum == want.byte_sum
                        assert got.byte_min == want.byte_min
                        assert got.byte_max == want.byte_max
                        if tracker.collision_free(bucket, epoch_index):
                            assert got.iat_count == want.iat_count
                            assert got.iat_sum_ns == want.iat_sum_ns
                            assert got.iat_min_ns == want.iat_min_ns
                            assert got.iat_max_ns == want.iat_max_ns


def test_criterion_03_rotation_shifts_stages(capfd):
    with criterion(capfd, 3, "epoch rotation shifts stages bit-for-bit"):
        for stages in (1, 2, 3):
            for trial in range(8):
                rng = random.Random(1000 * stages + trial)
                records = random_records(rng, 400, span_ns=4 * EPOCH_NS, pool=8)
                sketch = Sketch(SketchConfig(4, stages, EPOCH_NS, FIVE_TUPLE))
                sketch.update_many(records)
                before = [sketch.stage(s) for s in range(stages)]
                sketch.rotate_epoch(sketch.epoch_start_ns + EPOCH_NS)
                for s in range(1, stages):
                    assert sketch.stage(s) == before[s - 1]
                assert sketch.stage(0) == {}  # no cell touched, none held


def test_criterion_04_per_epoch_packet_conservation(capfd):
    with criterion(capfd, 4, "stage-0 packet counts conserve the stream"):
        for width, stages in ((4, 1), (5, 1), (4, 3), (5, 3)):
            config = SketchConfig(width, stages, EPOCH_NS, FIVE_TUPLE)
            for seed in SEEDS:
                rng = random.Random(20_000 + seed)
                records = random_records(rng, 1200, pool=8)
                t0 = records[0].timestamp_ns
                per_epoch = Counter((r.timestamp_ns - t0) // EPOCH_NS for r in records)
                seen = []
                for snap in collect_epochs(Sketch(config), records):
                    assert sum(c.pkt_count for c in snap.cells) == per_epoch[snap.epoch_index]
                    seen.append(per_epoch[snap.epoch_index])
                assert sum(seen) == len(records)


def test_criterion_05_hash_contract(capfd):
    with criterion(capfd, 5, "hash range, linearity, and worked example"):
        assert shift_xor_hash(FlowKey(0b1011001101, 10), 5) == 0b10110 ^ 0b01101 == 27
        rng = random.Random(5)
        for width in range(1, 25):
            for _ in range(200):
                key = FlowKey(rng.getrandbits(40), 40)
                assert 0 <= shift_xor_hash(key, width) < (1 << width)
        for _ in range(10_000):
            width = rng.randrange(1, 25)
            a = FlowKey(rng.getrandbits(64), 64)
            b = FlowKey(rng.getrandbits(64), 64)
            assert shift_xor_hash(a, width) ^ shift_xor_hash(b, width) == shift_xor_hash(a ^ b, width)


def brute_force_partition(points, use_pps):
    """Quadratic domination check, written independently of the
    library's front construction."""
    front, dominated = set(), set()
    for p in points:
        is_dominated = False
        for q in points:
            if q is p:
                continue
            ge = q.f1 >= p.f1 and q.memory_bytes <= p.memory_bytes
            gt = q.f1 > p.f1 or q.memory_bytes < p.memory_bytes
            if use_pps:
                ge = ge and q.measured_pps >= p.measured_pps
                gt = gt or q.measured_pps > p.measured_pps
            if ge and gt:
                is_dominated = True
                break
        (dominated if is_dominated else front).add(p.config_id)
    return front, dominated


def test_criterion_06_pareto_matches_brute_force(capfd):
    with criterion(capfd, 6, "front partition matches quadratic checker on 500 sets"):
        rng = random.Random(6)
        f1_grid = [i / 10 for i in range(11)]
        mem_grid = [256, 512, 1024, 2048]
        pps_grid = [1e5, 1e6, 2e6]
        for _ in range(500):
            n = rng.randrange(1, 21)
            use_pps = rng.random() < 0.5
            points = [
                ParetoPoint(
                    f"p{i}",
                    rng.choice(f1_grid),
                    rng.choice(mem_grid),
                    rng.choice(pps_grid) if use_pps else None,
                )
                for i in range(n)
            ]
            front, dominated = pareto_front(points, use_pps=use_pps)
            want_front, want_dominated = brute_force_partition(points, use_pps)
            assert {p.config_id for p in front} == want_front
            assert {p.config_id for p in dominated} == want_dominated
            # idempotence: the front dominates nothing within itself
            again = [
                ParetoPoint(p.config_id, p.f1, p.memory_bytes, p.measured_pps)
                for p in front
            ]
            refront, redominated = pareto_front(again, use_pps=use_pps)
            assert {p.config_id for p in refront} == want_front
            assert redominated == []


def test_criterion_07_flood_detection_quality(capfd):
    with criterion(capfd, 7, "z-score flood detection reaches f1 >= 0.9"):
        profile = SyntheticProfile(
            flows=48,
            packets_per_flow=200,
            duration_ns=20 * EPOCH_NS,
            timing="periodic",
            anomaly=AnomalyProfile(AnomalyKind.FLOOD, rate_multiplier=50.0),
        )
        records = generate_synthetic(profile, seed=3)
        config = SketchConfig(5, 1, EPOCH_NS, SRC_ONLY)
        snapshots = [s for s in collect_epochs(Sketch(config), records) if s.complete]
        tracker = ExactTracker(config)
        for r in records:
            tracker.update(r)
        grid = GroundTruthGrid.from_tracker(tracker, len(snapshots))
        setting = DetectorSetting("zscore", feature="pkt_count", k=3.0, train_epochs=5)
        quality = score(run_detector(setting, snapshots), grid)
        assert quality.f1 >= Fraction(9, 10)


def test_criterion_08_resource_model_monotonicity(capfd):
    with criterion(capfd, 8, "memory model grows with stages and width"):
        sizes = [
            resource_model(SketchConfig(w, s, EPOCH_NS, SRC_ONLY)).memory_bytes
            for s, w in ((1, 4), (1, 5), (3, 4), (3, 5))
        ]
        assert sizes == sorted(sizes)
        assert len(set(sizes)) == len(sizes)


def test_criterion_09_throughput_floor(capfd):
    profile = SyntheticProfile(
        flows=1000, packets_per_flow=1000, duration_ns=10 * EPOCH_NS
    )
    records = generate_synthetic(profile, seed=1)
    assert len(records) == 1_000_000
    config = SketchConfig(4, 1, EPOCH_NS, SRC_ONLY)
    result = bench_throughput(config, records, repetitions=3)
    spread = (max(result.runs) - min(result.runs)) / result.pps
    gbps = result.pps * result.mean_packet_bytes / 1e9
    name = (
        "update throughput floor "
        f"({result.pps / 1e6:.2f}M pkt/s, {gbps:.2f} GB/s, spread {spread:.1%})"
    )
    with criterion(capfd, 9, name):
        assert result.pps >= 1e6
        assert spread < 0.2


def test_criterion_10_csv_round_trips(capfd, tmp_path):
    with criterion(capfd, 10, "all four CSV formats round-trip byte-identically"):
        profile = SyntheticProfile(
            flows=12,
            packets_per_flow=80,
            duration_ns=6 * EPOCH_NS,
            anomaly=AnomalyProfile(AnomalyKind.FLOOD, rate_multiplier=50.0),
        )
        records = generate_synthetic(profile, seed=10)
        config = SketchConfig(4, 2, EPOCH_NS, SRC_ONLY)

        def round_trip(name, write, parse, payload):
            a, b = tmp_path / f"{name}_a.csv", tmp_path / f"{name}_b.csv"
            write(a, payload)
            with open(a, newline="") as fh:
                reparsed = parse(fh)
            write(b, reparsed)
            assert a.read_bytes() == b.read_bytes()

        round_trip(
            "trace", write_trace, lambda fh: read_trace(fh.name)[0], records
        )
        sketch = Sketch(config)
        sketch.update_many(records)
        rows = [
            (stage, bucket, cell)
            for stage in range(config.mem_stages)
            for bucket, cell in sketch.stage(stage).items()
        ]
        round_trip("snapshot", write_snapshot, parse_snapshot, rows)

        snapshots = [s for s in collect_epochs(Sketch(config), records) if s.complete]
        setting = DetectorSetting("zscore", feature="pkt_count", k=3.0, train_epochs=2)
        verdicts = run_detector(setting, snapshots)
        assert any(v.score == float("inf") for v in verdicts)  # exercise inf
        round_trip("verdicts", write_verdicts, parse_verdicts, verdicts)

        report = sweep(
            column_chunks(records),
            [config, SketchConfig(5, 1, EPOCH_NS, SRC_ONLY)],
            [setting],
        )
        round_trip("report", write_report_csv, parse_report_csv, report)
