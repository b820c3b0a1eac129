"""Sketch update, epoch rotation, query, and snapshot behavior."""

import copy
import gc
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from flowsketch.detectors import feature_value
from flowsketch.hashing import FlowKey, KeySpec, extract_key, shift_xor_hash
from flowsketch.ingest import SyntheticProfile, TraceColumns, TraceFormatError, generate_synthetic
import flowsketch.sketch as sketch_module
from flowsketch.oracle import ExactTracker
from flowsketch.sketch import (
    CELL_BYTES,
    DEFAULT_MAX_CELLS,
    SNAPSHOT_HEADER,
    UPDATE_OPS,
    Sketch,
    SketchConfig,
    StageCell,
    collect_epochs,
    parse_snapshot,
    write_snapshot,
)

from conftest import column_chunks, make_packet, per_packet_replay, random_records, reference_snapshots

SRC_KEY = KeySpec(("src_ip",))


def cfg(width=4, stages=1, epoch_ns=1000, key=SRC_KEY):
    return SketchConfig(width, stages, epoch_ns, key)


def all_stages(sk):
    return [sk.stage(s) for s in range(sk.config.mem_stages)]


def test_config_validation():
    with pytest.raises(ValueError):
        cfg(width=0)
    with pytest.raises(ValueError):
        cfg(width=25)
    with pytest.raises(ValueError):
        cfg(stages=0)
    with pytest.raises(ValueError):
        cfg(epoch_ns=0)
    with pytest.raises(ValueError):
        SketchConfig(4, 1, 1000, "src_ip")


def test_cell_counts():
    assert cfg(width=4, stages=1).cell_count == 16
    assert cfg(width=5, stages=3).cell_count == 96
    assert cfg(width=1, stages=1).bucket_count == 2
    assert CELL_BYTES == 72
    assert UPDATE_OPS == 9


def test_memory_budget_enforced():
    # 5 * 2**24 cells is over DEFAULT_MAX_CELLS; the check runs before
    # any stage is allocated.
    assert cfg(width=24, stages=5).cell_count > DEFAULT_MAX_CELLS
    with pytest.raises(ValueError, match="budget"):
        Sketch(cfg(width=24, stages=5))
    Sketch(cfg(width=10))


def test_single_update():
    sk = Sketch(cfg())
    pkt = make_packet(ts=500, length=60)
    sk.update_many((pkt,))
    bucket = shift_xor_hash(extract_key(pkt, SRC_KEY), 4)
    assert list(sk.stage(0)) == [bucket]  # only the touched bucket is held
    cell = sk.stage(0)[bucket]
    assert cell == StageCell(
        pkt_count=1, byte_sum=60, byte_min=60, byte_max=60, last_ts_ns=500,
        iat_sum_ns=0, iat_count=0, iat_min_ns=None, iat_max_ns=None,
    )
    assert sk.epoch_start_ns == 500
    assert sk.epoch_index == 0


def test_accumulation_within_epoch():
    sk = Sketch(cfg(epoch_ns=1_000_000))
    for ts, length in ((1000, 60), (4000, 1500), (9000, 60)):
        sk.update_many((make_packet(ts=ts, length=length),))
    key = extract_key(make_packet(), SRC_KEY)
    cell = sk.stage(0)[shift_xor_hash(key, 4)]
    assert cell.pkt_count == 3
    assert cell.byte_sum == 1620
    assert cell.byte_min == 60
    assert cell.byte_max == 1500
    assert cell.last_ts_ns == 9000
    assert cell.iat_count == 2
    assert cell.iat_sum_ns == 8000
    assert cell.iat_min_ns == 3000
    assert cell.iat_max_ns == 5000
    fv = sk.stage(0)[shift_xor_hash(key, 4)]
    assert fv == cell
    assert feature_value(fv, "byte_avg") == 1620 / 3 == 540
    assert feature_value(fv, "iat_avg_ns") == 8000 / 2 == 4000


def test_empty_bucket_query():
    sk = Sketch(cfg())
    assert sk.stage(0) == {}
    sk.update_many((make_packet(ts=0, src=1),))
    # an untouched bucket has no entry; its cell would be StageCell()
    assert shift_xor_hash(FlowKey(12345, 32), 4) not in sk.stage(0)
    fv = StageCell()
    assert fv.pkt_count == 0 and fv.byte_sum == 0
    assert fv.byte_min is None and fv.iat_max_ns is None
    with pytest.raises(ValueError):
        sk.stage(1)
    with pytest.raises(ValueError):
        sk.stage(-1)


def test_query_returns_a_copy():
    sk = Sketch(cfg())
    pkt = make_packet(ts=500, length=60)
    sk.update_many((pkt,))
    bucket = shift_xor_hash(extract_key(pkt, SRC_KEY), 4)
    before = {bucket: StageCell(pkt_count=1, byte_sum=60, byte_min=60, byte_max=60, last_ts_ns=500)}
    assert sk.stage(0) == before
    stage = sk.stage(0)
    fv = stage[bucket]
    fv.pkt_count += 5
    fv.byte_min = 0
    stage.clear()
    assert sk.stage(0) == before
    assert sk.stage(0)[bucket] == before[bucket]


def test_timestamp_regression_rejected():
    sk = Sketch(cfg())
    sk.update_many((make_packet(ts=100),))
    with pytest.raises(ValueError):
        sk.update_many((make_packet(ts=99),))
    with pytest.raises(ValueError):
        sk.update_many([make_packet(ts=200), make_packet(ts=150)])
    # packets before the regression stay applied, so 200 is the floor
    sk.update_many((make_packet(ts=200),))  # equal timestamps are fine


def test_update_many_matches_single_updates():
    rng = random.Random(31)
    records = random_records(rng, 400, span_ns=10_000)
    for stages in (1, 3):
        a = Sketch(cfg(stages=stages))
        b = Sketch(cfg(stages=stages))
        assert a.update_many(records) == len(records)
        for r in records:
            b.update_many((r,))
        assert all_stages(a) == all_stages(b)
        assert a.epoch_index == b.epoch_index
        assert a.epoch_start_ns == b.epoch_start_ns


FIVE_TUPLE = KeySpec(("src_ip", "dst_ip", "src_port", "dst_port", "protocol"))


@pytest.mark.parametrize(
    "width, key",
    # src_ip folds into 4 and 2 windows at W=8 and 16 (powers of two)
    # and 3, padded, at W=12; the 104-bit 5-tuple into 9, padded, at
    # W=12 and exactly 8 at W=13.
    [(8, SRC_KEY), (16, SRC_KEY), (12, SRC_KEY), (12, FIVE_TUPLE), (13, FIVE_TUPLE)],
    ids=["src_ip-W8", "src_ip-W16", "src_ip-W12", "5tuple-W12", "5tuple-W13"],
)
def test_sketch_matches_oracle_with_a_tiny_fold_memo(monkeypatch, width, key):
    # A two-entry memo is cleared on every third distinct key, so most
    # packets take the fold on a memo miss.
    monkeypatch.setattr(sketch_module, "FOLD_MEMO_MAX", 2)
    folds = []
    real_fold = sketch_module.fold

    def counting_fold(value, key_bits, width_bits):
        folds.append(value)
        return real_fold(value, key_bits, width_bits)

    monkeypatch.setattr(sketch_module, "fold", counting_fold)
    records = random_records(random.Random(width), 600, span_ns=3_000, pool=24)
    config = cfg(width=width, epoch_ns=1000, key=key)
    tracker = ExactTracker(config)
    for r in records:
        tracker.update(r)

    for snap in collect_epochs(Sketch(config), records):
        epoch_index = snap.epoch_index
        cells = dict(zip(snap.buckets, snap.cells))
        touched = set(cells)
        assert all(c.pkt_count for c in cells.values())
        assert touched == {tracker.bucket_of(k) for k in tracker.keys_in_epoch(epoch_index)}
        for bucket in touched:
            want = tracker.expected_bucket(bucket, epoch_index)
            got = cells[bucket]
            if tracker.collision_free(bucket, epoch_index):
                assert got == want
            else:
                assert (got.pkt_count, got.byte_sum, got.byte_min, got.byte_max, got.last_ts_ns) == (
                    want.pkt_count, want.byte_sum, want.byte_min, want.byte_max, want.last_ts_ns,
                )
    assert len(folds) > len(records) // 2


def test_rotation_shifts_stages_bit_for_bit():
    rng = random.Random(41)
    for stages in (1, 2, 3):
        for _ in range(15):
            sk = Sketch(cfg(stages=stages, epoch_ns=10_000_000))
            sk.update_many(random_records(rng, rng.randrange(1, 120), span_ns=9_000_000))
            before = all_stages(sk)
            index_before = sk.epoch_index
            sk.rotate_epoch(sk.epoch_start_ns + 10_000_000)
            assert sk.stage(0) == {}
            for s in range(1, stages):
                assert sk.stage(s) == before[s - 1]
            assert sk.epoch_index == index_before + 1


def test_rotation_drops_oldest_stage():
    sk = Sketch(cfg(stages=2, epoch_ns=1000))
    sk.update_many((make_packet(ts=0, length=111),))
    sk.rotate_epoch(1000)
    oldest = sk.stage(1)
    assert sum(c.pkt_count for c in oldest.values()) == 1
    sk.rotate_epoch(2000)
    assert sum(c.pkt_count for c in sk.stage(1).values()) == 0


def test_stage_contents_across_five_epochs():
    # One packet per epoch with a distinct size; S=3 keeps the last three.
    sk = Sketch(cfg(stages=3, epoch_ns=1000))
    for epoch in range(5):
        sk.update_many((make_packet(ts=epoch * 1000, length=60 + epoch),))
    for stage, expected_len in ((0, 64), (1, 63), (2, 62)):
        sums = [c.byte_sum for c in sk.stage(stage).values() if c.pkt_count]
        assert sums == [expected_len]
    assert sk.epoch_index == 4


def test_auto_rotation_skips_empty_epochs():
    sk = Sketch(cfg(stages=3, epoch_ns=1000))
    sk.update_many((make_packet(ts=100),))
    sk.update_many((make_packet(ts=3100),))  # epochs 1 and 2 are empty
    assert sk.epoch_index == 3
    assert sk.epoch_start_ns == 3100 - (3100 - 100) % 1000
    assert sum(c.pkt_count for c in sk.stage(0).values()) == 1
    assert sum(c.pkt_count for c in sk.stage(1).values()) == 0  # empty epoch 2
    assert sum(c.pkt_count for c in sk.stage(2).values()) == 0  # empty epoch 1


def test_long_gap_equals_repeated_rotation():
    # A gap of at least the stage count drops every held epoch at once
    # and moves the epoch by arithmetic; it must match rotating once
    # per elapsed epoch.
    for gap_epochs in (3, 5, 50):
        fast = Sketch(cfg(stages=3, epoch_ns=1000))
        slow = Sketch(cfg(stages=3, epoch_ns=1000))
        first = make_packet(ts=0, length=99)
        late = make_packet(ts=gap_epochs * 1000 + 7)
        fast.update_many((first,))
        fast.update_many((late,))
        slow.update_many((first,))
        for k in range(1, gap_epochs + 1):
            slow.rotate_epoch(k * 1000)
        slow.update_many((late,))
        assert all_stages(fast) == all_stages(slow)
        assert fast.epoch_index == slow.epoch_index == gap_epochs
        assert fast.epoch_start_ns == slow.epoch_start_ns


def test_rotation_allocates_no_dense_stage():
    # Every rotation across a 500-epoch gap at W=20 starts an empty
    # stage 0.  A dense stage would be 2**20 slots, 8 MiB of pointers,
    # per rotation; the stages hold only the touched cells.
    sk = Sketch(cfg(width=20, stages=2, epoch_ns=1000))
    held = []
    tracemalloc.start()
    try:
        per_packet_replay(
            sk,
            [make_packet(ts=0), make_packet(ts=500_000)],
            lambda sketch, index, complete: held.append(len(sketch.stage(0))),
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held == [1] + [0] * 499 + [1]
    assert [len(cells) for cells in all_stages(sk)] == [1, 0]
    assert peak < 1 << 20


def test_manual_rotation_validation():
    sk = Sketch(cfg())
    with pytest.raises(ValueError):
        sk.rotate_epoch(1000)  # nothing streamed yet
    sk.update_many((make_packet(ts=500),))
    with pytest.raises(ValueError):
        sk.rotate_epoch(500)
    with pytest.raises(ValueError):
        sk.rotate_epoch(400)


def test_iat_restarts_each_epoch():
    # epochs anchor at the first packet, so 0 and 900 share epoch 0
    sk = Sketch(cfg(epoch_ns=1000))
    sk.update_many((make_packet(ts=0),))
    sk.update_many((make_packet(ts=900),))
    sk.update_many((make_packet(ts=1100),))
    cell = sk.stage(0)[shift_xor_hash(extract_key(make_packet(), SRC_KEY), 4)]
    assert cell.pkt_count == 1
    assert cell.iat_count == 0
    assert cell.iat_min_ns is None


def test_colliding_keys_share_a_cell():
    # At width 1 any two keys with equal fold parity land together.
    sk = Sketch(cfg(width=1, epoch_ns=1_000_000))
    a = make_packet(src=1)
    b = make_packet(src=2)
    ka = extract_key(a, SRC_KEY)
    kb = extract_key(b, SRC_KEY)
    assert shift_xor_hash(ka, 1) == shift_xor_hash(kb, 1)
    for ts, pkt in ((10, a), (20, b), (30, a)):
        sk.update_many((make_packet(ts=ts, src=pkt.src_ip, length=100),))
    fv = sk.stage(0)[shift_xor_hash(ka, 1)]
    assert fv.pkt_count == 3
    assert fv.byte_sum == 300
    # bucket-level gaps, both flows
    assert fv.iat_count == 2 and fv.iat_sum_ns == 20
    assert feature_value(fv, "iat_avg_ns") == 20 / 2


def test_memory_is_fixed():
    rng = random.Random(51)
    sk = Sketch(cfg(width=3, stages=2, epoch_ns=500))
    assert sk.config.cell_count == 16
    sk.update_many(random_records(rng, 2000, span_ns=20_000, pool=32))
    rows = [(stage, bucket, c) for stage, cells in enumerate(all_stages(sk)) for bucket, c in cells.items()]
    assert len(rows) == 16  # this traffic touches every cell of both stages
    assert all(0 <= bucket < 8 and 0 <= stage < 2 for stage, bucket, _ in rows)


def test_snapshot_round_trip(tmp_path):
    rng = random.Random(61)
    sk = Sketch(cfg(width=3, stages=2, epoch_ns=2000))
    sk.update_many(random_records(rng, 50, span_ns=5000))
    path = tmp_path / "snap.csv"
    written = [(s, b, cell) for s, cells in enumerate(all_stages(sk)) for b, cell in cells.items()]
    write_snapshot(path, written)
    with open(path, newline="") as fh:
        rows = parse_snapshot(fh)
    # last_ts_ns is stream state, not exported
    expected = [
        (s, b, StageCell(**{**cell.__dict__, "last_ts_ns": None}))
        for s, b, cell in written
    ]
    assert rows == expected
    first = path.read_bytes()
    write_snapshot(path, rows)
    assert path.read_bytes() == first


def test_parse_snapshot_rejects_garbage(tmp_path):
    with pytest.raises(ValueError):
        parse_snapshot(["nope"])
    with pytest.raises(ValueError):
        parse_snapshot(["stage,bucket", "1,2"])


@pytest.mark.parametrize("bad", ["0,1,2", "0,1,2,60,6.5,60,0,0,,", "0,1,x,60,60,60,0,0,,"])
def test_parse_snapshot_names_bad_line(bad):
    good = "0,0,1,60,60,60,0,0,,"
    with pytest.raises(TraceFormatError) as err:
        parse_snapshot([SNAPSHOT_HEADER, good, bad])
    assert err.value.line_no == 3


@pytest.mark.parametrize(
    "field, text",
    [(2, "+3"), (3, "1_0"), (4, " 60"), (5, "03"), (0, "-0"), (9, "\u0661")],
)
def test_parse_snapshot_rejects_non_canonical_integer(field, text):
    good = "0,0,2,120,60,60,1,5,5,5"
    fields = good.split(",")
    fields[field] = text
    with pytest.raises(TraceFormatError) as err:
        parse_snapshot([SNAPSHOT_HEADER, good, ",".join(fields)])
    assert err.value.line_no == 3


def test_parse_snapshot_checks_fields_in_file_order():
    # stage and bucket come first, so a bad bucket is named before a bad
    # cell field on the same row
    with pytest.raises(TraceFormatError) as err:
        parse_snapshot([SNAPSHOT_HEADER, "0,-1,x,60,60,60,0,0,,"])
    assert str(err.value) == "line 2: non-canonical integer '-1'"


def test_collect_epochs_counts_and_flags():
    profile = SyntheticProfile(flows=6, packets_per_flow=40, duration_ns=3_500_000_000)
    records = generate_synthetic(profile, seed=13)
    config = SketchConfig(4, 1, 1_000_000_000, SRC_KEY)
    snaps = collect_epochs(Sketch(config), records)
    assert [s.complete for s in snaps] == [True] * (len(snaps) - 1) + [False]
    assert [s.epoch_index for s in snaps] == list(range(len(snaps)))
    t0 = records[0].timestamp_ns
    for s in snaps:
        assert s.epoch_start_ns == t0 + s.epoch_index * 1_000_000_000
        assert s.bucket_count == 16
        # touched buckets only, ascending, each with its cell
        assert len(s.cells) == len(s.buckets) <= 16
        assert list(s.buckets) == sorted(set(s.buckets))
        assert all(0 <= b < 16 for b in s.buckets)
        assert all(c.pkt_count for c in s.cells)


def test_collect_epochs_empty_trace():
    assert collect_epochs(Sketch(cfg()), []) == []


def test_replay_matches_bulk_epoch_state():
    rng = random.Random(71)
    records = random_records(rng, 600, span_ns=50_000)
    config = cfg(epoch_ns=7000)
    bulk = Sketch(config)
    bulk.update_many(records)
    replayed = Sketch(config)
    collect_epochs(replayed, records)
    assert all_stages(replayed) == all_stages(bulk)
    assert replayed.epoch_index == bulk.epoch_index


def test_per_epoch_conservation():
    rng = random.Random(81)
    records = random_records(rng, 1500, span_ns=40_000, pool=16)
    config = cfg(width=4, epoch_ns=6000)
    snaps = collect_epochs(Sketch(config), records)
    t0 = records[0].timestamp_ns
    for snap in snaps:
        in_epoch = sum(
            1 for r in records if (r.timestamp_ns - t0) // 6000 == snap.epoch_index
        )
        assert sum(c.pkt_count for c in snap.cells) == in_epoch


KEY_SPECS = (SRC_KEY, KeySpec(("src_ip", "dst_port")), KeySpec(("src_ip", "dst_ip", "src_port", "dst_port", "protocol")))


def gapped_records(seed, n=80):
    """Random packets with a gap of several epochs of 1000 ns."""
    rng = random.Random(seed)
    records = random_records(rng, n, span_ns=6_000)
    cut = rng.randrange(n)
    return records[:cut] + [r._replace(timestamp_ns=r.timestamp_ns + 9_000) for r in records[cut:]]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32),
    st.lists(st.integers(0, 80), max_size=5),
    st.integers(1, 10),
    st.integers(1, 3),
    st.sampled_from(KEY_SPECS),
)
def test_epochs_of_column_chunks_match_collect_epochs(seed, cuts, width, stages, key):
    # Chunks end at random cuts, empty ones included.
    records = gapped_records(seed)
    config = cfg(width=width, stages=stages, key=key)
    bounds = [0, *sorted(cuts), len(records)]
    chunks = [
        TraceColumns._make(map(list, zip(*records[lo:hi])) if hi > lo else [[]] * 9)
        for lo, hi in zip(bounds, bounds[1:])
    ]
    assert list(Sketch(config).epochs(chunks)) == collect_epochs(Sketch(config), records)


def test_snapshots_do_not_change_as_later_chunks_are_fed():
    records = gapped_records(7, n=400)
    config = cfg(width=3, stages=2)
    snapshots, taken = [], []
    for snapshot in Sketch(config).epochs(column_chunks(records, 9)):
        snapshots.append(snapshot)
        taken.append(copy.deepcopy(snapshot))
    assert len(snapshots) > 10
    assert snapshots == taken
    # Each equals the copy of stage 0 that the reference replay takes as
    # its epoch closes.
    assert snapshots == reference_snapshots(Sketch(config), records)


def held_bytes(sketch, epochs, first=0):
    """Feed the sketch two packets in each of epochs consecutive 1000-ns
    epochs from epoch first on, and return the bytes that tracemalloc
    counts as held after, and at peak during, the feed.  Held bytes are
    read after a full collection, which empties the interpreter's free
    lists that tracemalloc counts too."""
    batches = [
        [make_packet(ts=e * 1000, src=1), make_packet(ts=e * 1000 + 5, src=2)]
        for e in range(first, first + epochs)
    ]
    gc.collect()
    tracemalloc.start()
    try:
        for batch in batches:
            sketch.update_many(batch)
        gc.collect()
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def test_stages_cost_no_memory_until_traffic_fills_them():
    # At W=1 the budget takes 2**25 stages.  Building the sketch and
    # feeding 100 busy epochs holds only those epochs' cells.
    tracemalloc.start()
    try:
        sketch = Sketch(cfg(width=1, stages=2**20))
        built, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert built < 1 << 16
    held, peak = held_bytes(sketch, 100)
    assert held < 1 << 20 and peak < 1 << 20
    assert [sum(c.pkt_count for c in sketch.stage(s).values()) for s in (0, 99, 100)] == [2, 2, 0]


def test_held_memory_stays_flat_as_epochs_pass():
    # With two stages, the sketch holds two epochs' cells however many
    # epochs have passed.
    sketch = Sketch(cfg(stages=2))
    early, _ = held_bytes(sketch, 20)
    late, _ = held_bytes(sketch, 1980, first=20)
    assert late - early < 4096
    assert sketch.epoch_index == 1999
