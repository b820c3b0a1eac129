"""Exact per-flow tracker and bucket merge semantics."""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from flowsketch.hashing import FlowKey, KeySpec, shift_xor_hash
from flowsketch.ingest import Label, TraceColumns
from flowsketch.oracle import ExactTracker, FlowStats, merge_flow_stats
from flowsketch.sketch import BucketSums, EpochCollector, FlowSums, Sketch, SketchConfig, StageCell, collect_epochs

from conftest import make_packet, random_records

SRC_KEY = KeySpec(("src_ip",))


def tracker(width=8, epoch_ns=1000, key=SRC_KEY):
    return ExactTracker(SketchConfig(width, 1, epoch_ns, key))


def test_single_packet_stats():
    tr = tracker()
    tr.update(make_packet(ts=5, src=7, length=200))
    (fs,) = list(tr.flows())
    assert fs.key == FlowKey(7, 32)
    assert fs.epoch_index == 0
    assert fs.pkt_count == 1
    assert fs.byte_sum == 200
    assert fs.byte_min == fs.byte_max == 200
    assert fs.last_ts_ns == 5
    assert fs.iat_count == 0 and fs.iat_sum_ns == 0
    assert fs.iat_min_ns is None and fs.iat_max_ns is None


def test_interleaved_flows_keep_per_flow_gaps():
    tr = tracker()
    tr.update(make_packet(ts=0, src=1))
    tr.update(make_packet(ts=10, src=2))
    tr.update(make_packet(ts=30, src=1))
    a, b = sorted(tr.flows(), key=lambda fs: fs.key.value)
    assert (a.key, a.epoch_index, b.key, b.epoch_index) == (FlowKey(1, 32), 0, FlowKey(2, 32), 0)
    assert a.iat_count == 1 and a.iat_sum_ns == 30  # not 20: flow-level gap
    assert b.iat_count == 0


def test_iat_count_is_pkt_count_minus_one():
    rng = random.Random(3)
    tr = tracker(epoch_ns=5000)
    for r in random_records(rng, 800, span_ns=20_000):
        tr.update(r)
    for fs in tr.flows():
        assert fs.iat_count == max(fs.pkt_count - 1, 0)


def test_epoch_assignment_and_conservation():
    rng = random.Random(7)
    records = random_records(rng, 600, span_ns=12_000)
    tr = tracker(epoch_ns=3000)
    for r in records:
        tr.update(r)
    t0 = records[0].timestamp_ns
    per_epoch = {}
    for r in records:
        per_epoch[(r.timestamp_ns - t0) // 3000] = per_epoch.get((r.timestamp_ns - t0) // 3000, 0) + 1
    got = {}
    for fs in tr.flows():
        got[fs.epoch_index] = got.get(fs.epoch_index, 0) + fs.pkt_count
    assert got == per_epoch
    assert tr.epoch_count == max(per_epoch) + 1


def test_expected_bucket_single_flow_identity():
    tr = tracker()
    for ts in (0, 40, 90):
        tr.update(make_packet(ts=ts, src=9, length=100 + ts))
    bucket = tr.bucket_of(FlowKey(9, 32))
    cell = tr.expected_bucket(bucket, 0)
    (fs,) = tr.flows()
    assert fs.key == FlowKey(9, 32) and fs.epoch_index == 0
    assert cell.pkt_count == fs.pkt_count == 3
    assert cell.byte_sum == fs.byte_sum
    assert cell.byte_min == fs.byte_min and cell.byte_max == fs.byte_max
    assert cell.last_ts_ns == fs.last_ts_ns
    assert cell.iat_sum_ns == fs.iat_sum_ns and cell.iat_count == fs.iat_count
    assert tr.collision_free(bucket, 0)


def _stats(key_value, pkts):
    fs = FlowStats(key=FlowKey(key_value, 32), epoch_index=0)
    for ts, length in pkts:
        fs.observe(ts, length)
    return fs


def test_merge_combines_flows():
    a = _stats(1, [(0, 60), (10, 1500)])
    b = _stats(2, [(5, 100), (25, 100), (26, 700)])
    cell = merge_flow_stats([a, b])
    assert cell == StageCell(
        pkt_count=5,
        byte_sum=60 + 1500 + 100 + 100 + 700,
        byte_min=60,
        byte_max=1500,
        last_ts_ns=26,
        iat_sum_ns=10 + 20 + 1,
        iat_count=3,
        iat_min_ns=1,
        iat_max_ns=20,
    )


def test_merge_is_order_independent():
    rng = random.Random(13)
    flows = []
    for v in range(6):
        pkts = sorted((rng.randrange(1000), rng.choice((60, 576, 1500))) for _ in range(rng.randrange(1, 8)))
        flows.append(_stats(v, pkts))
    merged = merge_flow_stats(flows)
    for _ in range(10):
        rng.shuffle(flows)
        assert merge_flow_stats(flows) == merged
    assert merge_flow_stats([]) == StageCell()


def test_collision_tracking():
    tr = tracker(width=1)
    tr.update(make_packet(ts=0, src=1))  # parity 1
    tr.update(make_packet(ts=1, src=2))  # parity 1, same bucket
    bucket = tr.bucket_of(FlowKey(1, 32))
    assert bucket == tr.bucket_of(FlowKey(2, 32))
    assert not tr.collision_free(bucket, 0)
    assert tr.collision_free(1 - bucket, 0)
    assert len(tr.flows_in_bucket(bucket, 0)) == 2
    merged = tr.expected_bucket(bucket, 0)
    assert merged.pkt_count == 2


def test_anomalous_cells():
    tr = tracker(epoch_ns=100)
    tr.update(make_packet(ts=0, src=1))
    tr.update(make_packet(ts=10, src=2, label=Label.ANOMALOUS))
    tr.update(make_packet(ts=150, src=2))
    cells = tr.anomalous_cells()
    assert cells == {(tr.bucket_of(FlowKey(2, 32)), 0)}


def test_oracle_rejects_regression():
    tr = tracker()
    tr.update(make_packet(ts=50))
    with pytest.raises(ValueError):
        tr.update(make_packet(ts=49))


def chunks_at(packets, cuts):
    """The packets as column chunks that end at the cuts; a cut may
    make an empty chunk."""
    bounds = [0, *cuts, len(packets)]
    return [
        TraceColumns._make(map(list, zip(*packets[lo:hi])) if hi > lo else [[]] * 9)
        for lo, hi in zip(bounds, bounds[1:])
    ]


def flow_sums(packets, key, epoch_ns, cuts=(), widths=()):
    """FlowSums.finish() of the packets fed in column chunks that end
    at the cuts."""
    sums = FlowSums(epoch_ns, key.total_bits, widths)
    for chunk in chunks_at(packets, cuts):
        sums.feed(chunk, key.key_column(chunk))
    return sums.finish()


def anomalous_keys(packets, key, epoch_ns, cuts=()):
    """The anomalous (raw key, epoch) pairs of flow_sums."""
    return flow_sums(packets, key, epoch_ns, cuts)[0]


def test_anomalous_keys_holds_raw_keys_of_anomalous_packets():
    key = KeySpec(("src_ip", "dst_port"))
    packets = [
        make_packet(ts=7, src=1, dport=80),
        make_packet(ts=17, src=2, dport=443, label=Label.ANOMALOUS),
        make_packet(ts=107, src=2, dport=443, label=Label.ANOMALOUS),
        make_packet(ts=350, src=3, dport=53, label=Label.ANOMALOUS),
    ]
    # Epochs of 100 ns anchor at the first packet, ts 7, whichever batch
    # holds the later packets.
    want = {(2 << 16 | 443, 0), (2 << 16 | 443, 1), (3 << 16 | 53, 3)}
    for cuts in ((), (1,), (0, 2), (1, 2, 3), (4, 4)):
        assert anomalous_keys(packets, key, 100, cuts) == want
    assert anomalous_keys(packets[:1], key, 100) == frozenset()
    assert anomalous_keys([], key, 100) == frozenset()


def test_anomalous_keys_rejects_regression_as_the_tracker_does():
    packets = [make_packet(ts=50), make_packet(ts=60), make_packet(ts=49, label=Label.ANOMALOUS)]
    tr = tracker()
    with pytest.raises(ValueError) as want:
        for pkt in packets:
            tr.update(pkt)
    assert str(want.value) == "timestamp regression: 49 after 60"
    # Within a batch and across two.
    for cuts in ((), (2,)):
        with pytest.raises(ValueError) as got:
            anomalous_keys(packets, SRC_KEY, 1000, cuts)
        assert str(got.value) == str(want.value)


def test_bucket_of_matches_hash():
    tr = tracker(width=6)
    for v in (0, 1, 0xDEADBEEF, 0xFFFFFFFF):
        assert tr.bucket_of(FlowKey(v, 32)) == shift_xor_hash(FlowKey(v, 32), 6)


def test_keys_in_epoch():
    tr = tracker(epoch_ns=100)
    tr.update(make_packet(ts=0, src=1))
    tr.update(make_packet(ts=5, src=2))
    tr.update(make_packet(ts=120, src=1))
    assert sorted(k.value for k in tr.keys_in_epoch(0)) == [1, 2]
    assert [k.value for k in tr.keys_in_epoch(1)] == [1]


KEY_SPECS = (
    SRC_KEY,
    KeySpec(("dst_port", "src_ip")),
    KeySpec(("src_ip", "dst_ip", "src_port", "dst_port", "protocol")),
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32),
    st.lists(st.integers(0, 60), max_size=4),
    st.sampled_from(KEY_SPECS),
    st.sampled_from((50, 1000, 10**6)),
)
def test_anomalous_keys_over_random_cuts_match_the_tracker(seed, cuts, key, epoch_ns):
    records = random_records(random.Random(seed), 60, span_ns=20_000, anomalous_rate=0.3)
    tr = tracker(epoch_ns=epoch_ns, key=key)
    for r in records:
        tr.update(r)
    want = {(k.value, e) for k, e in tr._anomalous}
    assert anomalous_keys(records, key, epoch_ns, sorted(cuts)) == want


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 39), st.lists(st.integers(0, 40), max_size=3))
def test_anomalous_keys_name_a_regression_as_the_tracker_does(seed, at, cuts):
    # The regressing row may sit inside a chunk or open one.
    records = random_records(random.Random(seed), 40, span_ns=20_000, anomalous_rate=0.3)
    assume(records[at - 1].timestamp_ns > 0)
    records[at] = records[at]._replace(timestamp_ns=records[at - 1].timestamp_ns - 1)
    tr = tracker()
    with pytest.raises(ValueError) as want:
        for r in records:
            tr.update(r)
    with pytest.raises(ValueError) as got:
        anomalous_keys(records, SRC_KEY, 1000, sorted(cuts))
    assert str(got.value) == str(want.value)
    # The flow pass, the epoch collector and update_many read one clock:
    # each names the regression so too, and keeps the rows before it.
    config = SketchConfig(4, 2, 1000, SRC_KEY)
    sums = FlowSums(1000, SRC_KEY.total_bits, (4,))
    collector, sketch = EpochCollector(Sketch(config)), Sketch(config)
    chunks = chunks_at(records, sorted(cuts))
    for feed in (lambda c: sums.feed(c, c.src_ip), collector.feed, lambda c: sketch.update_many(c.records())):
        with pytest.raises(ValueError) as got:
            for chunk in chunks:
                feed(chunk)
        assert str(got.value) == str(want.value)
    before = records[:at]
    assert sums.finish() == flow_sums(before, SRC_KEY, 1000, widths=(4,))
    assert collector.finish() == collect_epochs(Sketch(config), before)
    kept = Sketch(config)
    kept.update_many(before)
    assert [sketch.stage(s) for s in (0, 1)] == [kept.stage(s) for s in (0, 1)]
    assert (sketch.epoch_index, sketch.epoch_start_ns) == (kept.epoch_index, kept.epoch_start_ns)


def sketch_sums(snapshots):
    """Each snapshot with its cells cut to the four fields a detector
    reads, as BucketSums."""
    return [
        s._replace(cells=tuple(BucketSums(c.pkt_count, c.byte_sum, c.iat_sum_ns, c.iat_count) for c in s.cells))
        for s in snapshots
    ]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32),
    st.lists(st.integers(0, 60), max_size=4),
    st.sampled_from(KEY_SPECS),
    st.sampled_from((50, 1000, 10**6)),
    st.lists(st.integers(1, 12), min_size=1, max_size=3, unique=True),
    st.integers(1, 40),
)
def test_flow_sums_fold_to_the_sketch_snapshots_at_every_width(seed, cuts, key, epoch_ns, widths, pool):
    # A small pool of flows at a small width puts several flows in most
    # buckets; a gap of several epochs makes empty snapshots between.
    rng = random.Random(seed)
    records = random_records(rng, 60, span_ns=20_000, pool=pool, anomalous_rate=0.3)
    records += [r._replace(timestamp_ns=r.timestamp_ns + 7 * epoch_ns + 20_000) for r in records[-5:]]
    _, snapshots = flow_sums(records, key, epoch_ns, sorted(cuts), widths)
    assert sorted(snapshots) == sorted(widths)
    for width in widths:
        want = collect_epochs(Sketch(SketchConfig(width, 1, epoch_ns, key)), records)
        assert snapshots[width] == sketch_sums(want)


def test_flow_sums_sum_gaps_across_the_flows_of_a_bucket():
    # At W=1 a key's bucket is its bit parity, so sources 1 and 2 share
    # bucket 1.  Their gaps interleave: the bucket's gap sum is its last
    # packet's time minus its first's, 40, not the flows' own gaps,
    # 20 + 30.
    packets = [
        make_packet(ts=0, src=1, length=100),
        make_packet(ts=10, src=2, length=200),
        make_packet(ts=20, src=1, length=100),
        make_packet(ts=30, src=3, length=60),
        make_packet(ts=40, src=2, length=200),
    ]
    (_, snapshots) = flow_sums(packets, SRC_KEY, 1000, widths=(1,))
    (snap,) = snapshots[1]
    assert (snap.epoch_index, snap.epoch_start_ns, snap.complete, snap.bucket_count) == (0, 0, False, 2)
    assert snap.buckets == (0, 1)
    assert snap.cells == (BucketSums(1, 60, 0, 0), BucketSums(4, 600, 40, 3))


def test_flow_sums_hold_one_open_epoch_and_close_once():
    sums = FlowSums(100, 32, (4,))
    packets = [make_packet(ts=t, src=s) for t, s in ((0, 1), (50, 2), (120, 1), (450, 3))]
    chunk = TraceColumns._make(map(list, zip(*packets)))
    sums.feed(chunk, chunk.src_ip)
    assert list(sums._flows) == [3]
    pairs, snapshots = sums.finish()
    assert [(s.epoch_index, s.complete, len(s.buckets)) for s in snapshots[4]] == [
        (0, True, 2), (1, True, 1), (2, True, 0), (3, True, 0), (4, False, 1)
    ]
    for call in (lambda: sums.feed(chunk, chunk.src_ip), sums.finish):
        with pytest.raises(ValueError, match="the flow pass is finished"):
            call()
