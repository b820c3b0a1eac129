"""Exact per-flow tracker and bucket merge semantics."""

import random

import pytest

from flowsketch.hashing import FlowKey, KeySpec, shift_xor_hash
from flowsketch.ingest import Label
from flowsketch.oracle import ExactTracker, FlowStats, merge_flow_stats
from flowsketch.sketch import SketchConfig, StageCell

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
