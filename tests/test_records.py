"""The package's record types: immutability, equality, hashing and
validation, as tuples (NamedTuple) or as plain classes."""

from fractions import Fraction

import pytest

from flowsketch.detectors import BaselineModel, DetectorSetting, EpochVerdicts, Verdicts
from flowsketch.evaluation import BenchResult, GroundTruthGrid, ParetoPoint, QualityScores, ResourceCost, SweepRow
from flowsketch.hashing import FlowKey, KeySpec
from flowsketch.ingest import AnomalyKind, AnomalyProfile, SyntheticProfile, TraceMeta
from flowsketch.oracle import FlowStats
from flowsketch.sketch import EpochSnapshot, Sketch, SketchConfig, StageCell

from conftest import make_packet

SPEC = KeySpec(("src_ip", "dst_port"))
CONFIG = SketchConfig(4, 2, 1000, SPEC)
EPOCH = EpochVerdicts("ewma", 0, 16, (3,), (1.0,), (False,), 0.0, False)

# One instance of every immutable type, with a field to assign to.
FROZEN = [
    (TraceMeta(3, 0, 10, 1), "record_count"),
    (AnomalyProfile(AnomalyKind.FLOOD), "rate_multiplier"),
    (SyntheticProfile(), "flows"),
    (SPEC, "fields"),
    (FlowKey(5, 8), "value"),
    (CONFIG, "hash_width"),
    (EpochSnapshot(0, 0, True, 16, (3,), (StageCell(1),)), "cells"),
    (EPOCH, "buckets"),
    (Verdicts((EPOCH,)), "epochs"),
    (BaselineModel("pkt_count", 2, 16, {3: 1.0}, {3: 0.5}), "means"),
    (DetectorSetting("threshold", threshold=5.0), "threshold"),
    (GroundTruthGrid(16, 2, frozenset({(3, 0)})), "anomalous"),
    (QualityScores(1, 0, 0, 31, Fraction(1), Fraction(1), Fraction(1)), "f1"),
    (ResourceCost(2304, 9), "memory_bytes"),
    (BenchResult(1e6, (1e6, 1e6, 1e6), 10_000, 60.0), "pps"),
]


@pytest.mark.parametrize("record, field", FROZEN, ids=[type(record).__name__ for record, _ in FROZEN])
def test_immutable_records_refuse_assignment(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert getattr(record, field) is before


# Two equal instances built apart, and one that differs, of every type
# the sweep keys dicts with.
KEYED = [
    (lambda: KeySpec(("src_ip", "dst_port")), KeySpec(("dst_port", "src_ip"))),
    (lambda: FlowKey(5, 8), FlowKey(5, 9)),
    (lambda: SketchConfig(4, 2, 1000, KeySpec(("src_ip", "dst_port"))), SketchConfig(4, 3, 1000, SPEC)),
    (lambda: DetectorSetting("zscore", k=3.0, train_epochs=2), DetectorSetting("zscore", k=3.0, train_epochs=3)),
]


@pytest.mark.parametrize("build, other", KEYED, ids=[type(other).__name__ for _, other in KEYED])
def test_key_types_compare_and_hash_by_value(build, other):
    a, b = build(), build()
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert a != other and other not in {a: 1}


def test_key_spec_caches_its_layout():
    spec = KeySpec(("src_ip", "dst_port"))
    assert spec.total_bits == 48
    assert spec.layout == (("src_ip", 16), ("dst_port", 0))
    assert spec.layout is spec.layout
    assert str(spec) == "src_ip+dst_port" and spec == KeySpec.parse("src_ip+dst_port")


def test_cells_compare_by_value():
    cell = StageCell(pkt_count=2, byte_sum=120, byte_min=60, byte_max=60, last_ts_ns=7)
    assert cell == StageCell(2, 120, 60, 60, 7) and cell != StageCell(2, 120, 60, 60, 8)
    assert StageCell() == StageCell() and StageCell() != 0
    stats = FlowStats(pkt_count=2, key=FlowKey(5, 8), epoch_index=1)
    assert stats == FlowStats(2, key=FlowKey(5, 8), epoch_index=1)
    assert stats != FlowStats(2, key=FlowKey(5, 8), epoch_index=2)
    # A flow's stats are not a bare cell, whatever its metrics.
    assert stats != StageCell(2)
    with pytest.raises(TypeError):
        hash(cell)
    assert repr(StageCell(1)) == (
        "StageCell(pkt_count=1, byte_sum=0, byte_min=None, byte_max=None, last_ts_ns=None,"
        " iat_sum_ns=0, iat_count=0, iat_min_ns=None, iat_max_ns=None)"
    )


def test_stage_copies_are_equal_but_not_the_live_cells():
    sketch = Sketch(SketchConfig(4, 1, 1000, KeySpec(("src_ip",))))
    sketch.update_many([make_packet(ts=1, src=3), make_packet(ts=2, src=3)])
    first, second = sketch.stage(0), sketch.stage(0)
    assert first == second and list(first) == [3]
    assert first[3] is not second[3]
    first[3].pkt_count += 1
    assert sketch.stage(0)[3] == second[3] != first[3]


def test_mutable_rows_compare_by_value():
    row = SweepRow("a", 4, 1, 1000, "src_ip", "zscore", "feature=pkt_count")
    twin = SweepRow("a", 4, 1, 1000, "src_ip", "zscore", "feature=pkt_count")
    assert row == twin
    twin.on_front = True
    assert row != twin
    assert ParetoPoint("a", 0.5, 10) == ParetoPoint("a", 0.5, 10) != ParetoPoint("a", 0.5, 10, dominated=True)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: KeySpec(()), "key spec must select at least one field"),
        (lambda: KeySpec(("src_mac",)), "unknown key field 'src_mac'"),
        (lambda: KeySpec(("src_ip", "src_ip")), "duplicate key field 'src_ip'"),
        (lambda: FlowKey(0, -1), "key width must be nonnegative"),
        (lambda: FlowKey(4, 2), "key value 4 does not fit in 2 bits"),
        (lambda: FlowKey(-1, 2), "key value -1 does not fit in 2 bits"),
        (lambda: SketchConfig(0, 1, 1000, SPEC), "hash width must be in [1, 24], got 0"),
        (lambda: SketchConfig(25, 1, 1000, SPEC), "hash width must be in [1, 24], got 25"),
        (lambda: SketchConfig(4, 0, 1000, SPEC), "mem_stages must be at least 1"),
        (lambda: SketchConfig(4, 1, 0, SPEC), "epoch_ns must be positive"),
        (lambda: SketchConfig(4, 1, 1000, "src_ip"), "key_spec must be a KeySpec"),
        (lambda: SketchConfig(hash_width=4, mem_stages=1, epoch_ns=1000, key_spec=("src_ip",)),
         "key_spec must be a KeySpec"),
    ],
)
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message
