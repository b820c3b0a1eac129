"""Differential guard for the epoch clock: collect_epochs and
update_many must agree with the tests' per-packet reference replay,
which rotates once per elapsed epoch, including across gaps shorter and
at least as long as the stage count."""

from hypothesis import given, settings, strategies as st

from flowsketch.hashing import KeySpec
from flowsketch.sketch import Sketch, SketchConfig, collect_epochs

from conftest import make_packet, per_packet_replay, reference_snapshots

KEY_SPECS = (KeySpec(("src_ip",)), KeySpec(("src_ip", "dst_port")), KeySpec(("dst_port", "protocol")))


@st.composite
def gapped_streams(draw):
    width = draw(st.integers(1, 8))
    stages = draw(st.integers(1, 4))
    epoch_ns = draw(st.integers(1, 1000))
    config = SketchConfig(width, stages, epoch_ns, draw(st.sampled_from(KEY_SPECS)))
    short = st.integers(0, stages * epoch_ns - 1)
    long = st.integers(stages * epoch_ns, (stages + 3) * epoch_ns)
    gaps = draw(st.lists(st.one_of(short, long), max_size=30))
    ts = draw(st.integers(0, 10**6))
    packets = []
    for gap in [0] + gaps:
        ts += gap
        packets.append(
            make_packet(
                ts=ts,
                src=draw(st.integers(1, 6)),
                dport=draw(st.sampled_from((53, 80, 443))),
                proto=draw(st.sampled_from((6, 17))),
                length=draw(st.sampled_from((60, 576, 1500))),
            )
        )
    return config, packets


def all_stages(sketch):
    return [sketch.stage(s) for s in range(sketch.config.mem_stages)]


@settings(max_examples=150, deadline=None)
@given(gapped_streams())
def test_collect_epochs_matches_per_packet_replay(stream):
    config, packets = stream
    sketch, reference = Sketch(config), Sketch(config)
    assert collect_epochs(sketch, packets) == reference_snapshots(reference, packets)
    assert all_stages(sketch) == all_stages(reference)
    assert sketch.epoch_index == reference.epoch_index


@settings(max_examples=150, deadline=None)
@given(gapped_streams(), st.lists(st.integers(0, 31), max_size=6))
def test_update_many_batch_splits_agree(stream, cuts):
    config, packets = stream
    whole = Sketch(config)
    assert whole.update_many(packets) == len(packets)
    reference = Sketch(config)
    per_packet_replay(reference, packets, lambda *args: None)
    assert all_stages(whole) == all_stages(reference)
    split = Sketch(config)
    bounds = [0, *sorted(c % (len(packets) + 1) for c in cuts), len(packets)]
    for lo, hi in zip(bounds, bounds[1:]):
        split.update_many(packets[lo:hi])
    assert all_stages(split) == all_stages(whole)
    assert split.epoch_index == whole.epoch_index
    assert split.epoch_start_ns == whole.epoch_start_ns
