"""Differential guard for sweep(): every row must equal a per-config
reference composition, written out here, that builds everything from
scratch for each sketch config:

    collect_epochs(Sketch(config)) -> ExactTracker + GroundTruthGrid.from_tracker
    -> run_detector + score, per detector setting.

Inputs are random grids (W in [1, 10], S in [1, 3], several epoch
lengths and key specs), random labels, gaps of several epochs and, now
and then, two packets out of order.  A z-score setting whose
train_epochs exceeds the completed epochs makes some rows fail.

The sweep builds its cells from per-flow sums, while the reference
replays the sketch, so the settings read every feature: averages too,
whose inter-arrival sums a shared bucket gets only by counting the gaps
between its flows' packets.  One case sweeps W in {1, 2, 3}, where most
buckets hold several of the eight sources.
"""

from hypothesis import given, settings, strategies as st

from flowsketch.detectors import DetectorSetting, run_detector
from flowsketch.evaluation import GroundTruthGrid, score, sweep
from flowsketch.hashing import KeySpec
from flowsketch.ingest import Label
from flowsketch.oracle import ExactTracker
from flowsketch.sketch import Sketch, SketchConfig, collect_epochs

from conftest import column_chunks, make_packet

KEY_SPECS = (
    KeySpec(("src_ip",)),
    KeySpec(("src_ip", "dst_port")),
    KeySpec(("src_ip", "dst_ip", "src_port", "dst_port", "protocol")),
)


def reference_rows(records, configs, settings_):
    """config_id -> (tp, fp, fn, tn, error), one config at a time."""
    out = {}
    for config in configs:
        shared_error = None
        try:
            completed = [s for s in collect_epochs(Sketch(config), records) if s.complete]
            tracker = ExactTracker(config)
            for record in records:
                tracker.update(record)
            grid = GroundTruthGrid.from_tracker(tracker, len(completed))
        except ValueError as exc:
            shared_error = str(exc)
        for setting in settings_:
            config_id = (
                f"W{config.hash_width}-S{config.mem_stages}-E{config.epoch_ns}"
                f"-{config.key_spec}-{setting.detector_id()}-{setting.params_str()}"
            )
            if shared_error is not None:
                out[config_id] = (None, None, None, None, shared_error)
                continue
            try:
                q = score(run_detector(setting, completed), grid)
            except ValueError as exc:
                out[config_id] = (None, None, None, None, str(exc))
            else:
                out[config_id] = (q.tp, q.fp, q.fn, q.tn, None)
    return out


@st.composite
def sweep_runs(draw, width=st.integers(1, 10)):
    widths = draw(st.lists(width, min_size=1, max_size=3, unique=True))
    stages = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2, unique=True))
    epochs = draw(st.lists(st.integers(1, 1000), min_size=1, max_size=2, unique=True))
    keys = draw(st.lists(st.sampled_from(KEY_SPECS), min_size=1, max_size=2, unique=True))
    configs = [SketchConfig(w, s, e, k) for w in widths for s in stages for e in epochs for k in keys]
    longest = max(epochs)
    within = st.integers(0, longest - 1)
    across = st.integers(longest, 6 * longest)
    gaps = draw(st.lists(st.one_of(within, within, across), min_size=1, max_size=24))
    ts = draw(st.integers(0, 10**6))
    records = []
    for gap in [0] + gaps:
        ts += gap
        records.append(
            make_packet(
                ts=ts,
                src=draw(st.integers(1, 8)),
                dst=draw(st.integers(1, 3)),
                sport=draw(st.sampled_from((1234, 4321))),
                dport=draw(st.sampled_from((53, 80, 443))),
                proto=draw(st.sampled_from((6, 17))),
                length=draw(st.sampled_from((60, 576, 1500))),
                label=draw(st.sampled_from((Label.BENIGN, Label.BENIGN, Label.ANOMALOUS))),
            )
        )
    if draw(st.integers(0, 9)) == 0:
        i = draw(st.integers(0, len(records) - 2))
        records[i], records[i + 1] = records[i + 1], records[i]
    return records, configs


@settings(max_examples=150, deadline=None)
@given(
    sweep_runs(),
    st.sampled_from((-1.0, 0.5, 3.0, 700.0)),
    st.sampled_from((0.0, 3.0)),
    st.integers(2, 12),
)
def test_sweep_matches_per_config_reference(run, threshold, k, train_epochs):
    assert_sweep_matches_reference(run, threshold, k, train_epochs)


@settings(max_examples=150, deadline=None)
@given(
    sweep_runs(width=st.integers(1, 3)),
    st.sampled_from((0.5, 3.0, 15.0, 700.0)),
    st.sampled_from((0.0, 0.5, 3.0)),
    st.integers(2, 4),
)
def test_sweep_matches_per_config_reference_in_shared_buckets(run, threshold, k, train_epochs):
    assert_sweep_matches_reference(run, threshold, k, train_epochs)


def assert_sweep_matches_reference(run, threshold, k, train_epochs):
    records, configs = run
    settings_ = [
        DetectorSetting("threshold", threshold=threshold),
        DetectorSetting("zscore", k=k, train_epochs=train_epochs),
        DetectorSetting("ewma", feature="byte_sum", k=k, alpha=0.3),
        DetectorSetting("ewma", k=k, alpha=0.5),
    ]
    for feature in ("byte_avg", "iat_avg_ns"):
        settings_ += [
            DetectorSetting("threshold", feature, threshold=threshold),
            DetectorSetting("zscore", feature, k=k, train_epochs=train_epochs),
        ]
    want = reference_rows(records, configs, settings_)
    rows = sweep(column_chunks(records), configs, settings_)
    assert [r.config_id for r in rows] == sorted(want)
    for row in rows:
        assert (row.tp, row.fp, row.fn, row.tn, row.error) == want[row.config_id], row.config_id


@settings(max_examples=150, deadline=None)
@given(sweep_runs(), st.integers(1, 3), st.booleans(), st.integers(2, 12))
def test_sweep_of_a_stream_in_small_chunks_matches_the_whole_list(run, chunk_rows, over_budget, train_epochs):
    # Chunks of one to three records put chunk edges mid-epoch, across
    # gaps and around an out-of-order pair.  At W=24, S=5 is over the
    # cell budget and S=4 is within it, in one group with one replay.
    records, configs = run
    if over_budget:
        configs = configs + [SketchConfig(24, s, configs[0].epoch_ns, configs[0].key_spec) for s in (5, 4)]
    settings_ = [
        DetectorSetting("threshold", threshold=0.5),
        DetectorSetting("zscore", k=3.0, train_epochs=train_epochs),
    ]
    want = sweep(column_chunks(records), configs, settings_)
    rows = sweep(iter(column_chunks(records, chunk_rows)), configs, settings_)
    assert rows == want
    reference = reference_rows(records, configs, settings_)
    assert {r.config_id: (r.tp, r.fp, r.fn, r.tn, r.error) for r in rows} == reference
