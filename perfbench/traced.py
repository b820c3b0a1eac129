"""Traced composition of `flowsketch sweep`, for the per-layer metrics.

Calls the library's public functions in the order evaluation.sweep()
calls them and wraps each call in a span named "<module>.<step>".  All
counts come from the functions' return values; no private attribute is
read.  Spans stay in memory and are written out, with the counts and
the confusion counts per cell, when the run ends.

Usage (with the repository's src directory on PYTHONPATH):

    python3 perfbench/traced.py SPEC_JSON OUT_JSON SPAWN_NS

SPEC_JSON is written by run.py.  SPAWN_NS is the parent's
time.monotonic_ns() just before it started this process; monotonic_ns
reads the system-wide CLOCK_MONOTONIC on Linux, so the two processes'
readings compare, and the traced total covers interpreter start-up the
way the untraced sweep's wall time does.  When the spec names a
probe_trace, the layers that sweep() does not call (generate, write,
hash folds, plain update_many) are timed after the composition.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

from flowsketch.detectors import DetectorSetting, run_detector
from flowsketch.evaluation import (
    GroundTruthGrid,
    ParetoPoint,
    SweepRow,
    pareto_front,
    resource_model,
    score,
    write_report_csv,
    write_report_json,
)
from flowsketch.hashing import KeySpec, extract_key, shift_xor_hash
from flowsketch.ingest import (
    AnomalyKind,
    AnomalyProfile,
    SyntheticProfile,
    generate_synthetic,
    read_trace,
    write_trace,
)
from flowsketch.oracle import ExactTracker
from flowsketch.sketch import FOLD_MEMO_MAX, Sketch, SketchConfig, collect_epochs

class Tracer:
    """In-memory span recorder: name, start, end, parent index, run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append({"name": name, "parent": parent, "run": self.run_id})
        self._open.append(index)
        start = time.monotonic_ns()
        try:
            yield
        finally:
            self.spans[index]["start_ns"] = start
            self.spans[index]["end_ns"] = time.monotonic_ns()
            self._open.pop()


def sketch_configs(sweep_spec: dict) -> list[SketchConfig]:
    # Same nesting order as the CLI's sweep grid.
    return [
        SketchConfig(w, s, e, KeySpec.parse(k))
        for w in sweep_spec["hash_widths"]
        for s in sweep_spec["mem_stages"]
        for e in sweep_spec["epoch_ns"]
        for k in sweep_spec["key_specs"]
    ]


def detector_settings(sweep_spec: dict) -> list[DetectorSetting]:
    settings = []
    for entry in sweep_spec["detectors"]:
        params = {k: v for k, v in entry.items() if k != "detector"}
        settings.append(DetectorSetting(entry["detector"], **params))
    return settings


def config_id(config: SketchConfig, setting: DetectorSetting) -> str:
    # The report's row id; run.py matches rows across runs by it.
    return (
        f"W{config.hash_width}-S{config.mem_stages}-E{config.epoch_ns}"
        f"-{config.key_spec}-{setting.detector_id()}-{setting.params_str()}"
    )


def compose_sweep(spec: dict, tracer: Tracer, counts: dict) -> tuple[list, dict]:
    """Run the sweep's layers in sweep()'s order; return the records and
    the confusion counts per cell."""
    configs = sketch_configs(spec["sweep"])
    settings = detector_settings(spec["sweep"])
    confusion = {}
    with tracer.span("evaluation.sweep"):
        with tracer.span("ingest.read"):
            records, meta = read_trace(spec["trace"])
        rows = []
        for config in configs:
            with tracer.span("evaluation.config"):
                cost = resource_model(config)
                with tracer.span("sketch.collect"):
                    snapshots = collect_epochs(Sketch(config), records)
                completed = [s for s in snapshots if s.complete]
                with tracer.span("trace.count"):
                    loads = [c.pkt_count for s in snapshots for c in s.cells]
                    counts["epochs"] += len(snapshots)
                    counts["cells_copied"] += len(loads)
                    counts["cells_touched"] += sum(1 for x in loads if x)
                    counts["max_bucket_load"] = max(counts["max_bucket_load"], max(loads, default=0))
                    counts["snapshot_packets"].append(sum(loads))
                with tracer.span("oracle.track"):
                    tracker = ExactTracker(config)
                    for record in records:
                        tracker.update(record)
                with tracer.span("oracle.grid"):
                    grid = GroundTruthGrid.from_tracker(tracker, len(completed))
                with tracer.span("trace.count"):
                    counts["flow_epochs"] += sum(1 for _ in tracker.flows())
                for setting in settings:
                    with tracer.span("detectors." + setting.kind):
                        verdicts = run_detector(setting, completed)
                    with tracer.span("evaluation.score"):
                        quality = score(verdicts, grid)
                    with tracer.span("trace.count"):
                        counts["verdicts"] += len(verdicts)
                        counts["flagged"] += sum(1 for v in verdicts if v.anomalous)
                    row = SweepRow(
                        config_id=config_id(config, setting),
                        hash_width=config.hash_width,
                        mem_stages=config.mem_stages,
                        epoch_ns=config.epoch_ns,
                        key_spec=str(config.key_spec),
                        detector_id=setting.detector_id(),
                        detector_params=setting.params_str(),
                        tp=quality.tp,
                        fp=quality.fp,
                        fn=quality.fn,
                        tn=quality.tn,
                        precision=float(quality.precision),
                        recall=float(quality.recall),
                        f1=float(quality.f1),
                        memory_bytes=cost.memory_bytes,
                        update_ops=cost.update_ops,
                    )
                    rows.append(row)
                    confusion[row.config_id] = [row.tp, row.fp, row.fn, row.tn]
        with tracer.span("evaluation.pareto"):
            points = [ParetoPoint(r.config_id, r.f1, r.memory_bytes) for r in rows]
            pareto_front(points, use_pps=False)
            for r, p in zip(rows, points):
                r.on_front = not p.dominated
            rows.sort(key=lambda r: r.config_id)
        with tracer.span("evaluation.write"):
            write_report_csv(spec["report_dir"] + "/report.csv", rows)
            write_report_json(spec["report_dir"] + "/report.json", rows)
    counts["rows"] = meta.record_count
    counts["configs"] = len(configs)
    counts["cells"] = len(rows)
    counts["oracle_keys"] = len({(c.key_spec, c.epoch_ns) for c in configs})
    return records, confusion


def probe_layers(spec: dict, records: list, tracer: Tracer, counts: dict) -> None:
    """Time the layers sweep() does not call: trace generation and
    writing, the hash fold per distinct key, and update_many alone, once
    per (key spec, W, epoch length)."""
    gen = dict(spec["generate"])
    kind = gen.pop("anomaly", "none")
    anomaly_params = {
        k: gen.pop(k) for k in ("rate_multiplier", "window_start", "window_stop") if k in gen
    }
    anomaly = None if kind == "none" else AnomalyProfile(AnomalyKind(kind), **anomaly_params)
    with tracer.span("ingest.generate"):
        generated = generate_synthetic(SyntheticProfile(**gen, anomaly=anomaly), spec["seed"])
    with tracer.span("ingest.write"):
        write_trace(spec["probe_trace"], generated)
    del generated
    configs = sketch_configs(spec["sweep"])
    update_s = {}
    for key_text in spec["sweep"]["key_specs"]:
        key_spec = KeySpec.parse(key_text)
        with tracer.span("hashing.keys"):
            keys = {extract_key(r, key_spec) for r in records}
        counts["distinct_keys"] = max(counts["distinct_keys"], len(keys))
        counts["memo_load"] = max(counts["memo_load"], len(keys) / FOLD_MEMO_MAX)
        for width in spec["sweep"]["hash_widths"]:
            with tracer.span("hashing.fold"):
                for key in keys:
                    shift_xor_hash(key, width)
            for epoch_ns in spec["sweep"]["epoch_ns"]:
                sketch = Sketch(SketchConfig(width, 1, epoch_ns, key_spec))
                with tracer.span("sketch.update"):
                    counts["update_packets"] += sketch.update_many(records)
                span = tracer.spans[-1]
                update_s[(width, epoch_ns, str(key_spec))] = (span["end_ns"] - span["start_ns"]) / 1e9
    # update_many time matched to the sweep's configs, for replay_ratio.
    counts["update_s_per_config"] = sum(
        update_s[(c.hash_width, c.epoch_ns, str(c.key_spec))] for c in configs
    )


def main(argv: list[str]) -> int:
    spec_path, out_path, spawn_ns = argv[0], argv[1], int(argv[2])
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = Tracer(spec["run_id"])
    counts = {
        "epochs": 0, "cells_copied": 0, "cells_touched": 0, "max_bucket_load": 0,
        "snapshot_packets": [], "flow_epochs": 0, "verdicts": 0, "flagged": 0,
        "distinct_keys": 0, "memo_load": 0.0, "update_packets": 0,
    }
    records, confusion = compose_sweep(spec, tracer, counts)
    composed_ns = time.monotonic_ns()
    # "trace.count" spans are the tracer's own counting over return
    # values; they are left out of the traced total.
    counting_ns = sum(s["end_ns"] - s["start_ns"] for s in tracer.spans if s["name"] == "trace.count")
    traced_total_s = (composed_ns - spawn_ns - counting_ns) / 1e9
    if spec["probe_trace"]:
        tracer.run_id = spec["run_id"] + "-probe"
        probe_layers(spec, records, tracer, counts)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "spans": tracer.spans,
                "counts": counts,
                "confusion": confusion,
                "traced_total_s": traced_total_s,
            },
            fh,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
