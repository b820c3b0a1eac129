"""Command-line interface.

Subcommands: generate, extract, detect, sweep, bench, pareto.  Every
flag can also be supplied through a JSON config document (--config);
explicit command-line flags win over the document, which wins over
built-in defaults.

Exit codes: 0 success, 1 usage error, 2 data or configuration error,
3 sweep completed with failed cells.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from .detectors import DetectorSetting, run_detector, write_verdicts
from .evaluation import (
    ParetoPoint,
    bench_throughput,
    parse_report_csv,
    pareto_front,
    sweep,
    write_report_csv,
    write_report_json,
)
from .hashing import KeySpec
from .ingest import (
    AnomalyKind,
    AnomalyProfile,
    SyntheticProfile,
    generate_synthetic,
    read_trace,
    write_trace,
)
from .sketch import Sketch, SketchConfig, collect_epochs, replay_epochs, write_snapshot

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PARTIAL = 3

_GENERATE_DEFAULTS = {
    "flows": 10,
    "packets_per_flow": 100,
    "duration_ns": 10_000_000_000,
    "timing": "uniform",
    "start_ts_ns": 0,
    "anomaly": "none",
    "rate_multiplier": 50.0,
    "window_start": 0.4,
    "window_stop": 0.5,
    "seed": 0,
}

_SKETCH_DEFAULTS = {
    "hash_width": 4,
    "mem_stages": 1,
    "epoch_ns": 1_000_000_000,
    "key_spec": "src_ip",
}

_DETECTOR_DEFAULTS = {
    "detector": "zscore",
    "feature": "pkt_count",
    "threshold": None,
    "k": 3.0,
    "alpha": 0.3,
    "train_epochs": 2,
}

_SWEEP_DEFAULTS = {
    "hash_widths": [4, 5],
    "mem_stages": [1],
    "epoch_ns": [1_000_000_000],
    "key_specs": ["src_ip"],
    "bench": False,
    "bench_repetitions": 3,
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors by default; remap to 1 so 2
    # stays reserved for data errors.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_list(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _str_list(text: str) -> list[str]:
    return [p.strip() for p in text.split(",") if p.strip()]


def _load_config_doc(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config document must be a JSON object")
    return doc


def _merge(defaults: dict, doc: dict, args: argparse.Namespace) -> dict:
    """Resolve option values: CLI flag > config document > default."""
    merged = dict(defaults)
    for key, value in doc.items():
        if key not in defaults:
            raise ValueError(f"unknown config key {key!r}")
        merged[key] = value
    for key in defaults:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    return merged


def _parse_key_spec(value) -> KeySpec:
    if isinstance(value, (list, tuple)):
        return KeySpec(tuple(value))
    return KeySpec.parse(str(value))


def _sketch_config(opts: dict) -> SketchConfig:
    return SketchConfig(
        hash_width=int(opts["hash_width"]),
        mem_stages=int(opts["mem_stages"]),
        epoch_ns=int(opts["epoch_ns"]),
        key_spec=_parse_key_spec(opts["key_spec"]),
    )


# Parameters each detector kind uses, with their types.  Only these are
# passed on, so the canonical parameter string stays minimal.
_DETECTOR_PARAMS = {
    "threshold": {"threshold": float},
    "zscore": {"k": float, "train_epochs": int},
    "ewma": {"k": float, "alpha": float},
}


def _detector_setting(opts: dict) -> DetectorSetting:
    kind = str(opts["detector"])
    params = _DETECTOR_PARAMS.get(kind, {})
    return DetectorSetting(
        kind,
        str(opts["feature"]),
        **{
            name: None if opts[name] is None else cast(opts[name])
            for name, cast in params.items()
        },
    )


def _add_config_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config document; flags override it")


def _add_sketch_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--hash-width", type=int, dest="hash_width")
    parser.add_argument("--mem-stages", type=int, dest="mem_stages")
    parser.add_argument("--epoch-ns", type=int, dest="epoch_ns")
    parser.add_argument("--key-spec", dest="key_spec", help='e.g. "src_ip" or "src_ip+dst_port"')


def _add_detector_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--detector", choices=("threshold", "zscore", "ewma"))
    parser.add_argument("--feature", choices=("pkt_count", "byte_sum", "byte_avg", "iat_avg_ns"))
    parser.add_argument("--threshold", type=float)
    parser.add_argument("--k", type=float)
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--train-epochs", type=int, dest="train_epochs")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="flowsketch", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[], help="write a synthetic labeled trace")
    p.add_argument("--out", required=True)
    p.add_argument("--flows", type=int)
    p.add_argument("--packets-per-flow", type=int, dest="packets_per_flow")
    p.add_argument("--duration-ns", type=int, dest="duration_ns")
    p.add_argument("--timing", choices=("uniform", "periodic"))
    p.add_argument("--start-ts-ns", type=int, dest="start_ts_ns")
    p.add_argument("--anomaly", choices=("none", "flood", "portscan"))
    p.add_argument("--rate-multiplier", type=float, dest="rate_multiplier")
    p.add_argument("--window-start", type=float, dest="window_start")
    p.add_argument("--window-stop", type=float, dest="window_stop")
    p.add_argument("--seed", type=int)
    _add_config_flag(p)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("extract", help="replay a trace and dump per-epoch sketch snapshots")
    p.add_argument("--trace", required=True)
    p.add_argument("--out-dir", required=True, dest="out_dir")
    _add_sketch_flags(p)
    _add_config_flag(p)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("detect", help="run one detector over a trace's completed epochs")
    p.add_argument("--trace", required=True)
    p.add_argument("--out", required=True)
    _add_sketch_flags(p)
    _add_detector_flags(p)
    _add_config_flag(p)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("sweep", help="evaluate a grid of configurations on a labeled trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.add_argument("--hash-widths", type=_int_list, dest="hash_widths")
    p.add_argument("--mem-stages", type=_int_list, dest="mem_stages")
    p.add_argument("--epoch-ns", type=_int_list, dest="epoch_ns")
    p.add_argument("--key-specs", type=_str_list, dest="key_specs")
    p.add_argument("--bench", action="store_true", default=None)
    p.add_argument("--bench-repetitions", type=int, dest="bench_repetitions")
    _add_detector_flags(p)
    _add_config_flag(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("bench", help="measure sketch update throughput on a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--repetitions", type=int, default=3)
    _add_sketch_flags(p)
    _add_config_flag(p)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("pareto", help="recompute the Pareto front from a sweep report")
    p.add_argument("--report", required=True)
    p.set_defaults(func=_cmd_pareto)

    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    doc = _load_config_doc(args.config)
    opts = _merge(_GENERATE_DEFAULTS, doc.get("generate", {}), args)
    anomaly = None
    if opts["anomaly"] != "none":
        anomaly = AnomalyProfile(
            kind=AnomalyKind(opts["anomaly"]),
            rate_multiplier=float(opts["rate_multiplier"]),
            window_start=float(opts["window_start"]),
            window_stop=float(opts["window_stop"]),
        )
    profile = SyntheticProfile(
        flows=int(opts["flows"]),
        packets_per_flow=int(opts["packets_per_flow"]),
        duration_ns=int(opts["duration_ns"]),
        timing=str(opts["timing"]),
        start_ts_ns=int(opts["start_ts_ns"]),
        anomaly=anomaly,
    )
    records = generate_synthetic(profile, int(opts["seed"]))
    meta = write_trace(args.out, records)
    print(
        f"wrote {meta.record_count} records ({meta.anomalous_count} anomalous) "
        f"spanning [{meta.first_ts_ns}, {meta.last_ts_ns}] ns to {args.out}"
    )
    return EXIT_OK


def _cmd_extract(args: argparse.Namespace) -> int:
    doc = _load_config_doc(args.config)
    config = _sketch_config(_merge(_SKETCH_DEFAULTS, doc.get("sketch", {}), args))
    records, _ = read_trace(args.trace)
    os.makedirs(args.out_dir, exist_ok=True)
    written = []

    def visit(sketch: Sketch, index: int, complete: bool) -> None:
        suffix = "" if complete else "_partial"
        path = os.path.join(args.out_dir, f"epoch_{index:04d}{suffix}.csv")
        write_snapshot(path, sketch.snapshot())
        written.append(path)

    replay_epochs(Sketch(config), records, visit)
    print(f"wrote {len(written)} epoch snapshots to {args.out_dir}")
    return EXIT_OK


def _cmd_detect(args: argparse.Namespace) -> int:
    doc = _load_config_doc(args.config)
    config = _sketch_config(_merge(_SKETCH_DEFAULTS, doc.get("sketch", {}), args))
    setting = _detector_setting(_merge(_DETECTOR_DEFAULTS, doc.get("detector", {}), args))
    records, _ = read_trace(args.trace)
    snapshots = [s for s in collect_epochs(Sketch(config), records) if s.complete]
    verdicts = run_detector(setting, snapshots)
    write_verdicts(args.out, verdicts)
    flagged = sum(1 for v in verdicts if v.anomalous)
    print(
        f"{setting.detector_id()}: {len(verdicts)} verdicts ({flagged} anomalous) "
        f"over {len(snapshots)} completed epochs, written to {args.out}"
    )
    return EXIT_OK


def _sweep_detectors(doc: dict, args: argparse.Namespace) -> list[DetectorSetting]:
    listed = doc.get("detectors")
    if listed is not None and getattr(args, "detector", None) is None:
        settings = []
        for entry in listed:
            unknown = set(entry) - {"detector", "feature", "threshold", "k", "alpha", "train_epochs"}
            if unknown:
                raise ValueError(f"unknown detector keys {sorted(unknown)}")
            merged = dict(_DETECTOR_DEFAULTS)
            merged.update(entry)
            settings.append(_detector_setting(merged))
        if not settings:
            raise ValueError("config lists no detectors")
        return settings
    merged = _merge(_DETECTOR_DEFAULTS, {k: v for k, v in doc.items() if k in _DETECTOR_DEFAULTS}, args)
    return [_detector_setting(merged)]


def _cmd_sweep(args: argparse.Namespace) -> int:
    doc = _load_config_doc(args.config)
    sweep_doc = dict(doc.get("sweep", {}))
    detector_doc = {k: sweep_doc.pop(k) for k in list(sweep_doc) if k in _DETECTOR_DEFAULTS or k == "detectors"}
    opts = _merge(_SWEEP_DEFAULTS, sweep_doc, args)
    settings = _sweep_detectors(detector_doc, args)
    configs = [
        SketchConfig(w, s, e, _parse_key_spec(k))
        for w in opts["hash_widths"]
        for s in opts["mem_stages"]
        for e in opts["epoch_ns"]
        for k in opts["key_specs"]
    ]
    records, meta = read_trace(args.trace)
    report = sweep(
        records,
        configs,
        settings,
        bench=bool(opts["bench"]),
        bench_repetitions=int(opts["bench_repetitions"]),
    )
    os.makedirs(args.out_dir, exist_ok=True)
    csv_path = os.path.join(args.out_dir, "report.csv")
    json_path = os.path.join(args.out_dir, "report.json")
    write_report_csv(csv_path, report.rows)
    write_report_json(json_path, report.rows)
    front = [r for r in report.rows if r.on_front]
    print(
        f"swept {len(report.rows)} cells over {meta.record_count} records; "
        f"{len(front)} on the Pareto front; report in {args.out_dir}"
    )
    for r in sorted(front, key=lambda r: (-(r.f1 or 0.0), r.memory_bytes or 0)):
        pps = "-" if r.measured_pps is None else f"{r.measured_pps:.0f}"
        print(f"  {r.config_id}  f1={r.f1:.4f}  memory={r.memory_bytes}B  pps={pps}")
    failed = report.failed_rows
    if failed:
        print(f"{len(failed)} cells failed:", file=sys.stderr)
        for r in failed:
            print(f"  {r.config_id}: {r.error}", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    doc = _load_config_doc(args.config)
    config = _sketch_config(_merge(_SKETCH_DEFAULTS, doc.get("sketch", {}), args))
    records, _ = read_trace(args.trace)
    result = bench_throughput(config, records, repetitions=args.repetitions)
    runs = ", ".join(f"{r:.0f}" for r in result.runs)
    print(f"{result.pps:.0f} packets/s median over {len(result.runs)} runs [{runs}]")
    gbps = result.pps * result.mean_packet_bytes / 1e9
    print(
        f"approx {gbps:.3f} GB/s at mean packet size {result.mean_packet_bytes:.1f} B "
        "(informational)"
    )
    return EXIT_OK


def _cmd_pareto(args: argparse.Namespace) -> int:
    with open(args.report, "r", encoding="utf-8", newline="") as fh:
        rows = parse_report_csv(fh)
    scored = [r for r in rows if r.f1 is not None and r.memory_bytes is not None]
    if not scored:
        raise ValueError("report has no scored rows")
    points = [ParetoPoint(r.config_id, r.f1, r.memory_bytes, r.measured_pps) for r in scored]
    front, dominated = pareto_front(points)
    print(f"{len(front)} of {len(points)} configurations on the front:")
    for p in front:
        pps = "-" if p.measured_pps is None else f"{p.measured_pps:.0f}"
        print(f"  {p.config_id}  f1={p.f1:.4f}  memory={p.memory_bytes}B  pps={pps}")
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"flowsketch: {exc}", file=sys.stderr)
        return EXIT_DATA
    except json.JSONDecodeError as exc:
        print(f"flowsketch: bad config document: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, OSError) as exc:
        print(f"flowsketch: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
