"""Command-line interface.

Subcommands: generate, extract, detect, sweep, bench, pareto.  Every
option except the input and output paths can also be set in a JSON
config document (--config); explicit command-line flags win over the
document, which wins over built-in defaults.

Exit codes: 0 success, 1 usage error, 2 data or configuration error,
3 sweep completed with failed cells.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from itertools import chain
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .ingest import (
    AnomalyKind,
    AnomalyProfile,
    SyntheticProfile,
    TraceColumns,
    generate_synthetic,
    open_trace,
    parse_trace_chunks,
    read_trace,
    write_trace,
)

# evaluation, and through it fractions, is imported inside the four
# commands that score or bench, and detectors inside the two that
# detect and by the flags only they take (see _Parser), so that
# generate and extract start without compiling or importing them; sketch
# and hashing are imported inside the commands that read a trace, so
# that generate does not import them.  No command imports oracle.
if TYPE_CHECKING:
    from .detectors import DetectorSetting
    from .evaluation import ParetoPoint, SweepRow
    from .sketch import SketchConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PARTIAL = 3

# The config document sections each subcommand reads.
_SECTIONS = {
    "generate": ("generate",),
    "extract": ("sketch",),
    "detect": ("sketch", "detector"),
    "sweep": ("sweep",),
    "bench": ("sketch",),
}

# Options that only the command line sets: the input and output paths,
# and the document itself.
_COMMAND_LINE_ONLY = {"config", "trace", "out", "out_dir"}


class _UsageError(Exception):
    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    # add_late, if given, adds the rest of the parser's arguments when it
    # first parses.  argparse runs a command's parser only for the
    # command given, so what add_late imports, no other command does.
    def __init__(self, *args, add_late=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._add_late = add_late

    def parse_known_args(self, args=None, namespace=None):
        if self._add_late is not None:
            add, self._add_late = self._add_late, None
            add(self)
        return super().parse_known_args(args, namespace)

    # Raise rather than exit, so the caller picks the exit code: 1 for a
    # bad command line (argparse would exit 2, which is kept for data
    # errors) and 2 for a bad value in a config document.
    def error(self, message):
        raise _UsageError(self, message)


def _int_list(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _str_list(text: str) -> list[str]:
    return [p.strip() for p in text.split(",") if p.strip()]


def _load_config_doc(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config document must be a JSON object")
    known = set(chain.from_iterable(_SECTIONS.values()))
    for name, section in doc.items():
        if name not in known:
            raise ValueError(f"unknown config section {name!r}")
        if not isinstance(section, dict):
            raise ValueError(f"config section {name!r} must be a JSON object")
    return doc


def _config_tokens(
    args: argparse.Namespace, rest: list[str], settings: dict, keys: set[str]
) -> list[str]:
    """Render config settings as --flag=value tokens (the = keeps a
    negative number a value), each checked by the command's own parser
    so that a bad key or value is reported by its name."""
    tokens = []
    for key, value in settings.items():
        if key not in keys:
            raise ValueError(f"unknown config key {key!r}")
        text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        token = f"--{key.replace('_', '-')}={text}"
        try:
            args.parser.parse_args([token, *rest])
        except _UsageError as exc:
            raise ValueError(f"config key {key!r}: {exc}") from None
        tokens.append(token)
    return tokens


def _detector_given(parser: argparse.ArgumentParser, rest: list[str]) -> bool:
    # argparse fills in a default only where the namespace has no value
    # yet, so the None survives unless the command line sets --detector.
    return parser.parse_args(rest, argparse.Namespace(detector=None)).detector is not None


def _with_config(args: argparse.Namespace, argv: list[str]) -> list[argparse.Namespace]:
    """Parse the command line again behind the config document's
    settings.  argparse keeps an option's last occurrence, so a flag
    wins over the document, which wins over the default, and each
    document value passes the flag's own type and choices.

    A sweep gives one namespace per entry of its detectors list, where
    an entry's key wins over the same key in the sweep section, unless
    --detector on the command line replaces the list."""
    if getattr(args, "config", None) is None:
        return [args]
    doc = _load_config_doc(args.config)
    rest = argv[argv.index(args.command) + 1 :]
    settings: dict = {}
    for section in _SECTIONS[args.command]:
        settings.update(doc.get(section, {}))
    entries = settings.pop("detectors", None) if args.command == "sweep" else None
    tokens = _config_tokens(args, rest, settings, vars(args).keys() - _COMMAND_LINE_ONLY)
    if entries is None or _detector_given(args.parser, rest):
        return [args.parser.parse_args(tokens + rest)]
    if not isinstance(entries, list) or not entries:
        raise ValueError("config key 'detectors' must be a nonempty list")
    from .detectors import DETECTOR_PARAMS

    # The keys of one entry: one detector setting.
    entry_keys = {"detector", "feature", *chain.from_iterable(DETECTOR_PARAMS.values())}
    namespaces = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise ValueError(f"a detectors entry must be a JSON object, got {entry!r}")
        entry_tokens = _config_tokens(args, rest, entry, entry_keys)
        namespaces.append(args.parser.parse_args(tokens + entry_tokens + rest))
    return namespaces


@contextmanager
def _trace_chunks(path: str) -> Iterator[Iterator[TraceColumns]]:
    """The trace's column chunks, each parsed as it is read.  On a
    ValueError in the body, the rest of the trace is read before it is
    re-raised, so that an error in the trace itself, such as a bad row
    further on, is the one reported."""
    with open_trace(path) as fh:
        chunks = parse_trace_chunks(fh)
        try:
            yield chunks
        except ValueError:
            for _ in chunks:
                pass
            raise


def _print_front(points: Iterable[ParetoPoint | SweepRow]) -> None:
    for p in points:
        print(f"  {p.config_id}  f1={p.f1:.4f}  memory={p.memory_bytes}B")


def _sketch_config(args: argparse.Namespace) -> SketchConfig:
    from .hashing import KeySpec
    from .sketch import SketchConfig

    return SketchConfig(args.hash_width, args.mem_stages, args.epoch_ns, KeySpec.parse(args.key_spec))


def _detector_setting(args: argparse.Namespace) -> DetectorSetting:
    from .detectors import DETECTOR_PARAMS, DetectorSetting

    params = {name: getattr(args, name) for name in DETECTOR_PARAMS[args.detector]}
    return DetectorSetting(args.detector, args.feature, **params)


def _add_config_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config document; flags override it")


def _add_sketch_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--hash-width", type=int, default=4)
    parser.add_argument("--mem-stages", type=int, default=1)
    parser.add_argument("--epoch-ns", type=int, default=1_000_000_000)
    parser.add_argument("--key-spec", default="src_ip", help='e.g. "src_ip" or "src_ip+dst_port"')


def _add_detector_flags(parser: argparse.ArgumentParser) -> None:
    """The detector flags, then --config, last as on every command.  It
    is detect's and sweep's add_late, as their choices import detectors."""
    from .detectors import DETECTOR_PARAMS, FEATURES

    parser.add_argument("--detector", choices=DETECTOR_PARAMS, default="zscore")
    parser.add_argument("--feature", choices=FEATURES, default="pkt_count")
    parser.add_argument("--threshold", type=float)
    parser.add_argument("--k", type=float, default=3.0)
    parser.add_argument("--alpha", type=float, default=0.3)
    parser.add_argument("--train-epochs", type=int, default=2)
    _add_config_flag(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="flowsketch", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic labeled trace")
    p.add_argument("--out", required=True)
    p.add_argument("--flows", type=int, default=10)
    p.add_argument("--packets-per-flow", type=int, default=100)
    p.add_argument("--duration-ns", type=int, default=10_000_000_000)
    p.add_argument("--timing", choices=("uniform", "periodic"), default="uniform")
    p.add_argument("--start-ts-ns", type=int, default=0)
    p.add_argument("--anomaly", choices=("none", "flood", "portscan"), default="none")
    p.add_argument("--rate-multiplier", type=float, default=50.0)
    p.add_argument("--window-start", type=float, default=0.4)
    p.add_argument("--window-stop", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    _add_config_flag(p)
    p.set_defaults(func=_cmd_generate, parser=p)

    p = sub.add_parser("extract", help="replay a trace and dump per-epoch sketch snapshots")
    p.add_argument("--trace", required=True)
    p.add_argument("--out-dir", required=True)
    _add_sketch_flags(p)
    _add_config_flag(p)
    p.set_defaults(func=_cmd_extract, parser=p)

    p = sub.add_parser(
        "detect", help="run one detector over a trace's completed epochs", add_late=_add_detector_flags
    )
    p.add_argument("--trace", required=True)
    p.add_argument("--out", required=True)
    _add_sketch_flags(p)
    p.set_defaults(func=_cmd_detect, parser=p)

    p = sub.add_parser(
        "sweep", help="evaluate a grid of configurations on a labeled trace", add_late=_add_detector_flags
    )
    p.add_argument("--trace", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--hash-widths", type=_int_list, default=[4, 5])
    p.add_argument("--mem-stages", type=_int_list, default=[1])
    p.add_argument("--epoch-ns", type=_int_list, default=[1_000_000_000])
    p.add_argument("--key-specs", type=_str_list, default=["src_ip"])
    p.set_defaults(func=_cmd_sweep, parser=p)

    p = sub.add_parser("bench", help="measure sketch update throughput on a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--repetitions", type=int, default=3)
    _add_sketch_flags(p)
    _add_config_flag(p)
    p.set_defaults(func=_cmd_bench, parser=p)

    p = sub.add_parser("pareto", help="recompute the Pareto front from a sweep report")
    p.add_argument("--report", required=True)
    p.set_defaults(func=_cmd_pareto)

    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    anomaly = None
    if args.anomaly != "none":
        anomaly = AnomalyProfile(
            kind=AnomalyKind(args.anomaly),
            rate_multiplier=args.rate_multiplier,
            window_start=args.window_start,
            window_stop=args.window_stop,
        )
    profile = SyntheticProfile(
        flows=args.flows,
        packets_per_flow=args.packets_per_flow,
        duration_ns=args.duration_ns,
        timing=args.timing,
        start_ts_ns=args.start_ts_ns,
        anomaly=anomaly,
    )
    records = generate_synthetic(profile, args.seed)
    meta = write_trace(args.out, records)
    print(
        f"wrote {meta.record_count} records ({meta.anomalous_count} anomalous) "
        f"spanning [{meta.first_ts_ns}, {meta.last_ts_ns}] ns to {args.out}"
    )
    return EXIT_OK


def _cmd_extract(args: argparse.Namespace) -> int:
    from .sketch import Sketch, write_snapshot

    config = _sketch_config(args)
    # Every row is read before the first file is written, so that an
    # error in the trace leaves no file behind.
    with _trace_chunks(args.trace) as chunks:
        snapshots = list(Sketch(config).epochs(chunks))
    os.makedirs(args.out_dir, exist_ok=True)
    for e, snapshot in enumerate(snapshots):
        suffix = "" if snapshot.complete else "_partial"
        path = os.path.join(args.out_dir, f"epoch_{e:04d}{suffix}.csv")
        # Stage s at the close of epoch e is epoch e - s, bit for bit,
        # and the list holds every elapsed epoch, so epoch e - s is
        # snapshots[e - s].
        rows = [
            (s, bucket, cell)
            for s in range(min(config.mem_stages, e + 1))
            for bucket, cell in zip(snapshots[e - s].buckets, snapshots[e - s].cells)
        ]
        write_snapshot(path, rows)
    print(f"wrote {len(snapshots)} epoch snapshots to {args.out_dir}")
    return EXIT_OK


def _cmd_detect(args: argparse.Namespace) -> int:
    from .detectors import check_setting, run_detector, write_verdicts
    from .evaluation import GroundTruthGrid, score
    from .sketch import Sketch

    config = _sketch_config(args)
    setting = _detector_setting(args)
    with _trace_chunks(args.trace) as chunks:
        sketch = Sketch(config)
        # Refused before the replay, and after the budget check.
        check_setting(setting)
        verdicts = run_detector(setting, filter(attrgetter("complete"), sketch.epochs(chunks)))
    epochs = len(verdicts.epochs)
    write_verdicts(args.out, verdicts)
    # score is the one counter of the cells a shared verdict stands for:
    # against a grid with no anomalous cell, flagged cells are its fp.
    counts = score(verdicts, GroundTruthGrid(config.bucket_count, epochs, frozenset()))
    cells, flagged = counts.fp + counts.tn, counts.fp
    print(
        f"{setting.detector_id()}: {cells} verdicts ({flagged} anomalous) "
        f"over {epochs} completed epochs, written to {args.out}"
    )
    return EXIT_OK


def _cmd_sweep(*runs: argparse.Namespace) -> int:
    from .evaluation import sweep, write_report_csv, write_report_json
    from .hashing import KeySpec
    from .sketch import SketchConfig

    # One namespace per detector setting; only their detector options differ.
    args = runs[0]
    settings = [_detector_setting(run) for run in runs]
    configs = [
        SketchConfig(w, s, e, KeySpec.parse(k))
        for w in args.hash_widths
        for s in args.mem_stages
        for e in args.epoch_ns
        for k in args.key_specs
    ]
    record_count = 0

    def counted(chunks: Iterable[TraceColumns]) -> Iterator[TraceColumns]:
        nonlocal record_count
        for chunk in chunks:
            record_count += len(chunk.timestamp_ns)
            yield chunk

    with _trace_chunks(args.trace) as chunks:
        rows = sweep(counted(chunks), configs, settings)
    os.makedirs(args.out_dir, exist_ok=True)
    csv_path = os.path.join(args.out_dir, "report.csv")
    json_path = os.path.join(args.out_dir, "report.json")
    write_report_csv(csv_path, rows)
    write_report_json(json_path, rows)
    front = [r for r in rows if r.on_front]
    print(
        f"swept {len(rows)} cells over {record_count} records; "
        f"{len(front)} on the Pareto front; report in {args.out_dir}"
    )
    _print_front(sorted(front, key=lambda r: (-(r.f1 or 0.0), r.memory_bytes or 0)))
    failed = [r for r in rows if r.error is not None]
    if failed:
        print(f"{len(failed)} cells failed:", file=sys.stderr)
        for r in failed:
            print(f"  {r.config_id}: {r.error}", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    from .evaluation import bench_throughput

    config = _sketch_config(args)
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
    from .evaluation import ParetoPoint, parse_report_csv, pareto_front

    with open(args.report, "r", encoding="utf-8", newline="") as fh:
        rows = parse_report_csv(fh)
    scored = [r for r in rows if r.f1 is not None and r.memory_bytes is not None]
    if not scored:
        raise ValueError("report has no scored rows")
    points = [ParetoPoint(r.config_id, r.f1, r.memory_bytes) for r in scored]
    front, dominated = pareto_front(points)
    print(f"{len(front)} of {len(points)} configurations on the front:")
    _print_front(front)
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except _UsageError as exc:
        exc.parser.print_usage(sys.stderr)
        print(f"{exc.parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(*_with_config(args, argv))
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
