#!/usr/bin/env python3
"""Sweep benchmark: trace CSV -> `flowsketch sweep` -> report.csv/report.json.

    python3 perfbench/run.py --workload flood_narrow --seed 1 --seconds 50 --trace 0

Run from the root of a checkout.  The program is the checkout's own
source tree (src/ on PYTHONPATH, no install).  One invocation measures
one workload from perfbench/workloads.json, running each step as a
fresh child process, one at a time (closed loop, one client):

1. set-up: `flowsketch generate` writes the workload's trace from --seed
   (untimed; it also compiles the modules);
2. reference: perfbench/traced.py composes the library's public
   functions in sweep()'s order with a span around each call; its
   confusion counts are the reference for every sweep below, and it is
   the warm-up run, discarded from the end-to-end metrics;
3. timed: until --seconds have passed (and at least MIN_SWEEPS times),
   a timed `flowsketch generate` into a scratch file, which must match
   the trace byte for byte, then a timed untraced `flowsketch sweep`.
   Each process is timed from spawn to exit.

Every sweep's reports are checked (exit code, row count, confusion
counts summing to 2**W x completed epochs, counts equal to the
reference).  A sweep that fails a check fails all of its cells.

--trace 0 reports the end-to-end metrics and --trace 1 the per-layer
ones, named with their units in BENCHMARK.json.  The last line of
stdout is the JSON result; the lines before it give the median,
quartiles and sample count of each end-to-end measurement.  Spans,
samples and reports are left under .perfbench/<workload>/.

--workload all runs every workload of BENCHMARK.json, each in its own
process.
--self-test runs every workload at a tiny size, checks that every
declared metric is emitted with its unit, and checks that a corrupted
report is caught and counted as failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
PY = sys.executable

MIN_SWEEPS = 3
# Every invocation must end within 180 s; stop starting work before that.
RUN_BUDGET_S = 165


class BenchError(Exception):
    """The benchmark cannot produce a result (no program, no trace)."""


def load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def declared_metrics() -> tuple[dict, dict]:
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    doc = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    units = lambda key: {m["name"]: m["unit"] for m in doc[key]}
    return units("end_to_end"), units("per_layer")


def workload_names() -> list[str]:
    """Every workload run.py knows, including those kept out of BENCHMARK.json."""
    return list(load_json(os.path.join(HERE, "workloads.json"))["workloads"])


def benchmark_workloads() -> list[str]:
    return [w["name"] for w in load_json(os.path.join(ROOT, "BENCHMARK.json"))["workloads"]]


def load_workload(name: str, tiny: bool) -> tuple[dict, dict]:
    """(generate options, sweep options) in the CLI's config-document form."""
    doc = load_json(os.path.join(HERE, "workloads.json"))
    workload = doc["workloads"][name]
    generate = dict(workload["generate"])
    sweep = dict(workload["sweep"])
    if tiny:
        generate.update(workload["tiny"].get("generate", {}))
        sweep.update(workload["tiny"].get("sweep", {}))
    sweep["detectors"] = [doc["detectors"][d] for d in sweep["detectors"]]
    return generate, sweep


@dataclass
class Child:
    rc: int | None  # None when killed at the deadline
    wall_s: float
    rss_mib: float


def run_child(argv: list[str], log_path: str, deadline: float) -> Child:
    """Run argv to completion with src on PYTHONPATH.  The wall time runs
    from spawn to reaping; peak RSS is the child's own ru_maxrss."""
    # A fixed hash seed gives every run the same str hashes and so the
    # same dict and set layouts.
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    reaped = {}
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)

        def reap() -> None:
            _, status, usage = os.wait4(proc.pid, 0)
            reaped.update(end=time.perf_counter(), status=status, usage=usage)

        waiter = threading.Thread(target=reap)
        waiter.start()
        waiter.join(max(0.0, deadline - time.monotonic()))
        killed = waiter.is_alive()
        if killed:
            proc.kill()
            waiter.join()
    proc.returncode = os.waitstatus_to_exitcode(reaped["status"])
    return Child(
        None if killed else proc.returncode,
        reaped["end"] - start,
        reaped["usage"].ru_maxrss / 1024,
    )


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def trace_shape(path: str) -> tuple[int, int, int]:
    """(packets, first timestamp, last timestamp), read independently of
    the library: the first field of the first and last data rows."""
    count = 0
    first = last = None
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            ts = line.split(",", 1)[0]
            if first is None:
                first = ts
            last = ts
            count += 1
    if count == 0:
        raise BenchError(f"{path} holds no packets")
    return count, int(first), int(last)


def read_reports(out_dir: str) -> tuple[list[dict], list[dict]]:
    with open(os.path.join(out_dir, "report.csv"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    csv_rows = [dict(zip(header, line.split(","))) for line in lines[1:] if line]
    json_rows = load_json(os.path.join(out_dir, "report.json"))
    return csv_rows, json_rows


def confusion(row: dict) -> list[int] | None:
    if row["tp"] in ("", None):
        return None
    return [int(row[k]) for k in ("tp", "fp", "fn", "tn")]


class WorkloadRun:
    """One workload at one seed: trace, reference, sweeps, and the tally
    of checked cells."""

    def __init__(self, name: str, seed: int, tiny: bool = False):
        self.name = name
        self.seed = seed
        self.generate_opts, self.sweep_opts = load_workload(name, tiny)
        self.dir = os.path.join(WORK, name + ("-tiny" if tiny else ""))
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.trace_path = os.path.join(self.dir, "trace.csv")
        self.config_path = os.path.join(self.dir, "config.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump({"generate": self.generate_opts, "sweep": self.sweep_opts}, fh, indent=1)
        opts = self.sweep_opts
        self.cells = (
            len(opts["hash_widths"]) * len(opts["mem_stages"]) * len(opts["epoch_ns"])
            * len(opts["key_specs"]) * len(opts["detectors"])
        )
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.reference: dict | None = None
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def generate(self, out_path: str) -> Child:
        return run_child(
            [PY, "-m", "flowsketch.cli", "generate", "--out", out_path,
             "--seed", str(self.seed), "--config", self.config_path],
            self.path("generate.log"),
            self.deadline,
        )

    def setup(self) -> None:
        """Write the workload's trace; this first, untimed set-up also
        compiles the program's modules."""
        child = self.generate(self.trace_path)
        if child.rc != 0:
            raise BenchError(f"generate exited with {child.rc}; see {self.path('generate.log')}")
        self.digest = file_digest(self.trace_path)
        self.packets, first_ts, last_ts = trace_shape(self.trace_path)
        # Epochs anchor at the first packet; the one holding the last
        # packet is the trailing partial epoch, never scored.
        self.completed = {e: (last_ts - first_ts) // e for e in self.sweep_opts["epoch_ns"]}

    def timed_setup(self) -> float:
        """Set up again into a scratch file; return the wall time."""
        out_path = self.path("setup_trace.csv")
        child = self.generate(out_path)
        if child.rc != 0:
            self.problems.append(f"generate exited with {child.rc}; see {self.path('generate.log')}")
        elif file_digest(out_path) != self.digest:
            self.problems.append("generate wrote different traces for one seed")
        return child.wall_s

    def trace_reference(self, probes: bool) -> None:
        """Run the traced composition; keep its confusion counts as the
        reference for every sweep."""
        report_dir = self.path("traced")
        os.makedirs(report_dir, exist_ok=True)
        spec = {
            "run_id": f"{self.name}-seed{self.seed}-traced",
            "trace": self.trace_path,
            "seed": self.seed,
            "generate": self.generate_opts,
            "sweep": self.sweep_opts,
            "report_dir": report_dir,
            "probe_trace": self.path("probe_trace.csv") if probes else None,
        }
        spec_path = self.path("traced_spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh, indent=1)
        out_path = self.path("traced_out.json")
        spawn_ns = time.monotonic_ns()
        child = run_child(
            [PY, os.path.join(HERE, "traced.py"), spec_path, out_path, str(spawn_ns)],
            self.path("traced.log"),
            self.deadline,
        )
        if child.rc != 0:
            self.problems.append(f"traced composition exited with {child.rc}; see {self.path('traced.log')}")
            return
        traced = load_json(out_path)
        if any(n != self.packets for n in traced["counts"]["snapshot_packets"]):
            self.problems.append(
                f"traced snapshots hold {traced['counts']['snapshot_packets']} packets per config, "
                f"the trace has {self.packets}"
            )
        if probes and file_digest(spec["probe_trace"]) != file_digest(self.trace_path):
            self.problems.append("generate_synthetic + write_trace differ from `flowsketch generate`")
        self.reference = traced
        problems, _ = self.check_reports(report_dir)
        self.problems.extend(f"traced composition: {p}" for p in problems)

    def check_reports(self, out_dir: str) -> tuple[list[str], int]:
        """Check one sweep's reports; return (problems, cells with an error)."""
        try:
            csv_rows, json_rows = read_reports(out_dir)
            problems = []
            for kind, rows in (("report.csv", csv_rows), ("report.json", json_rows)):
                if len(rows) != self.cells:
                    problems.append(f"{kind} has {len(rows)} rows, expected {self.cells}")
            errors = sum(1 for r in json_rows if r["error"] is not None)
            counts = {r["config_id"]: confusion(r) for r in csv_rows}
            if counts != {r["config_id"]: confusion(r) for r in json_rows}:
                problems.append("report.csv and report.json disagree")
            for r in csv_rows:
                cell = counts[r["config_id"]]
                expected = (1 << int(r["hash_width"])) * self.completed[int(r["epoch_ns"])]
                if cell is not None and sum(cell) != expected:
                    problems.append(f"{r['config_id']}: tp+fp+fn+tn = {sum(cell)}, expected {expected}")
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"malformed report in {out_dir}: {exc!r}"], 0
        if self.reference is None:
            problems.append("no reference counts from the traced composition")
        elif counts != self.reference["confusion"]:
            problems.append("confusion counts differ from the traced composition")
        return problems, errors

    def sweep(self) -> Child:
        out_dir = self.path("sweep")
        shutil.rmtree(out_dir, ignore_errors=True)
        return run_child(
            [PY, "-m", "flowsketch.cli", "sweep", "--trace", self.trace_path,
             "--out-dir", out_dir, "--config", self.config_path],
            self.path("sweep.log"),
            self.deadline,
        )

    def account(self, child: Child) -> None:
        """Tally one sweep's cells: all fail if the process failed or an
        output check did, otherwise those whose row carries an error."""
        problems, errors = self.check_reports(self.path("sweep"))
        if child.rc != 0:
            problems.insert(0, f"sweep exited with {child.rc}; see {self.path('sweep.log')}")
        self.attempted += self.cells
        self.failed += self.cells if problems else errors
        self.problems.extend(problems)

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def span_s(spans: list[dict], name: str) -> float:
    return sum(s["end_ns"] - s["start_ns"] for s in spans if s["name"] == name) / 1e9


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per layer (the span name's prefix) not covered by child spans."""
    covered = [0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end_ns"] - s["start_ns"]
    out: dict[str, float] = {}
    for s, child_ns in zip(spans, covered):
        layer = s["name"].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + (s["end_ns"] - s["start_ns"] - child_ns) / 1e9
    return out


def per_layer_metrics(traced: dict, sweep_median_s: float) -> dict[str, float]:
    spans, c = traced["spans"], traced["counts"]
    m = {}
    m["ingest.read_s"] = span_s(spans, "ingest.read")
    m["ingest.read_rows_per_s"] = c["rows"] / m["ingest.read_s"]
    m["ingest.generate_s"] = span_s(spans, "ingest.generate")
    m["ingest.write_s"] = span_s(spans, "ingest.write")
    m["ingest.rows"] = c["rows"]
    m["hashing.distinct_keys"] = c["distinct_keys"]
    m["hashing.memo_load"] = c["memo_load"]
    m["hashing.fold_s"] = span_s(spans, "hashing.fold")
    m["sketch.update_s"] = span_s(spans, "sketch.update")
    m["sketch.update_pps"] = c["update_packets"] / m["sketch.update_s"]
    m["sketch.collect_s"] = span_s(spans, "sketch.collect")
    m["sketch.replay_ratio"] = m["sketch.collect_s"] / c["update_s_per_config"]
    m["sketch.epochs"] = c["epochs"]
    m["sketch.cells_copied"] = c["cells_copied"]
    m["sketch.cells_touched"] = c["cells_touched"]
    m["sketch.occupancy"] = c["cells_touched"] / c["cells_copied"]
    m["sketch.max_bucket_load"] = c["max_bucket_load"]
    m["oracle.track_s"] = span_s(spans, "oracle.track")
    m["oracle.flow_epochs"] = c["flow_epochs"]
    m["oracle.grid_s"] = span_s(spans, "oracle.grid")
    m["oracle.passes"] = c["configs"] / c["oracle_keys"]
    for kind in ("zscore", "ewma", "threshold"):
        m[f"detectors.{kind}_s"] = span_s(spans, f"detectors.{kind}")
    m["detectors.verdicts"] = c["verdicts"]
    m["detectors.flagged"] = c["flagged"]
    m["evaluation.score_s"] = span_s(spans, "evaluation.score")
    m["evaluation.pareto_s"] = span_s(spans, "evaluation.pareto")
    m["evaluation.write_s"] = span_s(spans, "evaluation.write")
    m["evaluation.cells"] = c["cells"]
    layers = self_times(spans)
    for layer in ("ingest", "hashing", "sketch", "oracle", "detectors", "evaluation"):
        m[f"{layer}.self_s"] = layers.get(layer, 0.0)
    traced_spans_s = span_s(spans, "evaluation.sweep") - span_s(spans, "trace.count")
    m["cli.unaccounted_s"] = sweep_median_s - traced_spans_s
    m["trace.overhead_s"] = traced["traced_total_s"] - sweep_median_s
    return m


def with_units(values: dict[str, float], units: dict[str, str]) -> dict:
    if set(values) != set(units):
        raise BenchError(
            f"metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json"
        )
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def measure(name: str, seed: int, seconds: int, traced: bool, tiny: bool = False) -> dict:
    """Run one workload; return the result object printed as the last line."""
    end_to_end, per_layer = declared_metrics()
    run = WorkloadRun(name, seed, tiny)
    run.setup()
    # The traced composition reads the same trace through the same
    # modules, so it is also the discarded warm-up run.
    run.trace_reference(probes=traced)
    setup_walls, walls, rss = [], [], []
    stop = time.monotonic() + seconds
    # Set-up and sweep alternate, so that both sample the same stretch
    # of host load.
    while len(walls) < MIN_SWEEPS or time.monotonic() < stop:
        if walls and time.monotonic() + 2 * (walls[-1] + setup_walls[-1]) > run.deadline:
            print(f"perfbench: stopped after {len(walls)} sweeps to end within "
                  f"{RUN_BUDGET_S} s", file=sys.stderr)
            break
        setup_walls.append(run.timed_setup())
        child = run.sweep()
        run.account(child)
        walls.append(child.wall_s)
        rss.append(child.rss_mib)

    samples = {
        "pipeline_pps": [run.packets / w for w in walls],
        "setup_s": setup_walls,
        "peak_rss_mb": rss,
    }
    print(f"{name} seed {seed}: {run.packets} packets, {run.cells} cells per sweep, "
          f"{len(walls)} timed sweeps")
    for metric, values in samples.items():
        q1, med, q3 = quartiles(values)
        print(f"  {metric:<13} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  n {len(values)}  "
              f"{end_to_end[metric]}")
    print(f"  failed_ratio  {run.failed_ratio:.6g}  ({run.failed} of {run.attempted} cells)")
    for problem in dict.fromkeys(run.problems):
        print(f"  check failed: {problem}", file=sys.stderr)

    if traced:
        if run.reference is None:
            raise BenchError("the traced composition produced no spans")
        metrics = per_layer_metrics(run.reference, statistics.median(walls))
        units = per_layer
    else:
        metrics = {key: statistics.median(values) for key, values in samples.items()}
        metrics["ok_ratio"] = 1.0 - run.failed_ratio
        units = end_to_end
    result = {
        "correct": not run.problems and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": with_units(metrics, units),
    }
    with open(run.path("result.json"), "w", encoding="utf-8") as fh:
        json.dump({"result": result, "samples": samples, "problems": run.problems,
                   "spans": run.reference["spans"] if run.reference else []}, fh, indent=1)
    return result


def corrupt_tn(out_dir: str) -> None:
    """Add one to the first row's tn in both report files."""
    csv_path = os.path.join(out_dir, "report.csv")
    with open(csv_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    fields = lines[1].split(",")
    tn = header.index("tn")
    fields[tn] = str(int(fields[tn]) + 1)
    lines[1] = ",".join(fields)
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    json_path = os.path.join(out_dir, "report.json")
    rows = load_json(json_path)
    match = next(r for r in rows if r["config_id"] == fields[0])
    match["tn"] += 1
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(rows, fh)


def self_test() -> int:
    end_to_end, per_layer = declared_metrics()
    ok = True
    for name in workload_names():
        for traced, units in ((False, end_to_end), (True, per_layer)):
            result = measure(name, seed=1, seconds=0, traced=traced, tiny=True)
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            good = emitted == units and result["correct"] and result["failed"] == 0
            ok &= good
            print(f"self-test {name} --trace {int(traced)}: {len(emitted)} metrics with units, "
                  f"correct={result['correct']}: {'ok' if good else 'FAILED'}")
    name = workload_names()[0]
    run = WorkloadRun(name, seed=1, tiny=True)
    run.setup()
    run.trace_reference(probes=False)
    child = run.sweep()
    corrupt_tn(run.path("sweep"))
    run.account(child)
    caught = run.failed == run.cells and run.failed_ratio == 1.0 and run.problems
    ok &= bool(caught)
    print(f"self-test corrupted tn: failed_ratio {run.failed_ratio} ({run.failed} of "
          f"{run.attempted} cells), caught by: {run.problems}: {'ok' if caught else 'FAILED'}")
    return 0 if ok else 1


def run_all(args: argparse.Namespace) -> int:
    worst = 0
    for name in benchmark_workloads():
        proc = subprocess.run(
            [PY, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT,
        )
        worst = max(worst, proc.returncode)
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="a workload in perfbench/workloads.json, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "flowsketch", "cli.py")):
        print(f"perfbench: no flowsketch source tree at {SRC}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workload_names():
        parser.error(f"--workload must be one of {workload_names() + ['all']}")
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
