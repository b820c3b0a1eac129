"""Command-line behavior: flows, files, exit codes, flag precedence."""

import json
import os
import random
import resource
import shutil
import subprocess
import sys

import pytest

from flowsketch import cli
from flowsketch.cli import main
from flowsketch.detectors import Verdict, parse_verdicts
from flowsketch.evaluation import parse_report_csv
from flowsketch.hashing import KeySpec, extract_key, shift_xor_hash
from flowsketch.ingest import read_trace, write_trace
from flowsketch.sketch import SNAPSHOT_HEADER, Sketch, SketchConfig, parse_snapshot, write_snapshot

from conftest import dense_verdicts, make_packet, per_packet_replay

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Runs argv[1:] and prints its exit code and peak RSS in KiB.
RSS_LAUNCHER = (
    "import os, subprocess, sys\n"
    "proc = subprocess.Popen(sys.argv[1:])\n"
    "_, status, usage = os.wait4(proc.pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, flush=True)\n"
)


def run(*argv):
    return main(list(argv))


def gen_trace(tmp_path, *extra, name="trace.csv"):
    path = tmp_path / name
    code = run(
        "generate", "--out", str(path),
        "--flows", "10", "--packets-per-flow", "60",
        "--duration-ns", "6000000000", "--seed", "21", *extra,
    )
    assert code == 0
    return path


def test_generate_writes_deterministic_trace(tmp_path, capsys):
    path = gen_trace(tmp_path, "--anomaly", "flood")
    out = capsys.readouterr().out
    assert "600" in out and "anomalous" in out
    records, meta = read_trace(path)
    assert meta.record_count == 600 + 300  # benign + 50 * 60 * 0.1 flood
    assert meta.anomalous_count == 300
    first = path.read_bytes()
    gen_trace(tmp_path, "--anomaly", "flood")
    assert path.read_bytes() == first


def test_generate_rejects_bad_window(tmp_path, capsys):
    code = run(
        "generate", "--out", str(tmp_path / "t.csv"),
        "--anomaly", "flood", "--window-start", "0.9", "--window-stop", "0.2",
    )
    assert code == 2
    assert "window" in capsys.readouterr().err


def test_generate_rejects_an_empty_anomaly_window(tmp_path, capsys):
    # [int(0.4 * 5), int(0.5 * 5)) holds no nanosecond, yet it must hold
    # round(50 * 3 * 0.1) = 15 flood packets.
    out = tmp_path / "t.csv"
    code = run(
        "generate", "--out", str(out), "--flows", "2", "--packets-per-flow", "3",
        "--duration-ns", "5", "--anomaly", "flood",
    )
    assert code == 2
    assert capsys.readouterr().err == "flowsketch: anomaly window [2, 2) ns is empty at duration_ns=5\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "multiplier, message",
    [
        ("inf", "anomaly rate_multiplier must be finite, got inf"),
        ("nan", "anomaly rate_multiplier must be finite, got nan"),
        ("1e300", f"anomaly packet count 1e+301 exceeds the budget of {1 << 24} packets"),
    ],
)
def test_generate_rejects_a_multiplier_it_cannot_draw(tmp_path, capsys, multiplier, message):
    out = tmp_path / "t.csv"
    code = run(
        "generate", "--out", str(out), "--flows", "0", "--anomaly", "flood",
        "--rate-multiplier", multiplier,
    )
    assert code == 2
    assert capsys.readouterr().err == f"flowsketch: {message}\n"
    assert not out.exists()


# Runs the command in argv[1:] through main() and prints which of the
# costly standard-library modules it imported, then its exit code and
# whether it imported evaluation or oracle, the reference that no
# command needs.
IMPORT_PROBE = (
    "import sys\n"
    "from flowsketch.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(sorted(m for m in ('dataclasses', 'inspect', 'statistics') if m in sys.modules))\n"
    "print(code, sorted(m for m in ('flowsketch.evaluation', 'flowsketch.oracle') if m in sys.modules))\n"
)


def probe_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def test_generate_and_extract_do_not_import_the_scoring_modules(tmp_path):
    env = probe_env()
    trace = tmp_path / "trace.csv"
    commands = [
        ["generate", "--out", str(trace), "--flows", "3", "--packets-per-flow", "20",
         "--anomaly", "flood", "--seed", "21"],
        ["extract", "--trace", str(trace), "--out-dir", str(tmp_path / "epochs")],
    ]
    for command in commands:
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, *command], capture_output=True, env=env, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []", (command[0], proc.stdout)


def test_commands_start_without_the_costly_stdlib_modules(tmp_path):
    # -S keeps site hooks, which may import anything, out of the count.
    # No command imports the oracle either.
    trace = str(tmp_path / "trace.csv")
    commands = [
        ["generate", "--out", trace, "--flows", "3", "--packets-per-flow", "20",
         "--anomaly", "flood", "--seed", "21"],
        ["extract", "--trace", trace, "--out-dir", str(tmp_path / "epochs"), "--mem-stages", "2"],
        ["detect", "--trace", trace, "--out", str(tmp_path / "verdicts.csv"), "--detector", "ewma"],
        ["sweep", "--trace", trace, "--out-dir", str(tmp_path / "sweep"), "--hash-widths", "4,6"],
        ["pareto", "--report", str(tmp_path / "sweep" / "report.csv")],
    ]
    for command in commands:
        proc = subprocess.run(
            [sys.executable, "-S", "-c", IMPORT_PROBE, *command], capture_output=True, env=probe_env(),
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        heavy, status = proc.stdout.splitlines()[-2:]
        assert status.startswith("0 "), (command[0], proc.stdout)
        assert "flowsketch.oracle" not in status, (command[0], status)
        assert heavy == "[]", (command[0], heavy)


@pytest.mark.parametrize(
    "options, message",
    [
        (["--flows", "0", "--anomaly", "flood", "--packets-per-flow", "1" + "0" * 400],
         f"packets_per_flow 1{'0' * 400} exceeds the budget of {1 << 24} packets"),
        (["--flows", "0", "--anomaly", "flood", "--rate-multiplier", "92233720368547758"],
         f"anomaly packet count 9.22337e+17 exceeds the budget of {1 << 24} packets"),
        (["--flows", "4097", "--packets-per-flow", "4096"],
         f"trace of {4097 * 4096} packets exceeds the budget of {1 << 24} packets"),
        (["--flows", "4096", "--packets-per-flow", "4096", "--anomaly", "flood", "--rate-multiplier", "0.01"],
         f"trace of {4096 * 4096 + 4} packets exceeds the budget of {1 << 24} packets"),
        # The window bounds are fractions of duration_ns in float
        # arithmetic, so a duration beyond float range is refused too.
        (["--flows", "0", "--anomaly", "flood", "--duration-ns", "1" + "0" * 400],
         "duration_ns is too large for the anomaly window's float bounds"),
    ],
    ids=["per-flow", "anomaly", "benign", "benign-and-anomaly", "window-bounds"],
)
def test_generate_refuses_a_trace_over_the_budget(tmp_path, capsys, options, message):
    # The budget is checked before any draw, so none of these is drawn.
    out = tmp_path / "t.csv"
    assert run("generate", "--out", str(out), *options) == 2
    assert capsys.readouterr().err == f"flowsketch: {message}\n"
    assert not out.exists()


# Edge values for every numeric option: 0, 1, -1, 2**63, a 400-digit
# integer, inf, nan and 1e300.  argparse rejects the float texts for an
# int option, and an int text is a valid float.
EDGE_VALUES = ("0", "1", "-1", str(2**63), "9" * 400, "inf", "nan", "1e300")
GENERATE_NUMERIC_OPTIONS = (
    "--flows", "--packets-per-flow", "--duration-ns", "--start-ts-ns",
    "--rate-multiplier", "--window-start", "--window-stop", "--seed",
)
EDGE_CHILD_BYTES = 1 << 30


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (EDGE_CHILD_BYTES, EDGE_CHILD_BYTES))


@pytest.mark.parametrize("option", GENERATE_NUMERIC_OPTIONS)
def test_generate_edge_values_exit_cleanly(tmp_path, option):
    # Each value runs in its own child, one at a time, with a bounded
    # address space and a timeout: it ends in exit 0, 1 (argparse
    # rejects the text) or 2, never in a traceback, and a failed run
    # leaves no file.
    out = tmp_path / "t.csv"
    for value in EDGE_VALUES:
        proc = subprocess.run(
            [sys.executable, "-m", "flowsketch.cli", "generate", "--out", str(out),
             "--anomaly", "flood", f"{option}={value}"],
            capture_output=True, env=probe_env(), text=True, timeout=60,
            preexec_fn=_limit_address_space,
        )
        assert proc.returncode in (0, 1, 2), (value, proc.returncode, proc.stderr)
        assert "Traceback" not in proc.stderr, (value, proc.stderr)
        if proc.returncode:
            assert not out.exists(), value
        out.unlink(missing_ok=True)


# The numeric options of the commands that read a trace, each with its
# edge values: 0, 1, -1 and 2**63, and for a float option also inf, nan
# and 1e300.  A detector option runs with the detector that reads it.
INT_EDGES = ("0", "1", "-1", str(2**63))
FLOAT_EDGES = INT_EDGES + ("inf", "nan", "1e300")
DETECTOR_EDGE_OPTIONS = {
    "--threshold": (FLOAT_EDGES, "threshold"),
    "--k": (FLOAT_EDGES, "zscore"),
    "--alpha": (FLOAT_EDGES, "ewma"),
    "--train-epochs": (INT_EDGES, "zscore"),
}
TRACE_COMMAND_EDGE_CASES = [
    ("extract", "--hash-width"), ("extract", "--mem-stages"), ("extract", "--epoch-ns"),
    ("detect", "--hash-width"), ("detect", "--mem-stages"), ("detect", "--epoch-ns"),
    *(("detect", option) for option in DETECTOR_EDGE_OPTIONS),
    ("sweep", "--hash-widths"), ("sweep", "--mem-stages"), ("sweep", "--epoch-ns"),
    *(("sweep", option) for option in DETECTOR_EDGE_OPTIONS),
]
# 1-ns epochs over the tiny trace's 2.4-s span are billions of empty
# epochs, one snapshot each: memory and time that grow with the span
# over epoch_ns, not with the traffic, are a known open limit.
EXCLUDED_EDGE_VALUES = {"--epoch-ns": {"1"}}


@pytest.mark.parametrize(
    "command, option", TRACE_COMMAND_EDGE_CASES, ids=[f"{c}{o}" for c, o in TRACE_COMMAND_EDGE_CASES]
)
def test_trace_command_edge_values_exit_cleanly(tmp_path, command, option):
    # Each value runs in its own child, one at a time, with a bounded
    # address space and a timeout: it ends in exit 0, 1 (argparse
    # rejects the text), 2 or 3 (a sweep with failed cells), never in a
    # traceback, and exits 1 and 2 write nothing.
    trace = tmp_path / "tiny.csv"
    assert run("generate", "--out", str(trace), "--flows", "2", "--packets-per-flow", "5",
               "--duration-ns", "3000000000", "--anomaly", "flood", "--seed", "1") == 0
    out = tmp_path / "out"
    values, detector = DETECTOR_EDGE_OPTIONS.get(option, (INT_EDGES, None))
    extra = ["--detector", detector] if detector else []
    out_flag = "--out" if command == "detect" else "--out-dir"
    for value in values:
        if value in EXCLUDED_EDGE_VALUES.get(option, ()):
            continue
        proc = subprocess.run(
            [sys.executable, "-m", "flowsketch.cli", command, "--trace", str(trace), out_flag, str(out),
             *extra, f"{option}={value}"],
            capture_output=True, env=probe_env(), text=True, timeout=60,
            preexec_fn=_limit_address_space,
        )
        assert proc.returncode in (0, 1, 2, 3), (value, proc.returncode, proc.stderr)
        assert "Traceback" not in proc.stderr, (value, proc.stderr)
        if proc.returncode in (1, 2):
            assert proc.stdout == "" and not out.exists(), value
        if out.is_dir():
            shutil.rmtree(out)
        out.unlink(missing_ok=True)


def test_usage_errors_exit_1(capsys):
    assert run("generate", "--no-such-flag") == 1
    assert run("frobnicate") == 1
    assert run("extract", "--trace", "x.csv") == 1  # missing --out-dir
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert run("--help") == 0
    assert "generate" in capsys.readouterr().out


def test_extract_writes_epoch_snapshots(tmp_path, capsys):
    trace = gen_trace(tmp_path)
    out_dir = tmp_path / "snaps"
    assert run("extract", "--trace", str(trace), "--out-dir", str(out_dir),
               "--hash-width", "4", "--epoch-ns", "1000000000") == 0
    files = sorted(p.name for p in out_dir.iterdir())
    assert files[0] == "epoch_0000.csv"
    assert files[-1].endswith("_partial.csv")
    assert all(f.startswith("epoch_") for f in files)
    with open(out_dir / files[0], newline="") as fh:
        rows = parse_snapshot(fh)
    # one stage of 2**4 buckets, of which only the touched ones have rows
    records, _ = read_trace(str(trace))
    t0 = records[0].timestamp_ns
    first = [r for r in records if r.timestamp_ns - t0 < 1_000_000_000]
    touched = {shift_xor_hash(extract_key(r, KeySpec(("src_ip",))), 4) for r in first}
    assert [bucket for _, bucket, _ in rows] == sorted(touched)
    assert len(rows) <= 16
    assert all(stage == 0 for stage, _, _ in rows)
    assert sum(cell.pkt_count for _, _, cell in rows) == len(first) > 0


def write_gap_trace(path, gap_ns):
    """Two packets of one flow, gap_ns apart."""
    path.write_text(
        "timestamp_ns,src_ip,dst_ip,src_port,dst_port,protocol,length_bytes,tcp_seq,label\n"
        "0,10.0.0.1,10.0.0.2,1234,80,6,60,0,benign\n"
        f"{gap_ns},10.0.0.1,10.0.0.2,1234,80,6,60,0,benign\n"
    )
    return path


def test_extract_round_trips_byte_identically(tmp_path):
    trace = gen_trace(tmp_path)
    out_dir = tmp_path / "snaps"
    assert run("extract", "--trace", str(trace), "--out-dir", str(out_dir),
               "--hash-width", "16", "--mem-stages", "3", "--epoch-ns", "1000000000") == 0
    for path in sorted(out_dir.iterdir()):
        with open(path, newline="") as fh:
            rows = parse_snapshot(fh)
        assert 0 < len(rows) <= 30  # 10 flows in at most 3 stages, not 3 * 2**16
        again = tmp_path / "again.csv"
        write_snapshot(again, rows)
        assert again.read_bytes() == path.read_bytes()


def test_extract_empty_epoch_writes_header_only(tmp_path):
    # Epochs 1 and 2 see no packet.  With two stages, epoch 1's file
    # still holds epoch 0 in stage 1; epoch 2's holds nothing.
    trace = write_gap_trace(tmp_path / "gap.csv", 3_500)
    out_dir = tmp_path / "snaps"
    assert run("extract", "--trace", str(trace), "--out-dir", str(out_dir),
               "--hash-width", "8", "--mem-stages", "2", "--epoch-ns", "1000") == 0
    files = sorted(p.name for p in out_dir.iterdir())
    assert files == ["epoch_0000.csv", "epoch_0001.csv", "epoch_0002.csv", "epoch_0003_partial.csv"]
    with open(out_dir / "epoch_0001.csv", newline="") as fh:
        assert [(stage, cell.pkt_count) for stage, _, cell in parse_snapshot(fh)] == [(1, 1)]
    assert (out_dir / "epoch_0002.csv").read_text() == SNAPSHOT_HEADER + "\n"


def reference_extract(records, config, out_dir):
    """The snapshot files of a sketch driven by the reference replay: at
    each epoch's close, every stage of the live sketch, the partial
    epoch last."""
    os.makedirs(out_dir)

    def visit(sketch, index, complete):
        suffix = "" if complete else "_partial"
        rows = [(s, b, c) for s in range(config.mem_stages) for b, c in sketch.stage(s).items()]
        write_snapshot(os.path.join(out_dir, f"epoch_{index:04d}{suffix}.csv"), rows)

    per_packet_replay(Sketch(config), records, visit)


def bursts_and_gaps(rng, stages, epoch_ns):
    """Bursts of random packets from a small pool, each burst followed
    by a gap longer than stages epochs."""
    records, ts = [], 0
    for _ in range(rng.randrange(2, 6)):
        for _ in range(rng.randrange(1, 30)):
            records.append(make_packet(
                ts=ts, src=rng.randrange(1, 9), dport=rng.choice((53, 80, 443)),
                length=rng.choice((60, 576, 1500)),
            ))
            ts += rng.randrange(epoch_ns // 3)
        ts += rng.randrange((stages + 1) * epoch_ns, (stages + 4) * epoch_ns)
    return records


@pytest.mark.parametrize("stages", [1, 2, 3])
@pytest.mark.parametrize("width", [1, 4])
def test_extract_writes_the_live_sketch_stages(tmp_path, capsys, stages, width):
    # extract derives stage s of epoch e from epoch e - s's stage-0
    # snapshot; a sketch driven by hand holds its stages themselves.
    epoch_ns = 1000
    for seed in range(8):
        rng = random.Random(100 * stages + 10 * width + seed)
        records = bursts_and_gaps(rng, stages, epoch_ns)
        key = rng.choice(("src_ip", "src_ip+dst_port"))
        config = SketchConfig(width, stages, epoch_ns, KeySpec.parse(key))
        trace, want, got = tmp_path / f"t{seed}.csv", tmp_path / f"want{seed}", tmp_path / f"got{seed}"
        write_trace(trace, records)
        reference_extract(records, config, want)
        assert run(
            "extract", "--trace", str(trace), "--out-dir", str(got), "--hash-width", str(width),
            "--mem-stages", str(stages), "--epoch-ns", str(epoch_ns), "--key-spec", key,
        ) == 0
        names = sorted(os.listdir(want))
        assert names[-1].endswith("_partial.csv")
        assert capsys.readouterr().out == f"wrote {len(names)} epoch snapshots to {got}\n"
        assert sorted(os.listdir(got)) == names
        for name in names:
            assert (got / name).read_bytes() == (want / name).read_bytes(), (seed, name)


def detect_across_gap(tmp_path, gap_ns):
    """Run detect at W=8 on two packets gap_ns apart, in 1-us epochs.
    Returns its summary line, its output file and its peak RSS in KiB."""
    trace = write_gap_trace(tmp_path / "gap.csv", gap_ns)
    out = tmp_path / "verdicts.csv"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    # A process started from this (large) test process inherits its
    # peak RSS on Linux, so a small launcher starts the command and
    # reports the command's own peak.
    proc = subprocess.run(
        [sys.executable, "-c", RSS_LAUNCHER, sys.executable, "-m", "flowsketch.cli", "detect",
         "--trace", str(trace), "--out", str(out), "--hash-width", "8", "--epoch-ns", "1000"],
        capture_output=True, env=env, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    *output, last = proc.stdout.splitlines()
    returncode, maxrss_kib = map(int, last.split())
    assert returncode == 0, proc.stderr
    return output[0], out, maxrss_kib


def check_gap_verdicts(path, epochs):
    """Check the verdict file of detect_across_gap line by line: bucket
    11 (10.0.0.1 folded to 8 bits) scores |1 - 0.5| / 0.5 in epoch 0 and
    |0 - 0.5| / 0.5 after, against its two training epochs; every other
    bucket shares a score of 0.  Only the first differing lines are
    reported, since a diff of the whole file takes minutes."""
    text = path.read_text()
    expected = ["detector_id,epoch_index,bucket,score,anomalous"]
    for epoch in range(epochs):
        expected += [f"zscore,{epoch},11,1.0,false", f"zscore,{epoch},,0.0,false"]
    assert text.endswith("\n")
    lines = text[:-1].split("\n")
    assert [(n, got, want) for n, (got, want) in enumerate(zip(lines, expected), 1) if got != want][:3] == []
    assert len(lines) == len(expected)


def test_detect_across_a_long_gap_stays_small(tmp_path):
    # Two packets 3 ms apart make 3000 completed 1-us epochs of 2**8
    # buckets.  Only the one touched bucket is stored per epoch, and the
    # file holds what is stored, so the process and the file stay small.
    summary, out, maxrss_kib = detect_across_gap(tmp_path, 3_000_000)
    assert "768000 verdicts (0 anomalous) over 3000 completed epochs" in summary
    check_gap_verdicts(out, 3000)
    assert maxrss_kib < 64 * 1024
    # Expanded epoch by epoch, the file is the dense one.
    with open(out, newline="") as fh:
        rows = parse_verdicts(fh)
    for epoch in range(3000):
        assert dense_verdicts(rows[2 * epoch : 2 * epoch + 2], 256) == [
            Verdict("zscore", epoch, bucket, 1.0 if bucket == 11 else 0.0, False)
            for bucket in range(256)
        ]


def test_detect_across_a_thirty_ms_gap_writes_a_small_file(tmp_path):
    # 30000 epochs of 256 buckets: one explicit and one shared row per
    # epoch, where one row per bucket took 7.68M rows and 201 MB.  The
    # summary still counts every (bucket, epoch).
    summary, out, maxrss_kib = detect_across_gap(tmp_path, 30_000_000)
    assert summary == (
        f"zscore: 7680000 verdicts (0 anomalous) over 30000 completed epochs, written to {out}"
    )
    assert out.read_text().count("\n") == 60_001
    check_gap_verdicts(out, 30000)
    assert out.stat().st_size < 2_000_000
    assert maxrss_kib < 64 * 1024


def test_detect_writes_verdicts(tmp_path):
    trace = gen_trace(tmp_path, "--anomaly", "flood")
    out = tmp_path / "verdicts.csv"
    assert run(
        "detect", "--trace", str(trace), "--out", str(out),
        "--hash-width", "4", "--detector", "zscore", "--k", "3", "--train-epochs", "2",
    ) == 0
    with open(out, newline="") as fh:
        verdicts = parse_verdicts(fh)
    epochs = {v.epoch_index for v in verdicts}
    assert len(dense_verdicts(verdicts, 16)) == 16 * len(epochs)
    assert all(v.detector_id == "zscore" for v in verdicts)


@pytest.mark.parametrize(
    "detector",
    [
        ("--detector", "zscore", "--k", "1", "--train-epochs", "2"),
        ("--detector", "ewma", "--k", "1", "--alpha", "0.5"),
        ("--detector", "threshold", "--threshold", "5"),
        # Every bucket scores at least 0 > -1, so the shared verdict of
        # the untouched buckets is anomalous.
        ("--detector", "threshold", "--threshold=-1"),
    ],
)
def test_detect_prints_the_anomalous_count_it_writes(tmp_path, capsys, detector):
    trace = gen_trace(tmp_path, "--anomaly", "flood")
    out = tmp_path / "verdicts.csv"
    assert run("detect", "--trace", str(trace), "--out", str(out), "--hash-width", "6", *detector) == 0
    printed = capsys.readouterr().out
    with open(out, newline="") as fh:
        verdicts = dense_verdicts(parse_verdicts(fh), 64)
    flagged = sum(v.anomalous for v in verdicts)
    assert 0 < flagged
    assert f"{len(verdicts)} verdicts ({flagged} anomalous)" in printed


def test_detect_missing_trace_exits_2(tmp_path, capsys):
    code = run("detect", "--trace", str(tmp_path / "missing.csv"),
               "--out", str(tmp_path / "v.csv"))
    assert code == 2
    capsys.readouterr()


def test_malformed_trace_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    trace = gen_trace(tmp_path)
    lines = trace.read_text().splitlines()
    lines[3] = lines[3].replace(",benign", ",sideways")
    bad.write_text("\n".join(lines) + "\n")
    code = run("extract", "--trace", str(bad), "--out-dir", str(tmp_path / "s"))
    assert code == 2
    assert "line 4" in capsys.readouterr().err


@pytest.mark.parametrize("fault", ["malformed", "regressing", "blank"])
@pytest.mark.parametrize(
    "command",
    [
        ("sweep", "--out-dir", "out", "--hash-widths", "4,5"),
        ("detect", "--out", "out", "--hash-width", "4"),
        # With a duplicate grid cell or a config over the cell budget as
        # well, the trace's error is still the one named.
        ("sweep", "--out-dir", "out", "--hash-widths", "4,4"),
        ("detect", "--out", "out", "--hash-width", "24", "--mem-stages", "5"),
        ("extract", "--out-dir", "out", "--hash-width", "4"),
        ("extract", "--out-dir", "out", "--hash-width", "24", "--mem-stages", "5"),
        # A refused detector setting is found before the replay.
        ("detect", "--out", "out", "--detector", "threshold", "--threshold", "nan"),
    ],
)
def test_bad_last_row_aborts_without_output(tmp_path, capsys, command, fault):
    # The bad row comes after several parse chunks of good ones, so a
    # command that reads the trace as it runs has already used them.
    trace = gen_trace(tmp_path, "--anomaly", "flood", "--packets-per-flow", "250")
    lines = trace.read_text().splitlines()
    last = len(lines)
    assert last > 2 * 1024
    capsys.readouterr()
    if fault == "malformed":
        lines[-1] = lines[-1].rsplit(",", 1)[0] + ",sideways"
        message = f"line {last}: bad label 'sideways'"
    elif fault == "blank":
        # A blank line is a row of one field, not skipped.
        lines.append("")
        message = f"line {last + 1}: expected 9 fields, got 1"
    else:
        previous = lines[-2].split(",", 1)[0]
        lines[-1] = "0," + lines[-1].split(",", 1)[1]
        message = f"line {last}: timestamp regression: 0 after {previous}"
    trace.write_text("\n".join(lines) + "\n")
    name, out_flag, out, *grid = command
    assert run(name, "--trace", str(trace), out_flag, str(tmp_path / out), *grid) == 2
    captured = capsys.readouterr()
    assert captured.err == f"flowsketch: {message}\n"
    assert captured.out == ""
    assert not (tmp_path / out).exists()


@pytest.fixture
def no_replay(monkeypatch):
    """Make detect fail if it replays the trace: a setting refused for
    its own values is refused before the replay."""

    def replay(sketch):
        raise AssertionError("the trace was replayed")

    monkeypatch.setattr(cli, "EpochCollector", replay)


def test_detect_rejects_a_negative_train_epochs(tmp_path, capsys, no_replay):
    trace = gen_trace(tmp_path)
    capsys.readouterr()
    code = run("detect", "--trace", str(trace), "--out", str(tmp_path / "v.csv"),
               "--detector", "zscore", "--train-epochs", "-1")
    assert code == 2
    assert capsys.readouterr().err == "flowsketch: train_epochs=-1 must be nonnegative\n"


@pytest.mark.parametrize("train", ["0", "1"])
def test_detect_refuses_a_short_training_prefix_before_the_replay(tmp_path, capsys, no_replay, train):
    trace = gen_trace(tmp_path)
    capsys.readouterr()
    code = run("detect", "--trace", str(trace), "--out", str(tmp_path / "v.csv"),
               "--detector", "zscore", "--train-epochs", train)
    assert code == 2
    assert capsys.readouterr().err == f"flowsketch: baseline needs at least 2 training epochs, got {train}\n"
    assert not (tmp_path / "v.csv").exists()


@pytest.mark.parametrize(
    "options, message",
    [
        (["--detector", "threshold", "--threshold", "nan"], "threshold detector threshold must be a number, got nan"),
        (["--detector", "zscore", "--k", "nan"], "zscore detector k must be a number, got nan"),
        (["--detector", "ewma", "--k", "nan"], "ewma detector k must be a number, got nan"),
    ],
    ids=["threshold", "zscore-k", "ewma-k"],
)
def test_detect_refuses_a_nan_limit(tmp_path, capsys, no_replay, options, message):
    trace = gen_trace(tmp_path)
    capsys.readouterr()
    out = tmp_path / "v.csv"
    assert run("detect", "--trace", str(trace), "--out", str(out), *options) == 2
    assert capsys.readouterr().err == f"flowsketch: {message}\n"
    assert not out.exists()


def test_sweep_puts_a_nan_limit_on_its_rows(tmp_path, capsys):
    trace = gen_trace(tmp_path, "--anomaly", "flood")
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({
        "sweep": {
            "hash_widths": [4, 5],
            "detectors": [
                {"detector": "threshold", "threshold": 20.0},
                {"detector": "threshold", "threshold": "nan"},
                {"detector": "ewma", "k": "nan"},
            ],
        }
    }))
    out_dir = tmp_path / "sweep"
    assert run("sweep", "--trace", str(trace), "--out-dir", str(out_dir), "--config", str(config)) == 3
    capsys.readouterr()
    payload = json.loads((out_dir / "report.json").read_text())
    errors = {(entry["hash_width"], entry["detector_params"]): entry["error"] for entry in payload}
    assert errors == {
        (w, params): error
        for w in (4, 5)
        for params, error in (
            ("feature=pkt_count;threshold=20.0", None),
            ("feature=pkt_count;threshold=nan", "threshold detector threshold must be a number, got nan"),
            ("feature=pkt_count;k=nan;alpha=0.3", "ewma detector k must be a number, got nan"),
        )
    }


def test_sweep_writes_reports(tmp_path, capsys):
    trace = gen_trace(tmp_path, "--anomaly", "flood")
    out_dir = tmp_path / "sweep"
    code = run(
        "sweep", "--trace", str(trace), "--out-dir", str(out_dir),
        "--hash-widths", "4,5", "--mem-stages", "1",
        "--detector", "zscore", "--k", "3", "--train-epochs", "2",
    )
    assert code == 0
    with open(out_dir / "report.csv", newline="") as fh:
        rows = parse_report_csv(fh)
    assert len(rows) == 2
    assert {r.hash_width for r in rows} == {4, 5}
    assert any(r.on_front for r in rows)
    payload = json.loads((out_dir / "report.json").read_text())
    assert len(payload) == 2
    assert "front" in capsys.readouterr().out.lower()


def test_sweep_partial_failure_exits_3(tmp_path, capsys):
    trace = gen_trace(tmp_path, "--anomaly", "flood")
    out_dir = tmp_path / "sweep"
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({
        "sweep": {
            "hash_widths": [4],
            "detectors": [
                {"detector": "zscore", "k": 3.0, "train_epochs": 2},
                {"detector": "zscore", "k": 3.0, "train_epochs": 99},
            ],
        }
    }))
    code = run("sweep", "--trace", str(trace), "--out-dir", str(out_dir),
               "--config", str(config))
    assert code == 3
    err = capsys.readouterr().err
    assert "train_epochs" in err
    payload = json.loads((out_dir / "report.json").read_text())
    errors = [e["error"] for e in payload]
    assert sum(1 for e in errors if e) == 1


def test_flag_precedence_cli_over_config(tmp_path):
    trace = gen_trace(tmp_path, "--anomaly", "flood")
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({
        "sweep": {"hash_widths": [4], "k": 3.0, "train_epochs": 2}
    }))
    out_a = tmp_path / "a"
    assert run("sweep", "--trace", str(trace), "--out-dir", str(out_a),
               "--config", str(config)) == 0
    with open(out_a / "report.csv", newline="") as fh:
        assert {r.hash_width for r in parse_report_csv(fh)} == {4}
    out_b = tmp_path / "b"
    assert run("sweep", "--trace", str(trace), "--out-dir", str(out_b),
               "--config", str(config), "--hash-widths", "5") == 0
    with open(out_b / "report.csv", newline="") as fh:
        assert {r.hash_width for r in parse_report_csv(fh)} == {5}


def test_config_unknown_key_exits_2(tmp_path, capsys):
    trace = gen_trace(tmp_path)
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"sketch": {"hash_wdith": 4}}))
    code = run("extract", "--trace", str(trace), "--out-dir", str(tmp_path / "s"),
               "--config", str(config))
    assert code == 2
    assert "hash_wdith" in capsys.readouterr().err


def test_config_invalid_json_exits_2(tmp_path, capsys):
    trace = gen_trace(tmp_path)
    config = tmp_path / "conf.json"
    config.write_text("{not json")
    code = run("extract", "--trace", str(trace), "--out-dir", str(tmp_path / "s"),
               "--config", str(config))
    assert code == 2
    capsys.readouterr()


def test_pareto_command_prints_front(tmp_path, capsys):
    trace = gen_trace(tmp_path, "--anomaly", "flood")
    out_dir = tmp_path / "sweep"
    assert run("sweep", "--trace", str(trace), "--out-dir", str(out_dir),
               "--hash-widths", "4,5", "--detector", "zscore", "--k", "3",
               "--train-epochs", "2") == 0
    capsys.readouterr()
    assert run("pareto", "--report", str(out_dir / "report.csv")) == 0
    out = capsys.readouterr().out
    assert "on the front" in out


def test_pareto_on_corrupt_report_exits_2_naming_line(tmp_path, capsys):
    trace = gen_trace(tmp_path, "--anomaly", "flood")
    out_dir = tmp_path / "sweep"
    assert run("sweep", "--trace", str(trace), "--out-dir", str(out_dir),
               "--hash-widths", "4,5", "--detector", "threshold", "--threshold", "9") == 0
    capsys.readouterr()
    report = out_dir / "report.csv"
    lines = report.read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0] + ",maybe"
    report.write_text("\n".join(lines) + "\n")
    assert run("pareto", "--report", str(report)) == 2
    assert "line 3" in capsys.readouterr().err


def test_pareto_on_a_report_with_a_blank_line_exits_2_naming_it(tmp_path, capsys):
    trace = gen_trace(tmp_path, "--anomaly", "flood")
    out_dir = tmp_path / "sweep"
    assert run("sweep", "--trace", str(trace), "--out-dir", str(out_dir), "--hash-widths", "4,5") == 0
    report = out_dir / "report.csv"
    lines = report.read_text().splitlines()
    lines.insert(2, "")
    report.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run("pareto", "--report", str(report)) == 2
    captured = capsys.readouterr()
    assert captured.err == "flowsketch: line 3: expected 17 fields, got 1\n"
    assert captured.out == ""


def test_bench_command(tmp_path, capsys):
    path = tmp_path / "big.csv"
    assert run("generate", "--out", str(path), "--flows", "100",
               "--packets-per-flow", "120", "--seed", "1") == 0
    capsys.readouterr()
    assert run("bench", "--trace", str(path), "--hash-width", "4") == 0
    out = capsys.readouterr().out
    assert "packets/s" in out
    assert "GB/s" in out


def test_bench_short_trace_exits_2(tmp_path, capsys):
    trace = gen_trace(tmp_path)
    assert run("bench", "--trace", str(trace)) == 2
    assert "10000" in capsys.readouterr().err


def test_sweep_has_no_bench_option(tmp_path, capsys):
    # Throughput is measured by the bench command alone.
    trace = gen_trace(tmp_path, "--anomaly", "flood")
    out_dir = tmp_path / "sweep"
    assert run("sweep", "--trace", str(trace), "--out-dir", str(out_dir), "--bench") == 1
    assert "unrecognized arguments: --bench" in capsys.readouterr().err
    assert not out_dir.exists()


def test_sweep_twice_writes_identical_reports(tmp_path, capsys):
    # The report and the front depend only on the trace and the grid.
    trace = gen_trace(tmp_path, "--anomaly", "flood")
    capsys.readouterr()
    outputs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        assert run("sweep", "--trace", str(trace), "--out-dir", str(out_dir),
                   "--hash-widths", "4,5", "--mem-stages", "1,2",
                   "--detector", "zscore", "--k", "3", "--train-epochs", "2") == 0
        stdout = capsys.readouterr().out.replace(str(out_dir), "OUT")
        outputs.append((
            (out_dir / "report.csv").read_bytes(), (out_dir / "report.json").read_bytes(), stdout,
        ))
    assert outputs[0] == outputs[1]
    assert "W4-S1" in outputs[0][2]


def run_with_config(tmp_path, command, doc, *extra):
    """Run a trace-reading command with doc as its --config; return the
    exit code and the path it wrote."""
    trace = gen_trace(tmp_path, "--anomaly", "flood")
    config = tmp_path / "conf.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    dest = "--out" if command == "detect" else "--out-dir"
    code = run(command, "--trace", str(trace), dest, str(out), "--config", str(config), *extra)
    return code, out


@pytest.mark.parametrize(
    "command, doc, extra, code, needle",
    [
        # comma text is parsed like the flag's own text
        ("sweep", {"sweep": {"hash_widths": "4,5"}}, (), 0, "W5-S1"),
        # a float for an integer option is not truncated
        ("detect", {"sketch": {"hash_width": 4.7}}, (), 2, "hash_width"),
        # nor is true taken for 1
        ("detect", {"sketch": {"hash_width": True}}, (), 2, "hash_width"),
        # a misspelled section is not ignored
        ("extract", {"sketh": {"hash_width": 5}}, (), 2, "sketh"),
        # a flag reaches every entry of the detectors list
        ("sweep", {"sweep": {"detectors": [{"detector": "zscore"}]}}, ("--k", "100"), 0, "k=100.0"),
        # sweep has no bench option, so its key is unknown
        ("sweep", {"sweep": {"bench": True}}, (), 2, "bench"),
        # an unknown detector is a config error, not a failed cell
        ("sweep", {"sweep": {"detector": "bogus"}}, (), 2, "detector"),
    ],
    ids=["comma-text", "float-width", "true-width", "unknown-section", "flag-over-list", "bench-unknown", "bad-kind"],
)
def test_config_values_pass_the_flags_checks(tmp_path, capsys, command, doc, extra, code, needle):
    assert run_with_config(tmp_path, command, doc, *extra)[0] == code
    if code == 0:
        assert needle in (tmp_path / "out" / "report.csv").read_text()
    else:
        assert repr(needle) in capsys.readouterr().err


def sweep_params(tmp_path, doc, *extra):
    code, out = run_with_config(tmp_path, "sweep", doc, *extra)
    assert code == 0
    with open(out / "report.csv", newline="") as fh:
        return {r.detector_id: r.detector_params for r in parse_report_csv(fh)}


def test_detectors_list_precedence(tmp_path):
    doc = {"sweep": {
        "hash_widths": [4], "k": 2.0, "train_epochs": 2,
        "detectors": [{"detector": "zscore"}, {"detector": "ewma", "k": 4.0}],
    }}
    assert sweep_params(tmp_path, doc) == {
        "zscore": "feature=pkt_count;k=2.0;train_epochs=2",
        "ewma": "feature=pkt_count;k=4.0;alpha=0.3",
    }
    assert sweep_params(tmp_path, doc, "--k", "5") == {
        "zscore": "feature=pkt_count;k=5.0;train_epochs=2",
        "ewma": "feature=pkt_count;k=5.0;alpha=0.3",
    }


def test_detector_flag_replaces_detectors_list(tmp_path):
    doc = {"sweep": {
        "hash_widths": [4],
        "detectors": [{"detector": "zscore"}, {"detector": "ewma"}],
    }}
    params = sweep_params(tmp_path, doc, "--detector", "threshold", "--threshold", "9")
    assert params == {"threshold": "feature=pkt_count;threshold=9.0"}
