"""Command-line behavior: flows, files, exit codes, flag precedence."""

import json
import os
import subprocess
import sys

import pytest

from flowsketch.cli import main
from flowsketch.detectors import Verdict, parse_verdicts
from flowsketch.evaluation import parse_report_csv
from flowsketch.hashing import KeySpec, extract_key, shift_xor_hash
from flowsketch.ingest import read_trace
from flowsketch.sketch import SNAPSHOT_HEADER, parse_snapshot, write_snapshot

from conftest import dense_verdicts

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


@pytest.mark.parametrize("fault", ["malformed", "regressing"])
@pytest.mark.parametrize(
    "command",
    [
        ("sweep", "--out-dir", "out", "--hash-widths", "4,5"),
        ("detect", "--out", "out", "--hash-width", "4"),
        # With a duplicate grid cell or a config over the cell budget as
        # well, the trace's error is still the one named.
        ("sweep", "--out-dir", "out", "--hash-widths", "4,4"),
        ("detect", "--out", "out", "--hash-width", "24", "--mem-stages", "5"),
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


def test_detect_rejects_a_negative_train_epochs(tmp_path, capsys):
    trace = gen_trace(tmp_path)
    capsys.readouterr()
    code = run("detect", "--trace", str(trace), "--out", str(tmp_path / "v.csv"),
               "--detector", "zscore", "--train-epochs", "-1")
    assert code == 2
    assert capsys.readouterr().err == "flowsketch: train_epochs=-1 must be nonnegative\n"


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
    assert all(r.measured_pps is None for r in rows)  # bench off
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


def test_sweep_bench_short_trace_exits_2_before_the_grid(tmp_path, capsys):
    trace = gen_trace(tmp_path, "--anomaly", "flood")
    out_dir = tmp_path / "sweep"
    assert run("sweep", "--trace", str(trace), "--out-dir", str(out_dir), "--bench") == 2
    assert "10000" in capsys.readouterr().err
    assert not out_dir.exists()


def test_sweep_bench_two_repetitions_exits_2_before_the_grid(tmp_path, capsys):
    trace = tmp_path / "big.csv"
    assert run("generate", "--out", str(trace), "--flows", "100",
               "--packets-per-flow", "100", "--seed", "1") == 0
    out_dir = tmp_path / "sweep"
    assert run("sweep", "--trace", str(trace), "--out-dir", str(out_dir),
               "--bench", "--bench-repetitions", "2") == 2
    assert "3 repetitions" in capsys.readouterr().err
    assert not out_dir.exists()


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
        # a misspelled section is not ignored
        ("extract", {"sketh": {"hash_width": 5}}, (), 2, "sketh"),
        # a flag reaches every entry of the detectors list
        ("sweep", {"sweep": {"detectors": [{"detector": "zscore"}]}}, ("--k", "100"), 0, "k=100.0"),
        # bool("no") is True; only true and false are accepted
        ("sweep", {"sweep": {"bench": "no"}}, (), 2, "bench"),
        # an unknown detector is a config error, not a failed cell
        ("sweep", {"sweep": {"detector": "bogus"}}, (), 2, "detector"),
    ],
    ids=["comma-text", "float-width", "unknown-section", "flag-over-list", "bench-no", "bad-kind"],
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
