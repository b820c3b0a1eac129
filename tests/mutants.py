"""Mutation checks: each mutant is a small deliberate fault in src, and
the tests it lists must catch it.

Run from anywhere, with pytest and hypothesis installed:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

For each mutant the runner copies src and tests into a temporary
directory, replaces one exact text in one file of the copy, and runs
the mutant's tests there in one pytest subprocess, one mutant at a time.
A mutant is killed when its tests fail.  The runner exits 1 if a mutant
survives, if its text does not occur exactly once (so a change that
rewrites mutated code must update this list), or if the no-op mutant,
its self-test, or an equivalent mutant, one that changes no behaviour
its tests can see, is killed.  Hypothesis runs with a fixed seed, so a run
is repeatable.

This file is not named test_*.py, so pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/flowsketch
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root
    origin: str  # the CHANGES.md entry that introduced it


EPOCH_CLOCK = ("tests/test_epoch_clock.py::test_collect_epochs_matches_per_packet_replay",)
SWEEP_CLOCK = (
    "tests/test_evaluation.py::test_sweep_opens_an_epoch_at_a_packet_on_its_boundary",
    "tests/test_sweep_reference.py::test_sweep_matches_per_config_reference",
)
ONE_POLICY = "CHANGES.md: the sketch snapshots the epochs it closes"
ONE_FAILURE = "CHANGES.md: the sweep has one failure for its one stream"
NO_UNUSED_PATHS = "CHANGES.md: one line grammar, one-stage sweep replays, pps only when asked"
ONE_FLOW_PASS = "CHANGES.md: every hash width from one flow pass; verdicts built and scored by column"
ONE_CLOCK = "CHANGES.md: one epoch clock for the sketch and the flow pass"
KEYED_STAGES = "CHANGES.md: the sketch keeps its epochs by index and streams them"
BY_COLUMN = "CHANGES.md: verdicts by column"

MUTANTS = (
    Mutant(
        "empty epochs include the one at ts", "sketch.py",
        "range(self.index - gap, self.index), range(self.start - gap * epoch_ns, self.start, epoch_ns)",
        "range(self.index - gap, self.index + 1), range(self.start - gap * epoch_ns, self.start + 1, epoch_ns)",
        EPOCH_CLOCK, ONE_POLICY,
    ),
    Mutant(
        "closed epochs start one epoch early", "sketch.py",
        "self._snapshot(i, s, True)", "self._snapshot(i, s - self._config.epoch_ns, True)",
        EPOCH_CLOCK, ONE_POLICY,
    ),
    Mutant(
        "closed epochs' index one low", "sketch.py",
        "self._snapshot(i, s, True)", "self._snapshot(i - 1, s, True)",
        EPOCH_CLOCK, ONE_POLICY,
    ),
    # The reference replay rotates through the same window, so a test
    # that states the stages' contents must kill it.
    Mutant(
        "the window keeps one stage too few", "sketch.py",
        "range(index - gap - stages + 1, index - stages + 1)", "range(index - gap - stages + 1, index - stages + 2)",
        ("tests/test_sketch.py::test_stage_contents_across_five_epochs",), KEYED_STAGES,
    ),
    # Stage s reads epoch index - s whatever is held, so only the held
    # memory shows it.
    Mutant(
        "no epoch is ever dropped", "sketch.py",
        "    def _retire(self, gap: int) -> None:\n", "    def _retire(self, gap: int) -> None:\n        return\n",
        ("tests/test_sketch.py::test_held_memory_stays_flat_as_epochs_pass",), KEYED_STAGES,
    ),
    Mutant(
        "the stream drops the trailing partial epoch", "sketch.py",
        "            yield self._snapshot(self._clock.index, self._clock.start, False)\n", "            pass\n",
        (
            "tests/test_sketch.py::test_collect_epochs_counts_and_flags",
            "tests/test_cli.py::test_extract_writes_epoch_snapshots",
        ),
        KEYED_STAGES,
    ),
    Mutant(
        "the stream loses the epochs a regressing chunk closed", "sketch.py",
        "                yield from closed\n                raise\n", "                raise\n",
        ("tests/test_oracle.py::test_anomalous_keys_name_a_regression_as_the_tracker_does",), KEYED_STAGES,
    ),
    # Each splitter mutant is listed twice, so that a sketch test and a
    # sweep test must each kill it on its own.
    Mutant(
        "a run ends after the rows on its boundary, seen by the sketch", "sketch.py",
        "hi = bisect_left(", "hi = __import__('bisect').bisect_right(",
        EPOCH_CLOCK, ONE_CLOCK,
    ),
    Mutant(
        "a run ends after the rows on its boundary, seen by the sweep", "sketch.py",
        "hi = bisect_left(", "hi = __import__('bisect').bisect_right(",
        SWEEP_CLOCK, ONE_CLOCK,
    ),
    Mutant(
        "one epoch too many crossed, seen by the sketch", "sketch.py",
        "gap = max((times[lo] - self.start) // epoch_ns, 0)", "gap = max((times[lo] - self.start) // epoch_ns + 1, 0)",
        EPOCH_CLOCK, ONE_CLOCK,
    ),
    Mutant(
        "one epoch too many crossed, seen by the sweep", "sketch.py",
        "gap = max((times[lo] - self.start) // epoch_ns, 0)", "gap = max((times[lo] - self.start) // epoch_ns + 1, 0)",
        SWEEP_CLOCK, ONE_CLOCK,
    ),
    Mutant(
        "the rows before a regression dropped", "sketch.py",
        "        while lo < end:\n", "        while lo < end == len(times):\n",
        (
            "tests/test_sketch.py::test_timestamp_regression_rejected",
            "tests/test_oracle.py::test_anomalous_keys_name_a_regression_as_the_tracker_does",
        ),
        ONE_CLOCK,
    ),
    Mutant(
        "sweep failure not put on rows", "evaluation.py",
        "        if failure is not None:\n            outcomes = [failure]",
        "        if False:\n            outcomes = [failure]",
        ("tests/test_evaluation.py::test_sweep_timestamp_regression_fails_every_row_it_reaches",),
        ONE_FAILURE,
    ),
    Mutant(
        "sweep stops reading after a failure", "evaluation.py",
        "            failure = str(exc)\n",
        "            failure = str(exc)\n            break\n",
        ("tests/test_evaluation.py::test_sweep_reads_past_a_failed_pass_to_an_error_in_the_input",),
        ONE_FAILURE,
    ),
    Mutant(
        "window bounds overflow unchecked", "ingest.py",
        "        except OverflowError:\n", "        except ZeroDivisionError:\n",
        (
            "tests/test_cli.py::test_generate_refuses_a_trace_over_the_budget[window-bounds]",
            "tests/test_cli.py::test_generate_edge_values_exit_cleanly[--duration-ns]",
        ),
        "CHANGES.md: MENDED line on generate's OverflowError from a huge --duration-ns",
    ),
    Mutant(
        "NaN detector limit accepted", "detectors.py",
        "        if value != value:\n", "        if False:\n",
        (
            "tests/test_detectors.py::test_run_detector_validation",
            "tests/test_cli.py::test_detect_refuses_a_nan_limit",
        ),
        "CHANGES.md: a NaN threshold or k is refused",
    ),
    Mutant(
        "blank line skipped by read_csv", "ingest.py",
        "        yield _build_row(line_no, raw, width, build)\n",
        "        if raw != \"\\n\":\n            yield _build_row(line_no, raw, width, build)\n",
        (
            "tests/test_ingest.py::test_every_reader_takes_one_row_a_line[snapshot]",
            "tests/test_ingest.py::test_every_reader_takes_one_row_a_line[verdicts]",
        ),
        NO_UNUSED_PATHS,
    ),
    Mutant(
        "blank line skipped by the trace parser", "ingest.py",
        "for offset, raw in enumerate(chunk)]",
        "for offset, raw in enumerate(chunk) if raw.strip(\"\\n\")]",
        (
            "tests/test_ingest.py::test_every_reader_takes_one_row_a_line[trace]",
            "tests/test_cli.py::test_bad_last_row_aborts_without_output[command0-blank]",
        ),
        NO_UNUSED_PATHS,
    ),
    Mutant(
        "every trailing newline stripped", "ingest.py",
        "fields = raw.removesuffix(\"\\n\")", "fields = raw.rstrip(\"\\n\")",
        (
            "tests/test_ingest.py::test_every_reader_takes_one_row_a_line[report]",
            "tests/test_ingest.py::test_lines_that_are_not_one_row_each_match_the_reference",
        ),
        NO_UNUSED_PATHS,
    ),
    Mutant(
        "pareto guesses the throughput axis", "evaluation.py",
        "    if use_pps and any(",
        "    use_pps = use_pps or all(p.measured_pps is not None for p in points)\n    if use_pps and any(",
        ("tests/test_evaluation.py::test_pareto_ranks_pps_only_when_asked",),
        NO_UNUSED_PATHS,
    ),
    Mutant(
        "sweep rows skip the budget check", "evaluation.py",
        "                Sketch(config)  # the cell budget check\n", "                pass\n",
        (
            "tests/test_evaluation.py::test_sweep_budget_failure_stays_on_its_rows",
            "tests/test_evaluation.py::test_sweep_grid_all_over_the_budget_fails_every_row",
        ),
        NO_UNUSED_PATHS,
    ),
    Mutant(
        "detect checks its setting after the replay", "cli.py",
        "        check_setting(setting)\n", "",
        ("tests/test_cli.py::test_detect_rejects_a_negative_train_epochs", "tests/test_cli.py::test_detect_refuses_a_nan_limit"),
        "CHANGES.md: MENDED line on detect checking its setting after the replay",
    ),
    Mutant(
        "a shared bucket's gaps summed per flow", "sketch.py",
        "                if sums[3] > into[3]:\n                    into[3] = sums[3]\n",
        "                into[3] += sums[3] - sums[2]\n",
        (
            "tests/test_sweep_reference.py::test_sweep_matches_per_config_reference_in_shared_buckets",
            "tests/test_oracle.py::test_flow_sums_sum_gaps_across_the_flows_of_a_bucket",
        ),
        ONE_FLOW_PASS,
    ),
    Mutant(
        "every epoch's flow sums held to the end", "sketch.py",
        "        self._flows = {}\n\n    def finish",
        "        self._held = [*getattr(self, '_held', []), self._flows]\n        self._flows = {}\n\n    def finish",
        ("tests/test_evaluation.py::test_sweep_holds_the_flow_sums_of_one_open_epoch",),
        ONE_FLOW_PASS,
    ),
    Mutant(
        "verdicts flagged at the limit", "detectors.py",
        "map(gt, s, repeat(limit))", "map(lambda a, b: a >= b, s, repeat(limit))",
        (
            "tests/test_pipeline_equivalence.py::test_sparse_pipeline_with_int_limits_matches_dense_reference",
            "tests/test_detectors.py::test_verdict_invariant_score_exceeds_threshold",
        ),
        ONE_FLOW_PASS,
    ),
    Mutant(
        "score counts a repeated explicit verdict", "evaluation.py",
        "len(seen) != len(buckets) or (seen", "(seen",
        (
            "tests/test_evaluation.py::test_score_counts_as_the_per_verdict_loop",
            "tests/test_evaluation.py::test_score_domain_validation",
        ),
        ONE_FLOW_PASS,
    ),
    Mutant(
        "verdict rows take the shared flag", "detectors.py",
        "e.buckets, e.scores, e.flags)", "e.buckets, e.scores, repeat(e.shared_anomalous))",
        (
            "tests/test_detectors.py::test_verdict_file_holds_the_stored_rows",
            "tests/test_pipeline_equivalence.py::test_stateful_buckets_absent_from_a_snapshot_match_dense_reference",
        ),
        BY_COLUMN,
    ),
    Mutant(
        "score reads the flags one position late", "evaluation.py",
        "compress(buckets, epoch.flags)", "compress(buckets, epoch.flags[1:])",
        (
            "tests/test_evaluation.py::test_score_frozen_counts",
            "tests/test_evaluation.py::test_score_counts_as_the_per_verdict_loop",
        ),
        BY_COLUMN,
    ),
    Mutant(
        "the stateful union kept as a list", "detectors.py",
        "buckets = tuple(sorted(by_bucket.keys() | stateful))", "buckets = sorted(by_bucket.keys() | stateful)",
        ("tests/test_detectors.py::test_detector_verdicts_are_hashable_columns",),
        BY_COLUMN,
    ),
)

# Mutants that change no behaviour their tests can see: each must pass.
EQUIVALENT = (
    # A flow pass holds its flows in the order of their first packets,
    # so a bucket's first timestamp is already its first flow's when a
    # later flow merges in.
    Mutant(
        "a merged bucket's first timestamp compared too", "sketch.py",
        "                into[1] += sums[1]\n",
        "                into[1] += sums[1]\n                if sums[2] < into[2]:\n                    into[2] = sums[2]\n",
        (
            "tests/test_oracle.py::test_flow_sums_fold_to_the_sketch_snapshots_at_every_width",
            "tests/test_sweep_reference.py::test_sweep_matches_per_config_reference_in_shared_buckets",
        ),
        ONE_FLOW_PASS,
    ),
    # The clock's order check falls back to finding the first regression
    # whenever its fast check fails, so a fast check that misjudges a
    # tuple column costs time, not a wrong answer.
    Mutant(
        "the order fast-checked as a list only", "sketch.py",
        "sorted(times) == list(times)", "times == sorted(times)",
        (
            "tests/test_evaluation.py::test_tuple_columns_match_their_list_twin",
            "tests/test_oracle.py::test_anomalous_keys_name_a_regression_as_the_tracker_does",
        ),
        ONE_CLOCK,
    ),
)

# The runner's self-test: it changes nothing, so its tests must pass.
NO_OP = Mutant(
    "no-op", "sketch.py",
    "hi = bisect_left(", "hi = bisect_left(",
    EPOCH_CLOCK + ("tests/test_evaluation.py::test_sweep_timestamp_regression_fails_every_row_it_reaches",),
    "tests/mutants.py",
)


def run_mutant(mutant: Mutant) -> str:
    """'killed', 'survived', or a message saying why the mutant could
    not be judged."""
    with tempfile.TemporaryDirectory(prefix="flowsketch-mutant-") as tmp:
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for name in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, name), os.path.join(tmp, name), ignore=ignore)
        path = os.path.join(tmp, "src", "flowsketch", mutant.path)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        count = text.count(mutant.old)
        if count != 1:
            return f"its text occurs {count} times in {mutant.path}, not once"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(tmp, "src"), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *mutant.tests],
            cwd=tmp, env=env, capture_output=True, text=True,
        )
    # pytest exits 1 when tests fail; any other nonzero code means the
    # run itself went wrong, such as a node id that names no test.
    if proc.returncode == 0:
        return "survived"
    if proc.returncode == 1:
        return "killed"
    return f"pytest exited {proc.returncode}:\n{proc.stdout}{proc.stderr}"


def main(names: list[str]) -> int:
    known = {m.name for m in MUTANTS + EQUIVALENT}
    unknown = [name for name in names if name not in known]
    if unknown:
        print(f"unknown mutants: {unknown}", file=sys.stderr)
        return 2
    surviving = (NO_OP, *EQUIVALENT)
    problems = 0
    for mutant in (NO_OP, *(m for m in MUTANTS + EQUIVALENT if not names or m.name in names)):
        outcome = run_mutant(mutant)
        wanted = "survived" if mutant in surviving else "killed"
        ok = outcome == wanted
        problems += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {mutant.name}: {outcome}", flush=True)
    print(f"{problems} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
