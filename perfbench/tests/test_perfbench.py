"""Tests of the benchmark itself, on tiny workload sizes.

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert [m["name"] for m in SPEC["per_layer"]] == spans.metric_names() + ["trace.overhead_s"]
    for m in SPEC["per_layer"]:
        assert m["unit"] == spans.metric_unit(m["name"])


@pytest.mark.parametrize("workload", workloads.NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    spec = workloads.spec_for(workload, tiny=True)
    per_run = len(spec.cells) if isinstance(spec, workloads.VideoSpec) else spec.episodes + 3
    assert result["attempted"] >= per_run and result["attempted"] % per_run == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if trace and workload == "sweep_grid":
        layers = {k: v["value"] for k, v in result["metrics"].items()}
        # 4 rho x 3 SNR: extraction depends on rho alone; frame 0 is copied.
        assert layers["extractor.extract.useful_ratio"] == pytest.approx(4 / 12)
        n = spec.n_frames
        assert layers["metrics.ssim.useful_ratio"] == pytest.approx((n - 1) / n)
        assert layers["metrics.ssim.self_s"] <= layers["metrics.ssim.total_s"]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _bench("--workload", "sweep_grid", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def tiny_outputs(tmp_path_factory):
    """Outputs of one tiny run per workload: {workload: (spec, out_dir)}."""
    from flowcomm import cli

    outputs = {}
    for name in ("sweep_grid", "ddpg_train"):
        work = str(tmp_path_factory.mktemp(name))
        argv = workloads.prepare(name, 5, work, tiny=True)
        assert cli.main(argv) == 0
        outputs[name] = (workloads.spec_for(name, tiny=True), argv[argv.index("--out") + 1])
    return outputs


def _corrupt(path, row_index, column, edit):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
        fields = list(rows[0])
    rows[row_index][column] = edit(rows[row_index][column])
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


@pytest.mark.parametrize(
    "workload, filename, row, column, edit",
    [
        ("sweep_grid", "summary.csv", 4, "n_selected", lambda v: str(int(v) + 1)),
        ("sweep_grid", "summary.csv", 0, "l_com", lambda v: repr(float(v) + 8.0)),
        ("sweep_grid", "summary.csv", 7, "tx_seconds", lambda v: "nan"),
        ("sweep_grid", "frames.csv", 2, "ssim", lambda v: "1.5"),
        ("ddpg_train", "allocation.csv", 0, "fraction", lambda v: repr(float(v) + 0.01)),
        ("ddpg_train", "allocation.csv", 4, "t_seconds", lambda v: repr(float(v) * 1.1)),
        ("ddpg_train", "learning_curve.csv", 1, "mean_reward", lambda v: "inf"),
    ],
)
def test_a_corrupted_output_row_counts_as_one_failed_operation(
    tiny_outputs, tmp_path, workload, filename, row, column, edit
):
    spec, out_dir = tiny_outputs[workload]
    clean = checks.check(spec, out_dir)
    assert clean.failed == 0, clean.failures
    bad = str(tmp_path / "out")
    shutil.copytree(out_dir, bad)
    _corrupt(os.path.join(bad, filename), row, column, edit)
    result = checks.check(spec, bad)
    assert result.attempted == clean.attempted
    assert result.failed == 1, result.failures
