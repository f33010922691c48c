"""Smoke test of the benchmark: every workload at toy size, both modes.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q

It checks that every end-to-end and per-layer metric is emitted with its
unit, that every correctness check ran and passed, that two traced runs
with one seed give identical counts, and that the benchmark refuses to
run without the library sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from metrics import COUNTS, END_TO_END, ITEM_RATE_NAMES, PER_LAYER  # noqa: E402

CHECKS = {
    "fit-csv-large": {
        "exit_status_0", "both_stages_converged", "beta1_3_within_6_se_of_truth", "report_bytes_identical",
    },
    "mc-model-implied": {
        "stage1_all_converged", "stage2_all_converged", "rmse_beta3_below_bound", "coverage_beta3_in_binomial_band",
        "report_identical_across_ops",
    },
    "sim-ensemble": {
        "no_negative_variance", "terminal_mean_within_4_se_of_cir_mean", "terminal_values_identical_across_ops",
    },
    "sim-structural": {"exit_status_0", "csv_has_n_steps_plus_1_finite_rows", "same_seed_identical_bytes"},
}
SEED = 3
_runs: dict[tuple, tuple[dict, dict]] = {}


def run_toy(workload: str, trace: int, attempt: int = 0) -> tuple[dict, dict]:
    """Result line and checks of one toy-size run; cached per (workload, trace, attempt)."""
    key = (workload, trace, attempt)
    if key not in _runs:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--size", "toy"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        assert done.returncode == 0, done.stderr
        lines = done.stdout.strip().splitlines()
        checks = json.loads(next(line for line in lines if line.startswith("checks = "))[len("checks = "):])
        _runs[key] = json.loads(lines[-1]), checks
    return _runs[key]


def test_benchmark_json_lists_the_metrics_the_code_emits():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(ITEM_RATE_NAMES)
    assert [tuple(m.values()) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [tuple(m.values()) for m in spec["per_layer"]] == list(PER_LAYER)


@pytest.mark.parametrize("workload", list(ITEM_RATE_NAMES))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_and_check(workload, trace):
    result, checks = run_toy(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = END_TO_END if trace == 0 else PER_LAYER
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {name: unit for name, unit, *_ in expected}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert set(checks) == CHECKS[workload]
    assert all(ran >= 1 and passed == ran for ran, passed in checks.values())


@pytest.mark.parametrize("workload", list(ITEM_RATE_NAMES))
def test_counts_repeat_exactly(workload):
    first, _ = run_toy(workload, 1)
    second, _ = run_toy(workload, 1, attempt=1)
    for name, *_ in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-ensemble", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
