"""Smoke tests of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py

Each workload runs at its smallest size (a one-second window) in both
modes and must report every metric BENCHMARK.json names, with its unit.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)

import run as bench  # noqa: E402
import workloads  # noqa: E402


def run(root, workload, trace, seconds=1):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=175)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_reports_every_metric_with_its_unit(workload, trace):
    done = run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    def inputs(seed):
        return json.dumps([(i.op, i.stratum, i.problem, i.proof)
                           for i in workloads.deck(workload, seed)], default=str)

    assert inputs(3) == inputs(3)
    assert inputs(3) != inputs(4)


def test_every_slot_of_a_round_weighs_the_same():
    # Two rounds of two slots; the window ended after slot 0 of round two.
    deck = [["synthesize", "a", "feasible", 0], ["analyze", "b", "infeasible", 1]] * 2
    records = [(0, 1.0, "ok", ""), (1, 3.0, "ok", ""), (2, 2.0, "ok", "")]
    weights = bench.slot_weights(records, deck)
    assert weights == [0.5, 1.0, 0.5]
    assert bench.ops_per_s(records, weights) == pytest.approx(2 / (1.5 + 3.0))
    assert bench.tail_percentile(100) == 90.0


def test_weighted_percentile():
    # Harrell-Davis: symmetric samples have their middle as median, and the
    # 100th percentile is the maximum.
    assert bench.weighted_percentile(list(range(1, 10)), [1.0] * 9, 50.0) == pytest.approx(
        5.0, rel=1e-3)
    assert bench.weighted_percentile([3.0, 1.0, 2.0], [0.5, 1.0, 0.5], 100.0) == 3.0
    # Halving a sample's weight moves the estimate towards the others.
    values = [1.0, 2.0, 3.0, 4.0]
    even = bench.weighted_percentile(values, [1.0] * 4, 50.0)
    assert bench.weighted_percentile(values, [1.0, 1.0, 1.0, 0.25], 50.0) < even


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    done = run(tmp_path, "analyze-small", 0)
    assert done.returncode != 0
    assert done.stdout == ""
