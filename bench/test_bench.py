"""Tests of the benchmark itself, on tiny sizes.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def assert_metrics(lines: list[str], result: dict, wanted: list[dict]) -> None:
    assert result.keys() == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.startswith(f"{metric['name']} ") and line.endswith(f" {metric['unit']}")
                   for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(workload):
    lines, result = bench(workload, 0)
    assert_metrics(lines, result, SPEC["end_to_end"])
    assert any(line.startswith("fail_share 0.0 ratio") for line in lines)
    assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])


# Layers each workload must reach, and layers it must bypass, in a traced pass.
REACHED = {
    "verify-all": ["enumeration.pair_sequences.items", "families.count_enum.calls",
                   "identities.verify.calls", "qseries.gf_family.calls"],
    "verify-parallel": ["identities.cell_ms_sum", "identities.pool_efficiency"],
    "series-deep": ["qseries.mul.calls", "qseries.inverse.calls", "families.series_for.builds"],
    "bijection-sweep": ["bijections.maps.calls", "partition.Partition.init_calls",
                        "families.enumerate_class.calls", "families.membership.calls"],
}
BYPASSED = {
    "verify-all": ["bijections.maps.calls", "partition.Partition.init_calls"],
    "verify-parallel": ["enumeration.pair_sequences.calls", "identities.verify.calls"],
    "series-deep": ["enumeration.pair_sequences.calls", "bijections.maps.calls"],
    "bijection-sweep": ["qseries.gf_family.calls", "identities.verify.calls"],
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    lines, result = bench(workload, 1)
    assert_metrics(lines, result, SPEC["per_layer"])
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert all(values[name] > 0 for name in REACHED[workload])
    assert all(values[name] == 0 for name in BYPASSED[workload])


def test_corrupted_golden_entry_counts_as_failure():
    golden = json.loads((BENCH / "golden.json").read_text())
    clean = run.run("bijection-sweep", 1, 0.1, False, golden, "tiny")
    assert clean["failed"] == 0
    corrupt = copy.deepcopy(golden)
    expected = corrupt["bijection-sweep"]["tiny"]["expected"]
    expected[next(iter(expected))] = ["not the real output"]
    result = run.run("bijection-sweep", 1, 0.1, False, corrupt, "tiny")
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]


def test_check_counts_missing_changed_and_unexpected_outputs():
    expected = {"a": 1, "b": [2], "c": None}
    assert run.check({"a": 1, "b": [2], "c": None}, expected) == (3, 0)
    assert run.check({"a": 1, "b": [3], "d": 0}, expected) == (4, 3)


def test_metric_map_covers_every_per_layer_metric():
    metric_map = json.loads((BENCH / "metric_map.json").read_text())
    assert list(metric_map) == [m["name"] for m in SPEC["per_layer"]]
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for entry in metric_map.values():
        for metric, workload in entry["moves"]:
            assert metric in end_to_end and workload in WORKLOADS
        assert set(entry["unchanged_on"]) <= set(WORKLOADS)


def test_same_seed_gives_same_task_orders():
    import random

    tasks = json.loads((BENCH / "golden.json").read_text())["series-deep"]["tiny"]["tasks"]
    rng, rng_again = random.Random(5), random.Random(5)
    first = [run.shuffled(tasks, rng) for _ in range(3)]
    again = [run.shuffled(tasks, rng_again) for _ in range(3)]
    other = run.shuffled(tasks, random.Random(6))
    assert first == again
    assert other != first[0]
    assert sorted(map(json.dumps, other)) == sorted(map(json.dumps, tasks))


def test_dead_or_hung_pass_counts_its_outputs_as_failed(tmp_path, monkeypatch):
    golden = json.loads((BENCH / "golden.json").read_text())
    expected = golden["bijection-sweep"]["tiny"]["expected"]
    (tmp_path / "one_pass.py").write_text("import time\ntime.sleep(30)\n")
    monkeypatch.setattr(run, "BENCH", tmp_path)
    monkeypatch.setattr(run, "SETUP_BATCH", 1)
    monkeypatch.setattr(run, "RUN_DEADLINE_S", 3)
    hung = run.run("bijection-sweep", 1, 0.1, False, golden, "tiny")
    assert not hung["correct"]
    # Every expected output of the pass fails, and so does the setup
    # interpreter that would start after the deadline.
    assert (hung["attempted"], hung["failed"]) == (len(expected) + 2, len(expected) + 1)
    assert 2 < hung["metrics"]["wall_s"]["value"] < 10

    monkeypatch.setattr(run, "SETUP_CODE", "print(2, 0.0)")
    assert run.measure_setup(2, time.perf_counter() + 60) == ([], 2)

    (tmp_path / "one_pass.py").write_text("raise SystemExit(3)\n")
    dead = run.run("bijection-sweep", 1, 0.1, True, golden, "tiny")
    # Each round is one untraced and one traced pass, both dead.
    assert dead["failed"] == dead["attempted"]
    assert dead["attempted"] % (2 * len(expected)) == 0 < dead["attempted"]
    assert list(dead["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
