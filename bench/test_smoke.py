"""Smoke test of the benchmark: every workload at toy size, in a few seconds each.

    python3 -m pytest -q bench/test_smoke.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# per-layer counts that must read the same in every traced run of the same seed
EXACT_COUNTS = ("fem.pcg_iters_per_solve", "fem.simp_iters", "fem.converged_ratio",
                "autodiff.conv_gflop_per_step", "nets.disc_forwards_per_step",
                "train.checkpoint_mb", "train.checkpoint_loads_per_eval")


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "toy"],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)
    return proc.returncode, proc.stdout


def result_of(workload: str, trace: int) -> dict:
    code, stdout = run_bench(workload, trace)
    assert code == 0
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0   # error_rate 0
    return result


def units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = result_of(workload, 0)
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = result_of(workload, 1), result_of(workload, 1)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert units(first) == expected and units(second) == expected
    for name in EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_missing_entry_point_leaves_metric_absent(monkeypatch):
    from topogan import fem
    monkeypatch.delattr(fem, "_pcg")
    with Tracer() as tracer:
        with pytest.warns(UserWarning, match="fem:_pcg"):
            layers.install(tracer, layers.HOOKS)
        metrics, absent = layers.derive(tracer, wall_s=1.0)
    assert {"fem.solve_ms", "fem.pcg_iters_per_solve", "fem.assemble_ms"} <= set(absent)
    assert "fem.energy_ms" in metrics and "fem.solve_ms" not in metrics


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, stdout = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert code != 0 and stdout == ""
