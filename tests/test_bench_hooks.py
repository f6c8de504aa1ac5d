"""The benchmark still runs against topogan's current API.

`bench/layers.py` wraps each `module:function` or `module:Class.method` in
HOOKS by name; a target that no longer resolves only warns at run time and
silently drops its per-layer metrics, so a rename must fail here instead.
Each workload of BENCHMARK.json also runs once at toy size, so a removed
name or option that a workload calls fails here and not only in the benchmark.
"""
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LAYERS = ROOT / "bench" / "layers.py"
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]
# the thread variables bench/run.py pins for its child processes
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def load_hooks() -> dict:
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.HOOKS


@pytest.mark.parametrize("target", sorted(load_hooks()))
def test_bench_hook_target_resolves(target):
    module_name, _, attr_path = target.partition(":")
    owner = importlib.import_module(f"topogan.{module_name}")
    for part in attr_path.split("."):
        assert hasattr(owner, part), f"{target}: {part} not found"
        owner = getattr(owner, part)
    assert callable(owner), target


def run_workload(workload: str, out: Path, *flags: str) -> dict:
    """The result of one fixed toy-size run of `workload` by bench/workloads.py."""
    env = {**os.environ, **{var: "1" for var in THREAD_VARS}}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "workloads.py"), "--workload", workload,
         "--size", "toy", "--seed", "0", "--seconds", "0", "--fixed", "--out", str(out),
         *flags],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(out.read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_workload_runs_at_toy_size(workload, tmp_path):
    result = run_workload(workload, tmp_path / f"{workload}.json")
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["failures"]


def test_bench_checkpoint_metrics_are_measured(tmp_path):
    # a loader that bypassed train.load_checkpoint would pass the hook test
    # above and still zero these: each eval loads its checkpoint exactly once
    result = run_workload("pipeline", tmp_path / "pipeline.json", "--trace", "1")
    assert result["failed"] == 0, result["failures"]
    assert result["absent"] == []
    layers = result["layers"]
    assert layers["train.checkpoint_loads_per_eval"]["value"] == 1.0
    assert layers["train.load_checkpoint_ms"]["value"] > 0
    assert layers["train.save_checkpoint_ms"]["value"] > 0
    # a draw called past its module attribute would read 0 here
    assert layers["objectives.mismatch_draw_ms"]["value"] > 0
