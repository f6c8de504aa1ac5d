"""Benchmark entry point.

    python3 bench/run.py --workload {sweep,train,pipeline} --seed N --seconds S --trace {0,1}

Runs from the root of a source checkout and imports topogan from its src/.
Each workload runs in a fresh child process (bench/workloads.py) whose
BLAS/OpenMP thread counts are set to 1 before it imports numpy, so set-up
time and peak memory belong to that one workload. setup_s is the median over
SETUP_SAMPLES cold processes: the workload's own and SETUP_SAMPLES - 1 that
stop after their set-up.

--trace 0 runs the workload for --seconds and reports the end-to-end metrics.
--trace 1 runs the workload's fixed amount of work twice, each in its own
process: once untraced and once with every layer entry point wrapped. It
reports the per-layer metrics of the traced run and the tracing overhead
(traced minus untraced wall time, as a share of the untraced).

Human-readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. Full results,
the environment and the spans of traced runs are written under .bench_work/.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_work"
DEADLINE_S = 175.0
SETUP_SAMPLES = 3
# One BLAS/OpenMP thread per process: on the 2-core machine the benchmark was
# tuned on, a second thread did not make a training step faster, and a process
# that fills both cores is slowed by everything else the machine runs.
BLAS_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = BLAS_THREADS
    return env


def run_child(args, fixed: bool, trace: bool, deadline: float, setup_only: bool = False) -> dict:
    tag = f"{args.workload}-{args.size}-seed{args.seed}-{'fixed' if fixed else 'timed'}"
    tag += "-traced" if trace else ""
    tag += "-setup" if setup_only else ""
    out = WORK / f"{tag}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH_DIR / "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--size", args.size,
           "--trace", str(int(trace)), "--out", str(out)]
    if fixed:
        cmd.append("--fixed")
    if setup_only:
        cmd.append("--setup-only")
    remaining = deadline - time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), stdout=sys.stderr,
                              timeout=max(remaining, 1.0), check=False)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{tag} did not finish within {DEADLINE_S:.0f} s") from exc
    if proc.returncode != 0 or not out.is_file():
        raise ChildFailed(f"{tag} exited with code {proc.returncode}")
    result = json.loads(out.read_text(encoding="utf-8"))
    result["result_file"] = str(out.relative_to(ROOT))
    return result


def print_metrics(title: str, metrics: dict) -> None:
    print(f"# {title}")
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:>14.6g} {m['unit']}")


def describe(result: dict) -> None:
    env = result["environment"]
    threads = " ".join(f"{k}={v}" for k, v in env["threads"].items())
    print(f"# environment: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"BLAS {env['blas']}, nproc {env['nproc']}, {threads}")
    mode = "fixed work" if result["fixed"] else "timed"
    kind = "traced" if result["trace"] else "untraced"
    rate = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    print(f"# {result['workload']} ({result['size']}, seed {result['seed']}, {mode}, {kind}): "
          f"{result['tasks']} tasks in {result['wall_s']:.3f} s; {result['attempted']} "
          f"operations, {result['failed']} failed, error_rate {rate:.4g}; "
          f"results in {result['result_file']}")
    for failure in result["failures"]:
        print(f"# FAILED: {failure}")
    for target in result["missing_targets"]:
        print(f"# WARNING: entry point {target} not found")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "toy"), default="full",
                   help="toy: tiny inputs for the smoke test")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not (ROOT / "src" / "topogan" / "__init__.py").is_file():
        print(f"no topogan sources under {ROOT / 'src'}: run from a source checkout",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            plain = run_child(args, fixed=True, trace=False, deadline=deadline)
            traced = run_child(args, fixed=True, trace=True, deadline=deadline)
            runs = [plain, traced]
        else:
            setups = [run_child(args, fixed=False, trace=False, deadline=deadline,
                                setup_only=True)["setup_s"]
                      for _ in range(SETUP_SAMPLES - 1)]
            runs = [run_child(args, fixed=False, trace=False, deadline=deadline)]
            setups.append(runs[0]["setup_s"])
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    for result in runs:
        describe(result)
    main_run = runs[-1]
    if args.trace:
        metrics = dict(main_run["layers"])
        overhead = 100.0 * (traced["wall_s"] - plain["wall_s"]) / plain["wall_s"]
        metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
        for name in main_run["absent"]:
            print(f"# WARNING: per-layer metric {name} absent (its entry point is missing)")
        print("# self time by entry point (traced run)")
        for row in main_run["self_time"][:12]:
            print(f"#   {row['name']:34s} {row['calls']:7d} calls "
                  f"{row['total_s']:9.3f} s total {row['self_s']:9.3f} s self "
                  f"({100 * row['self_s'] / traced['wall_s']:5.1f}% of wall)")
    else:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                   "peak_rss_mb": {"value": main_run["peak_rss_mb"], "unit": "MB"},
                   **main_run.get("e2e", {})}
        print_metrics("workload-specific figures (not gated)", main_run.get("extras", {}))
    print_metrics("metrics", metrics)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = failed == 0 and all(r["tasks"] > 0 for r in runs)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
