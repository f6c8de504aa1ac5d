"""One benchmark workload in one process; run.py starts this script.

run.py sets the BLAS/OpenMP thread counts in the environment before this
process imports numpy. The script times its set-up (from its first line to
the end of the workload's first call: imports, inputs built from the seed,
one warm-up call), runs tasks (for a number of seconds, or a fixed number of
them), checks every output against bench/reference.json, and writes one JSON
result to --out. Only a few coarse entry points are wrapped in an untraced
run, to time SIMP iterations, training steps and the calls the result checks
read; --trace 1 wraps every entry point that layers.py lists.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

PROCESS_START = time.perf_counter()
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import topogan  # noqa: E402
from topogan import data, evaluate, fem, train  # noqa: E402

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402

REFERENCE_PATH = BENCH_DIR / "reference.json"
# Tolerances of the result checks against the references. SIMP iteration
# counts and convergence flags must match exactly. Final compliance may move
# by 1e-6 relative: PCG stops at a 1e-8 residual, so a solve that takes one
# iteration more or less under another BLAS moves it by more than round-off.
# The final training losses may move by 1e-9 relative: far above float64
# round-off, far below what a change to the method does (a different Adam
# beta1 moves the toy size's final g_loss by 3.6e-7).
COMPLIANCE_RTOL = 1e-6
LOSS_RTOL = 1e-9
# volfrac shifts a seed draws from, per grid volfrac, on the sweep workload
VOLFRAC_SHIFTS = (-0.02, -0.01, 0.0, 0.01, 0.02)
EVAL_TOLERANCE = 0.05


def task_seed(seed: int, k: int) -> int:
    """Seed of task k in a run with workload seed `seed`."""
    return seed * 1000 + k


@dataclass(frozen=True)
class Sizes:
    sweep_mesh: tuple[int, int]
    sweep_volfracs: tuple[float, ...]
    sweep_rmins: tuple[float, ...]
    train_classes: int
    train_per_class: int
    train_image: int
    train_batch: int
    train_steps: int
    pipe_mesh: int
    pipe_volfracs: tuple[float, ...]
    pipe_rmins: tuple[float, ...]
    pipe_batch: int
    pipe_steps: int
    pipe_targets: tuple[float, ...]
    pipe_eval_count: int
    net: dict = field(default_factory=dict)   # TrainConfig network fields

    penal = 3.0


SIZES = {
    "full": Sizes(
        sweep_mesh=(60, 20), sweep_volfracs=(0.4, 0.5, 0.6), sweep_rmins=(1.5, 2.5),
        train_classes=10, train_per_class=20, train_image=28, train_batch=64, train_steps=4,
        pipe_mesh=32, pipe_volfracs=(0.35, 0.45, 0.55, 0.65), pipe_rmins=(1.5, 2.5),
        pipe_batch=16, pipe_steps=8, pipe_targets=(0.4, 0.5, 0.6), pipe_eval_count=8,
    ),
    "toy": Sizes(
        sweep_mesh=(16, 6), sweep_volfracs=(0.4, 0.5), sweep_rmins=(1.5,),
        train_classes=3, train_per_class=4, train_image=8, train_batch=6, train_steps=2,
        pipe_mesh=12, pipe_volfracs=(0.4, 0.6), pipe_rmins=(1.5,),
        pipe_batch=4, pipe_steps=2, pipe_targets=(0.4, 0.6), pipe_eval_count=2,
        net=dict(z_dim=8, gen_channels=(8, 4), disc_channels=(4, 8), feature_dim=8,
                 minibatch_kernels=4, minibatch_dim=2),
    ),
}


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


class Ledger:
    """Operations attempted and failed: designs, steps, evaluated images, checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def ops(self, count: int) -> None:
        self.attempted += count

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def fail(self, what: str) -> None:
        self.check(False, what)


def close(value: float, ref: float, rtol: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= rtol * abs(ref)


def check_designs(spans, expected: int, reference: dict, ledger: Ledger) -> None:
    """Each SIMP run against its reference iterations, convergence and compliance."""
    ledger.ops(len(spans))
    ledger.check(len(spans) == expected, f"{len(spans)} SIMP runs, expected {expected}")
    for span in spans:
        info = span.info
        ref = reference["designs"].get(info["key"]) if info else None
        ok = (ref is not None
              and info["iterations"] == ref["iterations"]
              and info["converged"] == ref["converged"]
              and close(info["compliance"], ref["compliance"], COMPLIANCE_RTOL))
        ledger.check(ok, f"SIMP result {info} differs from reference {ref}")


class Workload:
    name = ""
    probes: tuple[str, ...] = ()   # entry points timed in every run
    fixed_tasks = 1                # tasks in a fixed-work (traced) run

    def __init__(self, size: Sizes, seed: int, reference: dict, workdir: Path):
        self.size = size
        self.seed = seed
        self.reference = reference
        self.workdir = workdir

    def inputs(self, k: int):
        raise NotImplementedError

    def setup(self) -> None:
        """Build task 0's inputs and make the first call that a cold process makes."""
        raise NotImplementedError

    def run(self, k: int, inputs) -> dict:
        """Task k, timed by the caller; returns what the checks and metrics need."""
        raise NotImplementedError

    def check(self, k: int, inputs, out: dict, spans, ledger: Ledger) -> None:
        raise NotImplementedError

    def verify(self, ledger: Ledger) -> None:
        """Untimed checks after the last task."""

    def task_items(self, out: dict, spans) -> int:
        """Units of work task `out` completed: the numerator of items_per_s."""
        raise NotImplementedError

    def step_samples_ms(self, tracer: Tracer) -> list[float]:
        """Duration of every inner step: a SIMP iteration or a training step."""
        return _durations_ms(tracer, layers.TRAIN_STEP)

    def e2e(self, tasks: list[dict], tracer: Tracer) -> tuple[dict, dict]:
        """(end-to-end metrics shared by all workloads, workload-specific extras)."""
        raise NotImplementedError


def items_per_s(tasks: list[dict]) -> float | None:
    """Median over tasks of each task's rate, so that one slowed task moves it little."""
    return median(t["items"] / t["seconds"] for t in tasks if t["items"])


def _durations_ms(tracer: Tracer, name: str) -> list[float]:
    return [1e3 * tracer.spans[i].duration for i in tracer.indices(name)]


def median(values) -> float | None:
    values = list(values)
    return statistics.median(values) if values else None


def simp_iteration_ms(tracer: Tracer) -> list[float]:
    """One value per SIMP iteration: from one solve's start to the next, or to the end."""
    out = []
    for i in tracer.indices("fem:run_simp"):
        starts = [tracer.spans[c].start for c in tracer.children(i)
                  if tracer.spans[c].name == "fem:assemble_and_solve"]
        ends = starts[1:] + [tracer.spans[i].end]
        out.extend(1e3 * (b - a) for a, b in zip(starts, ends))
    return out


class Sweep(Workload):
    name = "sweep"
    probes = ("fem:run_simp", "fem:assemble_and_solve")

    def inputs(self, k: int):
        rng = np.random.default_rng([self.seed, k])
        shifts = rng.choice(VOLFRAC_SHIFTS, size=len(self.size.sweep_volfracs))
        volfracs = tuple(round(v + float(s), 2) for v, s in zip(self.size.sweep_volfracs, shifts))
        return data.SweepGrid(volfracs=volfracs, penals=(self.size.penal,),
                              rmins=self.size.sweep_rmins,
                              mesh=fem.MeshSpec(*self.size.sweep_mesh))

    def setup(self) -> None:
        grid = self.inputs(0)
        bc = fem.BoundaryConditions.cantilever(grid.mesh)
        fem.assemble_and_solve(fem.DensityField.uniform(grid.mesh, grid.volfracs[0]),
                               self.size.penal, grid.mesh, bc)

    def run(self, k: int, grid) -> dict:
        ds = data.sweep_generate(grid)
        path = self.workdir / f"sweep{k}.topd"
        data.write_dataset(ds, path)
        return {"dataset": ds, "read_back": data.read_dataset(path), "designs": len(grid)}

    def check(self, k, grid, out, spans, ledger) -> None:
        check_designs([s for s in spans if s.name == "fem:run_simp"], len(grid),
                      self.reference, ledger)
        ledger.check(out["read_back"].equals(out["dataset"]), "TOPD round trip differs")

    def task_items(self, out, spans):
        return sum(s.info["iterations"] for s in spans if s.name == "fem:run_simp" and s.info)

    def e2e(self, tasks, tracer):
        seconds = sum(t["seconds"] for t in tasks)
        designs = sum(t["designs"] for t in tasks)
        iteration_ms = median(self.step_samples_ms(tracer))
        return ({"step_ms_p50": iteration_ms, "items_per_s": items_per_s(tasks)},
                {"sweep_designs_per_s": designs / seconds,
                 "simp_iter_ms_p50": iteration_ms,
                 "simp_iterations": sum(t["items"] for t in tasks), "designs": designs})

    def step_samples_ms(self, tracer):
        return simp_iteration_ms(tracer)


class Train(Workload):
    name = "train"
    probes = (layers.TRAIN_STEP,)
    fixed_tasks = 2

    def inputs(self, k: int):
        # task 0 trains at the library's default seed 0, whose final losses are
        # in the reference; later tasks draw their data and init from the seed
        seed = task_seed(self.seed, k) if k else 0
        s = self.size
        ds = data.synth_classes(s.train_classes, s.train_per_class, s.train_image, seed=seed)
        return ds, train.TrainConfig(objective="crcgan-a", batch_size=s.train_batch,
                                     steps=s.train_steps, seed=seed, **s.net)

    def setup(self) -> None:
        ds, config = self.inputs(0)
        train.init_state(config, ds)

    def run(self, k: int, inputs) -> dict:
        ds, config = inputs
        outcome = train.train(config, ds, self.workdir / f"train{k}")
        self.last = (outcome, ds, config)
        return {"outcome": outcome, "steps": config.steps,
                "samples": config.steps * config.batch_size}

    def check(self, k, inputs, out, spans, ledger) -> None:
        records = train.read_metrics(out["outcome"].metrics_path)
        ledger.ops(out["steps"])
        ledger.check(len(records) == out["steps"]
                     and all(math.isfinite(r["d_loss"]) and math.isfinite(r["g_loss"])
                             for r in records), "training metrics missing or non-finite")
        if k == 0 and records:
            last, ref = records[-1], self.reference["train"]
            ledger.check(close(last["d_loss"], ref["d_loss"], LOSS_RTOL)
                         and close(last["g_loss"], ref["g_loss"], LOSS_RTOL),
                         f"final losses {last['d_loss']}, {last['g_loss']} differ from "
                         f"reference {ref['d_loss']}, {ref['g_loss']}")

    def verify(self, ledger: Ledger) -> None:
        # the last task's checkpoint reloads to the trained state
        outcome, ds, config = self.last
        loaded = train.load_state(outcome.checkpoint_path, ds, config)
        trained = outcome.state
        same = loaded.step == trained.step
        for net in ("gen", "disc"):
            a, b = getattr(loaded, net).params(), getattr(trained, net).params()
            same = same and a.keys() == b.keys() and all(
                np.array_equal(a[n].data, b[n].data) for n in a)
        for adam in ("adam_g", "adam_d"):
            a, b = getattr(loaded, adam), getattr(trained, adam)
            same = same and a.step == b.step and all(
                np.array_equal(x, y) for x, y in zip(a.m + a.v, b.m + b.v))
        ledger.check(same, "checkpoint does not reload to the trained state")

    def task_items(self, out, spans):
        return out["samples"]

    def e2e(self, tasks, tracer):
        step_ms = median(self.step_samples_ms(tracer))
        rate = items_per_s(tasks)
        return ({"step_ms_p50": step_ms, "items_per_s": rate},
                {"train_step_ms_p50": step_ms, "train_samples_per_s": rate,
                 "steps": sum(t["steps"] for t in tasks)})


class Pipeline(Workload):
    name = "pipeline"
    probes = ("fem:run_simp", layers.TRAIN_STEP, "train:sample", "evaluate:reanalyze")

    def grid(self):
        s = self.size
        return data.SweepGrid(volfracs=s.pipe_volfracs, penals=(s.penal,), rmins=s.pipe_rmins,
                              mesh=fem.MeshSpec(nelx=s.pipe_mesh, nely=s.pipe_mesh))

    def inputs(self, k: int):
        # The designs, their augmentation and the network init are the library
        # defaults (seed 0) in every task, so every task trains the same model:
        # a barely trained generator's images change with any change to its
        # training data, and their FEM reanalysis cost changes tenfold with them.
        # The workload seed draws the sampling noise of the evaluation.
        s = self.size
        config = train.TrainConfig(objective="crcgan-b", batch_size=s.pipe_batch,
                                   steps=s.pipe_steps, seed=0, **s.net)
        return self.grid(), config, task_seed(self.seed, k)

    def setup(self) -> None:
        grid, _, _ = self.inputs(0)
        bc = fem.BoundaryConditions.cantilever(grid.mesh)
        fem.assemble_and_solve(fem.DensityField.uniform(grid.mesh, grid.volfracs[0]),
                               self.size.penal, grid.mesh, bc)

    def run(self, k: int, inputs) -> dict:
        grid, config, eval_seed = inputs
        designs = data.sweep_generate(grid)
        augmented = data.augment_dataset(designs, seed=0)
        path = self.workdir / f"pipeline{k}.topd"
        data.write_dataset(augmented, path)
        read_back = data.read_dataset(path)
        outcome = train.train(config, read_back, self.workdir / f"pipeline{k}")
        reports = [evaluate.conditional_eval(
            outcome.checkpoint_path, target, self.size.pipe_eval_count, EVAL_TOLERANCE,
            seed=eval_seed * len(self.size.pipe_targets) + i, reanalyze_compliance=True)
            for i, target in enumerate(self.size.pipe_targets)]
        return {"designs": designs, "augmented": augmented, "read_back": read_back,
                "steps": config.steps, "reports": reports,
                "images": sum(r.count for r in reports)}

    def check(self, k, inputs, out, spans, ledger) -> None:
        grid = inputs[0]
        check_designs([s for s in spans if s.name == "fem:run_simp"], len(grid),
                      self.reference, ledger)
        ledger.check(len(out["augmented"]) == 2 * len(grid), "augment did not double the set")
        ledger.check(out["read_back"].equals(out["augmented"]), "TOPD round trip differs")
        ledger.ops(out["steps"])
        for report in out["reports"]:
            compliances = report.per_sample_compliance or []
            ledger.check(report.count == self.size.pipe_eval_count
                         and len(compliances) == report.count
                         and math.isfinite(report.mean_abs_err),
                         f"evaluation at {report.target} returned {len(compliances)} of "
                         f"{self.size.pipe_eval_count} samples")
            for c in compliances:
                ledger.check(math.isfinite(c) and c > 0.0,
                             f"non-positive or non-finite compliance {c}")

    def task_items(self, out, spans):
        return out["images"]

    def e2e(self, tasks, tracer):
        step_ms = median(self.step_samples_ms(tracer))
        sample_s = sum(tracer.spans[i].duration for i in tracer.indices("train:sample"))
        sampled = self.size.pipe_eval_count * len(tracer.indices("train:sample"))
        return ({"step_ms_p50": step_ms, "items_per_s": items_per_s(tasks)},
                {"pipeline_s": median(t["seconds"] for t in tasks),
                 "train_step_ms_p50": step_ms,
                 "sample_images_per_s": sampled / sample_s if sample_s else None,
                 "reanalyze_ms_p50": median(_durations_ms(tracer, "evaluate:reanalyze")),
                 "fidelity_mae": statistics.fmean(
                     r.mean_abs_err for r in tasks[0]["reports"])})


WORKLOADS = {w.name: w for w in (Sweep, Train, Pipeline)}

UNITS = {
    "step_ms_p50": "ms", "items_per_s": "1/s",
    "sweep_designs_per_s": "1/s", "simp_iter_ms_p50": "ms", "simp_iterations": "count",
    "designs": "count", "train_step_ms_p50": "ms", "train_samples_per_s": "1/s",
    "steps": "count", "pipeline_s": "s", "sample_images_per_s": "1/s",
    "reanalyze_ms_p50": "ms", "fidelity_mae": "vf",
}


def with_units(values: dict) -> dict:
    """{name: {"value", "unit"}}, leaving out figures that could not be measured."""
    return {k: {"value": float(v), "unit": UNITS[k]} for k, v in values.items()
            if v is not None}


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # KiB on Linux


def run_workload(name: str, size: str, seed: int, seconds: float, fixed: bool,
                 trace: bool, workdir: Path, spans_path: Path,
                 setup_only: bool = False) -> dict:
    workload = WORKLOADS[name](SIZES[size], seed, load_reference()[size], workdir)
    workload.setup()
    setup_s = time.perf_counter() - PROCESS_START
    if setup_only:
        return {"setup_s": setup_s}
    ledger = Ledger()

    tracer = Tracer()
    layers.install(tracer, layers.HOOKS if trace else workload.probes)
    tasks = []
    start = time.perf_counter()
    k = 0
    with tracer:
        while True:
            inputs = workload.inputs(k)
            first = len(tracer.spans)
            t0 = time.perf_counter()
            try:
                out = workload.run(k, inputs)
            except Exception:  # a failed task is counted, reported, and the run goes on
                traceback.print_exc()
                ledger.fail(f"task {k} raised")
                out = None
            dt = time.perf_counter() - t0
            if out is not None:
                out["seconds"] = dt
                out["items"] = workload.task_items(out, tracer.spans[first:])
                tasks.append(out)
                workload.check(k, inputs, out, tracer.spans[first:], ledger)
            k += 1
            if k == workload.fixed_tasks:
                # memory after a fixed amount of work: the allocator's peak grows
                # with the number of tasks a timed run happens to fit
                rss_mb = peak_rss_mb()
            # a timed run starts another task only if one more like the last fits
            if (k >= workload.fixed_tasks if fixed
                    else time.perf_counter() - start + dt > seconds):
                break
    wall = sum(t["seconds"] for t in tasks)
    if k < workload.fixed_tasks:
        rss_mb = peak_rss_mb()
    try:
        workload.verify(ledger)
    except Exception:
        traceback.print_exc()
        ledger.fail("verification raised")

    result = {
        "workload": name, "size": size, "seed": seed, "fixed": fixed, "trace": trace,
        "tasks": len(tasks), "wall_s": wall,
        "attempted": ledger.attempted, "failed": ledger.failed, "failures": ledger.failures,
        "setup_s": setup_s, "peak_rss_mb": rss_mb, "missing_targets": tracer.missing,
        "environment": environment(),
    }
    if tasks:
        e2e, extras = workload.e2e(tasks, tracer)
        result["e2e"] = with_units(e2e)
        result["extras"] = with_units(extras)
        result["task_seconds"] = [t["seconds"] for t in tasks]
        result["step_samples_ms"] = workload.step_samples_ms(tracer)
        for name in e2e.keys() - result["e2e"].keys():
            print(f"warning: end-to-end metric {name} could not be measured", file=sys.stderr)
    if trace:
        result["layers"], result["absent"] = layers.derive(tracer, wall)
        result["self_time"] = layers.self_time_table(tracer)
        tracer.dump(spans_path)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--size", choices=sorted(SIZES), default="full")
    p.add_argument("--fixed", action="store_true", help="run the fixed number of tasks")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--setup-only", action="store_true", help="stop after the set-up")
    args = p.parse_args(argv)
    if Path(topogan.__file__).resolve().parent != (SRC / "topogan").resolve():
        print(f"topogan was imported from {topogan.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workdir = args.out.parent / f"work-{args.out.stem}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run_workload(args.workload, args.size, args.seed, args.seconds, args.fixed,
                              bool(args.trace), workdir,
                              args.out.with_suffix(".spans.jsonl"), args.setup_only)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    args.out.write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
