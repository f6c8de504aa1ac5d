"""The per-layer view of topogan: which entry points a run wraps, and how the
spans they record become per-layer metrics.

Each hook below runs the wrapped function and may store one fact about the
call in `span.info`: a product count, a computed FLOP count, a file size, a
SIMP outcome or an evaluation error. No hook changes what the program
computes: the `_pcg` hook hands the solver a proxy that forwards every
operation to the real matrix and only counts matrix-vector products.
"""
from __future__ import annotations

import math
import os
import statistics

TRAIN_STEP = "train:training_step"
CONDITIONAL_EVAL = "evaluate:conditional_eval"


def _plain(fn, args, kwargs, span):
    return fn(*args, **kwargs)


class CountingMatrix:
    """Forwards to a sparse matrix and counts the products taken with it."""

    def __init__(self, matrix):
        self.matrix = matrix
        self.products = 0

    def __matmul__(self, x):
        self.products += 1
        return self.matrix @ x

    def __getattr__(self, name):
        return getattr(self.matrix, name)


def _pcg(fn, args, kwargs, span):
    if not args:
        return fn(*args, **kwargs)
    counted = CountingMatrix(args[0])
    try:
        return fn(counted, *args[1:], **kwargs)
    finally:
        span.info = counted.products


def _conv_flops(kernel: str, args, out) -> int:
    """Multiply-adds x 2 of one conv kernel call, from its operand shapes."""
    if kernel == "_conv_fwd":      # (x, w, ...) -> out (N,K,OH,OW); w (K,C,kh,kw)
        return 2 * math.prod(out.shape) * math.prod(args[1].shape[1:])
    if kernel == "_conv_dx":       # (dout, w, ...); dout (N,K,OH,OW)
        return 2 * math.prod(args[0].shape) * math.prod(args[1].shape[1:])
    return 2 * math.prod(args[1].shape) * math.prod(out.shape[1:])  # _conv_dw -> (K,C,kh,kw)


def _conv(fn, args, kwargs, span):
    out = fn(*args, **kwargs)
    try:
        span.info = _conv_flops(span.name.partition(":")[2], args, out)
    except (AttributeError, IndexError, TypeError):
        span.info = None
    return out


def design_key(nelx, nely, volfrac, penal, rmin) -> str:
    return f"{nelx}x{nely}/v{volfrac:.3f}/p{penal:.2f}/r{rmin:.2f}"


def _run_simp(fn, args, kwargs, span):
    result = fn(*args, **kwargs)
    try:
        mesh, params = args[0], args[1]
        span.info = {
            "key": design_key(mesh.nelx, mesh.nely, params.volfrac, params.penal, params.rmin),
            "iterations": int(result.iterations),
            "converged": bool(result.converged),
            "compliance": float(result.compliance_history[-1]),
        }
    except (AttributeError, IndexError, TypeError):
        span.info = None
    return result


def _save_checkpoint(fn, args, kwargs, span):
    out = fn(*args, **kwargs)
    try:
        span.info = os.path.getsize(args[0])
    except (IndexError, OSError, TypeError):
        span.info = None
    return out


def _conditional_eval(fn, args, kwargs, span):
    report = fn(*args, **kwargs)
    span.info = getattr(report, "mean_abs_err", None)
    return report


HOOKS = {
    "fem:run_simp": _run_simp,
    "fem:assemble_and_solve": _plain,
    "fem:_pcg": _pcg,
    "fem:_element_energies": _plain,
    "fem:filter_sensitivities": _plain,
    "fem:oc_update": _plain,
    "autodiff:_conv_fwd": _conv,
    "autodiff:_conv_dx": _conv,
    "autodiff:_conv_dw": _conv,
    "autodiff:Tensor.backward": _plain,
    "autodiff:adam_step": _plain,
    "nets:Generator.forward": _plain,
    "nets:Discriminator.forward": _plain,
    "nets:minibatch_features": _plain,
    "train:_mismatch_conditions": _plain,
    "train:_mismatch_partners": _plain,
    TRAIN_STEP: _plain,
    "train:save_checkpoint": _save_checkpoint,
    "train:load_checkpoint": _plain,
    "train:sample": _plain,
    "data:sweep_generate": _plain,
    "data:augment_dataset": _plain,
    "data:write_dataset": _plain,
    "data:read_dataset": _plain,
    "data:postprocess": _plain,
    CONDITIONAL_EVAL: _conditional_eval,
    "evaluate:reanalyze": _plain,
}

CONV_KERNELS = ("autodiff:_conv_fwd", "autodiff:_conv_dx", "autodiff:_conv_dw")


def install(tracer, targets) -> None:
    for target in targets:
        tracer.instrument(target, HOOKS[target])


class View:
    """Aggregates over the spans of one traced run whose measured work took `wall_s`."""

    def __init__(self, tracer, wall_s: float):
        self.tracer = tracer
        self.wall_s = wall_s
        self.steps = tracer.indices(TRAIN_STEP)

    def spans(self, name):
        return [self.tracer.spans[i] for i in self.tracer.indices(name)]

    def median_ms(self, name, self_time=False) -> float:
        idx = self.tracer.indices(name)
        if not idx:
            return 0.0
        values = [self.tracer.self_time(i) if self_time else self.tracer.spans[i].duration
                  for i in idx]
        return 1e3 * statistics.median(values)

    def total_s(self, *names) -> float:
        return sum(span.duration for name in names for span in self.spans(name))

    def infos(self, name):
        return [span.info for span in self.spans(name) if span.info is not None]

    def in_steps(self, name):
        """Spans of `name` that ran inside a training step, by step."""
        by_step: dict[int, list] = {}
        for i in self.tracer.indices(name):
            step = self.tracer.ancestor(i, TRAIN_STEP)
            if step is not None:
                by_step.setdefault(step, []).append(self.tracer.spans[i])
        return by_step

    def per_step(self, value) -> float:
        return value / len(self.steps) if self.steps else 0.0

    def step_ms(self, *names) -> float:
        return self.per_step(1e3 * sum(
            span.duration for name in names for spans in self.in_steps(name).values()
            for span in spans))

    def backward_ms(self, position: int) -> float:
        """Per-step time of the step's first (D) or second (G) backward pass."""
        total = sum(spans[position].duration
                    for spans in self.in_steps("autodiff:Tensor.backward").values()
                    if len(spans) > position)
        return self.per_step(1e3 * total)

    def conv_gflop_per_step(self) -> float:
        flops = sum(span.info or 0 for name in CONV_KERNELS
                    for spans in self.in_steps(name).values() for span in spans)
        return self.per_step(flops / 1e9)

    def conv_share(self) -> float:
        step_s = self.total_s(TRAIN_STEP)
        return self.step_ms(*CONV_KERNELS) * len(self.steps) / 1e3 / step_s if step_s else 0.0

    def loads_per_eval(self) -> float:
        evals = self.tracer.indices(CONDITIONAL_EVAL)
        loads = [i for i in self.tracer.indices("train:load_checkpoint")
                 if self.tracer.ancestor(i, CONDITIONAL_EVAL) is not None]
        return len(loads) / len(evals) if evals else 0.0

    def mean_info(self, name) -> float:
        values = self.infos(name)
        return sum(values) / len(values) if values else 0.0


def _simp_iters(v):
    return sum(info["iterations"] for info in v.infos("fem:run_simp"))


def _converged_ratio(v):
    infos = v.infos("fem:run_simp")
    return sum(info["converged"] for info in infos) / len(infos) if infos else 0.0


def _checkpoint_mb(v):
    sizes = v.infos("train:save_checkpoint")
    return sizes[-1] / 1e6 if sizes else 0.0


# name, unit, entry points it needs (a tuple entry: any one of them), value
METRICS = [
    ("fem.solve_ms", "ms", ["fem:_pcg"], lambda v: v.median_ms("fem:_pcg")),
    ("fem.pcg_iters_per_solve", "count", ["fem:_pcg"],
     lambda v: v.mean_info("fem:_pcg")),
    ("fem.solve_share", "ratio", ["fem:_pcg"],
     lambda v: v.total_s("fem:_pcg") / v.wall_s),
    ("fem.assemble_ms", "ms", ["fem:assemble_and_solve", "fem:_pcg"],
     lambda v: v.median_ms("fem:assemble_and_solve", self_time=True)),
    ("fem.energy_ms", "ms", ["fem:_element_energies"],
     lambda v: v.median_ms("fem:_element_energies")),
    ("fem.filter_ms", "ms", ["fem:filter_sensitivities"],
     lambda v: v.median_ms("fem:filter_sensitivities")),
    ("fem.oc_update_ms", "ms", ["fem:oc_update"],
     lambda v: v.median_ms("fem:oc_update")),
    ("fem.simp_iters", "count", ["fem:run_simp"], _simp_iters),
    ("fem.converged_ratio", "ratio", ["fem:run_simp"], _converged_ratio),
    ("autodiff.conv_fwd_ms", "ms", [TRAIN_STEP, "autodiff:_conv_fwd"],
     lambda v: v.step_ms("autodiff:_conv_fwd")),
    ("autodiff.conv_dx_ms", "ms", [TRAIN_STEP, "autodiff:_conv_dx"],
     lambda v: v.step_ms("autodiff:_conv_dx")),
    ("autodiff.conv_dw_ms", "ms", [TRAIN_STEP, "autodiff:_conv_dw"],
     lambda v: v.step_ms("autodiff:_conv_dw")),
    ("autodiff.conv_share", "ratio", [TRAIN_STEP, *CONV_KERNELS],
     lambda v: v.conv_share()),
    ("autodiff.conv_gflop_per_step", "GFLOP", [TRAIN_STEP, *CONV_KERNELS],
     lambda v: v.conv_gflop_per_step()),
    ("autodiff.backward_d_ms", "ms", [TRAIN_STEP, "autodiff:Tensor.backward"],
     lambda v: v.backward_ms(0)),
    ("autodiff.backward_g_ms", "ms", [TRAIN_STEP, "autodiff:Tensor.backward"],
     lambda v: v.backward_ms(1)),
    ("autodiff.adam_ms", "ms", [TRAIN_STEP, "autodiff:adam_step"],
     lambda v: v.step_ms("autodiff:adam_step")),
    ("nets.gen_forward_ms", "ms", [TRAIN_STEP, "nets:Generator.forward"],
     lambda v: v.step_ms("nets:Generator.forward")),
    ("nets.disc_forward_ms", "ms", [TRAIN_STEP, "nets:Discriminator.forward"],
     lambda v: v.step_ms("nets:Discriminator.forward")),
    ("nets.disc_forwards_per_step", "count",
     [TRAIN_STEP, "nets:Discriminator.forward"],
     lambda v: v.per_step(sum(map(len, v.in_steps("nets:Discriminator.forward").values())))),
    ("nets.minibatch_ms", "ms", [TRAIN_STEP, "nets:minibatch_features"],
     lambda v: v.step_ms("nets:minibatch_features")),
    ("objectives.mismatch_draw_ms", "ms",
     [TRAIN_STEP, ("train:_mismatch_conditions", "train:_mismatch_partners")],
     lambda v: v.step_ms("train:_mismatch_conditions", "train:_mismatch_partners")),
    ("train.save_checkpoint_ms", "ms", ["train:save_checkpoint"],
     lambda v: v.median_ms("train:save_checkpoint")),
    ("train.checkpoint_mb", "MB", ["train:save_checkpoint"], _checkpoint_mb),
    ("train.load_checkpoint_ms", "ms", ["train:load_checkpoint"],
     lambda v: v.median_ms("train:load_checkpoint")),
    ("train.checkpoint_loads_per_eval", "count",
     ["train:load_checkpoint", CONDITIONAL_EVAL], lambda v: v.loads_per_eval()),
    ("data.sweep_generate_s", "s", ["data:sweep_generate"],
     lambda v: v.median_ms("data:sweep_generate") / 1e3),
    ("data.augment_ms", "ms", ["data:augment_dataset"],
     lambda v: v.median_ms("data:augment_dataset")),
    ("data.write_dataset_ms", "ms", ["data:write_dataset"],
     lambda v: v.median_ms("data:write_dataset")),
    ("data.read_dataset_ms", "ms", ["data:read_dataset"],
     lambda v: v.median_ms("data:read_dataset")),
    ("data.postprocess_ms", "ms", ["data:postprocess"],
     lambda v: v.median_ms("data:postprocess")),
    ("evaluate.conditional_eval_ms", "ms", [CONDITIONAL_EVAL],
     lambda v: v.median_ms(CONDITIONAL_EVAL)),
    ("evaluate.reanalyze_ms", "ms", ["evaluate:reanalyze"],
     lambda v: v.median_ms("evaluate:reanalyze")),
    ("evaluate.sample_ms", "ms", ["train:sample"],
     lambda v: v.median_ms("train:sample")),
    ("evaluate.fidelity_mae", "vf", [CONDITIONAL_EVAL],
     lambda v: v.mean_info(CONDITIONAL_EVAL)),
]


def derive(tracer, wall_s: float) -> tuple[dict, list[str]]:
    """Per-layer metrics {name: {"value", "unit"}} and the names left absent."""
    missing = set(tracer.missing)
    view = View(tracer, wall_s)
    metrics, absent = {}, []
    for name, unit, needs, value in METRICS:
        if any(all(t in missing for t in need) if isinstance(need, tuple) else need in missing
               for need in needs):
            absent.append(name)
            continue
        metrics[name] = {"value": float(value(view)), "unit": unit}
    return metrics, absent


def self_time_table(tracer) -> list[dict]:
    """Calls, total and self seconds per span name, largest self time first."""
    rows: dict[str, dict] = {}
    for i, span in enumerate(tracer.spans):
        row = rows.setdefault(span.name, {"name": span.name, "calls": 0,
                                          "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span.duration
        row["self_s"] += tracer.self_time(i)
    return sorted(rows.values(), key=lambda r: -r["self_s"])
