"""Conditional-fidelity evaluation and FEM re-analysis of generated images.

Quantifies how well generated structures honor their volume-fraction
condition: sample at a fixed condition, post-process, measure pixel means,
and aggregate the absolute errors against the target. Re-analysis treats a
post-processed image as a density field clipped to [fem.X_MIN, 1] on the
cantilever of the training sweeps and reports its compliance at the SIMP
penalty REANALYSIS_PENAL.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .data import KIND_CLASS, class_target_fraction, postprocess
from .exceptions import DimensionError, ParameterError
from .fem import (
    X_MIN,
    BoundaryConditions,
    DensityField,
    MeshSpec,
    assemble_and_solve,
    compliance,
)
from .train import generator_from_checkpoint, sample

REANALYSIS_PENAL = 3.0


def measure_volfrac(image: np.ndarray) -> float:
    """Volume fraction of an image: the mean pixel value."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise DimensionError(f"expected a 2D image, got shape {image.shape}")
    return float(image.mean())


@dataclass
class EvalReport:
    target: float
    count: int
    mean_vf: float
    mean_abs_err: float
    std_abs_err: float
    frac_within_tol: float
    per_sample: list[float]
    checkpoint: str
    seed: int
    objective: str = ""
    per_sample_compliance: list[float] | None = None

    def to_dict(self) -> dict:
        """The fields in declaration order; per_sample_compliance only when set."""
        out = asdict(self)
        if self.per_sample_compliance is None:
            del out["per_sample_compliance"]
        return out


def conditional_eval(checkpoint_path, condition, count: int, tolerance: float,
                     seed: int, reanalyze_compliance: bool = False) -> EvalReport:
    """Sample at `condition`, post-process, and measure volume-fraction fidelity.

    The target is the condition itself for continuous conditions, or the
    class's known fill fraction for the synthetic class datasets. An empty
    evaluation has no error to average: `count` must be >= 1.
    """
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    if not 0.0 <= tolerance < np.inf:   # NaN included
        raise ParameterError(f"tolerance must be finite and >= 0, got {tolerance}")
    gen, config = generator_from_checkpoint(checkpoint_path)
    if gen.data["kind"] == KIND_CLASS:
        target = class_target_fraction(int(condition), gen.data["cardinality"])
    else:
        target = float(condition)
    processed = [postprocess(img) for img in sample(gen, condition, count, seed)]
    measured = [measure_volfrac(img) for img in processed]
    errs = np.abs(np.asarray(measured) - target)
    compliances = None
    if reanalyze_compliance:
        compliances = [reanalyze(img) for img in processed]
    return EvalReport(
        target=target,
        count=count,
        mean_vf=float(np.mean(measured)),
        mean_abs_err=float(errs.mean()),
        std_abs_err=float(errs.std()),
        frac_within_tol=float((errs <= tolerance).mean()),
        per_sample=[float(v) for v in measured],
        checkpoint=str(checkpoint_path),
        seed=seed,
        objective=config.objective,
        per_sample_compliance=compliances,
    )


def reanalyze(image: np.ndarray) -> float:
    """Compliance of an image treated as a density field on a matching cantilever mesh."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise DimensionError(f"expected a 2D image, got shape {image.shape}")
    nely, nelx = image.shape
    mesh = MeshSpec(nelx=nelx, nely=nely)
    density = DensityField(np.clip(image, X_MIN, 1.0))
    u = assemble_and_solve(density, REANALYSIS_PENAL, mesh, BoundaryConditions.cantilever(mesh))
    return compliance(density, u, REANALYSIS_PENAL, mesh)
