"""Adversarial objectives over discriminator score batches.

One loss formula serves every objective. The discriminator minimizes

    d_loss = -E[log D(x, y)] - w E[log(1 - D(x, y2))] - E[log(1 - D(G(z, y), y))]

and the generator minimizes -E[log D(G(z, y), y)] (non-saturating) or
E[log(1 - D(G(z, y), y))]. The middle term, the matching-aware term of
GAN-CLS (Reed et al. 2016), scores real images paired with a wrong
condition; it is present exactly when the objective needs mismatched scores.
The registry maps each objective name to that need: `gan` and `cgan` use two
terms (conditioning happens upstream, in how the scores were produced),
`crcgan-a` (a random wrong condition y2 for the same image) and `crcgan-b`
(a second real image whose true condition differs from y) use three. The
variants differ only in how the training step builds the mismatched
scores. All logs carry the global 1e-12 floor clamp.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, log_clamped, mean
from .data import KIND_CLASS, condition_dim
from .exceptions import ContractError, DomainError

MISMATCH_MARGIN = 0.05
_MAX_RESAMPLES = 10_000


@dataclass
class ScoreBatch:
    """Discriminator outputs for the three input groups an objective may use."""

    d_real_matched: Tensor
    d_fake: Tensor
    d_real_mismatched: Tensor | None = None

    def __post_init__(self):
        self.d_real_matched = _as_score_tensor(self.d_real_matched, "d_real_matched")
        self.d_fake = _as_score_tensor(self.d_fake, "d_fake")
        if self.d_real_mismatched is not None:
            self.d_real_mismatched = _as_score_tensor(
                self.d_real_mismatched, "d_real_mismatched")
            if self.d_real_mismatched.data.shape != self.d_real_matched.data.shape:
                raise ContractError("score groups must share the batch size")
        if self.d_fake.data.shape != self.d_real_matched.data.shape:
            raise ContractError("score groups must share the batch size")


def _as_score_tensor(scores, name: str) -> Tensor:
    t = scores if isinstance(scores, Tensor) else Tensor(scores)
    if t.data.size == 0:
        raise ContractError(f"{name}: empty score batch")
    if t.data.min() < 0.0 or t.data.max() > 1.0:
        raise ContractError(f"{name}: scores must lie in [0, 1]")
    return t


# objective name -> whether its loss needs mismatched real scores
OBJECTIVES = {"gan": False, "cgan": False, "crcgan-a": True, "crcgan-b": True}


def objective_names() -> list[str]:
    return list(OBJECTIVES)


def needs_mismatch(objective: str) -> bool:
    try:
        return OBJECTIVES[objective]
    except KeyError:
        raise DomainError(
            f"unknown objective '{objective}' (choose from {', '.join(OBJECTIVES)})"
        ) from None


def losses(objective: str, scores: ScoreBatch, non_saturating: bool = False,
           mismatch_weight: float = 1.0) -> tuple[Tensor, Tensor]:
    """(d_loss, g_loss) of `objective`; the mismatch term enters only d_loss."""
    needed = needs_mismatch(objective)
    if needed != (scores.d_real_mismatched is not None):
        raise ContractError(f"objective '{objective}' "
                            f"{'needs' if needed else 'takes no'} mismatched real scores")
    d_loss = -mean(log_clamped(scores.d_real_matched))
    if scores.d_real_mismatched is not None:
        d_loss = d_loss - mismatch_weight * mean(log_clamped(1.0 - scores.d_real_mismatched))
    d_loss = d_loss - mean(log_clamped(1.0 - scores.d_fake))
    if non_saturating:
        return d_loss, -mean(log_clamped(scores.d_fake))
    return d_loss, mean(log_clamped(1.0 - scores.d_fake))


# ---------------------------------------------------------------------------
# mismatched-condition sampling

@dataclass
class ConditionSampler:
    """Uniform condition distribution, discrete labels or a continuous range."""

    kind: str  # KIND_CLASS or KIND_CONTINUOUS
    cardinality: int = 0
    low: float = 0.0
    high: float = 1.0
    margin: float = MISMATCH_MARGIN

    def __post_init__(self):
        condition_dim(self.kind, self.cardinality, DomainError)
        if self.kind != KIND_CLASS and not (self.low < self.high):
            raise DomainError("continuous sampler needs low < high")


def sample_mismatched_condition(y1: float, sampler: ConditionSampler,
                                rng: np.random.Generator):
    """Draw y2 from the sampler's distribution with `rng`, resampling until it mismatches y1.

    Class labels: y2 != y1; continuous values: |y2 - y1| >= margin.
    Deterministic given the state of `rng`.
    """
    if sampler.kind == KIND_CLASS:
        if sampler.cardinality < 2:
            raise DomainError("no mismatched label exists with cardinality 1")
        for _ in range(_MAX_RESAMPLES):
            y2 = int(rng.integers(0, sampler.cardinality))
            if y2 != int(y1):
                return y2
    else:
        for _ in range(_MAX_RESAMPLES):
            y2 = float(rng.uniform(sampler.low, sampler.high))
            if abs(y2 - y1) >= sampler.margin:
                return y2
    raise DomainError("could not draw a mismatched condition (domain too tight)")
