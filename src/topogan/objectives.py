"""Adversarial losses over discriminator scores, one function per player.

The discriminator minimizes `discriminator_loss`

    -E[log D(x, y)] - E[log(1 - D(x, y2))] - E[log(1 - D(G(z, y), y))]

and the generator minimizes `generator_loss`, the non-saturating
-E[log D(G(z, y), y)] of Goodfellow et al. 2014. The middle term, the
matching-aware term of GAN-CLS (Reed et al. 2016), scores real images paired
with a wrong condition; the loss has it exactly when it is given mismatched
scores. The objectives differ only in the mismatched pair that the training
step draws, if any (`train.OBJECTIVES`), and `mismatched` is the one rule for
when two conditions of a domain, given as its cardinality (0: continuous),
differ. Every log is `autodiff.log_clamped`, floored at `autodiff.LOG_FLOOR`.
"""
from __future__ import annotations

from .autodiff import Tensor, log_clamped, mean
from .exceptions import DimensionError, ParameterError

MISMATCH_MARGIN = 0.05
# float32 rounding, far below any grid spacing: TOPD stores conditions as "<f4",
# where 0.35 - 0.30 is 0.04999998
ROUNDING_ALLOWANCE = 1e-6


def _scores(scores, name: str, like: Tensor | None = None) -> Tensor:
    """`scores` as a Tensor: a nonempty batch in [0, 1], as large as `like`."""
    t = scores if isinstance(scores, Tensor) else Tensor(scores)
    if t.data.size == 0:
        raise DimensionError(f"{name}: empty score batch")
    if not (t.data.min() >= 0.0 and t.data.max() <= 1.0):   # NaN fails both
        raise ParameterError(f"{name}: scores must lie in [0, 1]")
    if like is not None and t.data.shape != like.data.shape:
        raise DimensionError("score groups must share the batch size")
    return t


def discriminator_loss(real, fake, mismatched=None) -> Tensor:
    """D's loss from its scores of real, generated and, when given, mismatched inputs."""
    real = _scores(real, "real")
    fake = _scores(fake, "fake", like=real)
    d_loss = -mean(log_clamped(real))
    if mismatched is not None:
        mismatched = _scores(mismatched, "mismatched", like=real)
        d_loss = d_loss - mean(log_clamped(1.0 - mismatched))
    return d_loss - mean(log_clamped(1.0 - fake))


def generator_loss(fake) -> Tensor:
    """G's non-saturating loss from D's scores of its images; the same for every objective."""
    return -mean(log_clamped(_scores(fake, "fake")))


def mismatched(y1, y2, cardinality: int):
    """Whether conditions y1 and y2 (scalars or arrays) of a domain mismatch, elementwise.

    Class labels (cardinality >= 1) mismatch when they differ, continuous values
    (cardinality 0) when they lie at least MISMATCH_MARGIN apart, less ROUNDING_ALLOWANCE.
    """
    return y1 != y2 if cardinality else abs(y1 - y2) >= MISMATCH_MARGIN - ROUNDING_ALLOWANCE
