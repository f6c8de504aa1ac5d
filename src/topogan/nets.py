"""Generator and discriminator networks with condition injection.

Both are small conv stacks: the generator projects noise+condition to a
(H/4, W/4) feature map and upsamples twice with transposed convolutions;
the discriminator downsamples twice, extracts a dense feature vector, and
optionally appends batch-similarity features that let it see the whole
minibatch at once (the standard countermeasure against generator collapse).

The condition reaches G as its encoded vector, concatenated to the noise.
D sees it as cond_dim constant planes stacked under the image, so conv1.w
has 1 + cond_dim input channels; `autodiff.conv2d_planes` applies those
taps to the encoded vector directly and never builds the planes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import KIND_CLASS, condition_dim
from .exceptions import DomainError, SpecError

WEIGHT_STD = 0.02
SCORE_EPS = 1e-12

def encode_condition_vector(values, kind: str, cardinality: int = 0) -> np.ndarray:
    """(N,) raw condition values -> (N, cond_dim) dense encoding (one-hot or scalar)."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    dim = condition_dim(kind, cardinality, SpecError)
    if kind == KIND_CLASS:
        idx = values.astype(np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= cardinality):
            raise DomainError(f"class index outside 0..{cardinality - 1}")
        out = np.zeros((values.size, dim))
        out[np.arange(values.size), idx] = 1.0
        return out
    if values.size and (values.min() < 0.0 or values.max() > 1.0):
        raise DomainError("continuous conditions must lie in [0, 1]")
    return values[:, None].copy()


@dataclass(frozen=True)
class GeneratorSpec:
    out_h: int
    out_w: int
    z_dim: int = 64
    condition_kind: str = KIND_CLASS
    condition_cardinality: int = 0
    channels: tuple[int, int] = (128, 64)
    leaky_slope: float = 0.2

    def __post_init__(self):
        condition_dim(self.condition_kind, self.condition_cardinality, SpecError)
        if self.z_dim < 1:
            raise SpecError(f"z_dim must be >= 1, got {self.z_dim}")
        if self.out_h % 4 or self.out_w % 4:
            raise SpecError(
                f"output {self.out_h}x{self.out_w} must be divisible by 4 "
                "(two 2x upsampling stages)"
            )
        if len(self.channels) != 2 or min(self.channels) < 1:
            raise SpecError(f"channel plan must be two positive ints, got {self.channels}")

    @property
    def cond_dim(self) -> int:
        return condition_dim(self.condition_kind, self.condition_cardinality, SpecError)


@dataclass(frozen=True)
class DiscriminatorSpec:
    in_h: int
    in_w: int
    condition_kind: str = KIND_CLASS
    condition_cardinality: int = 0
    channels: tuple[int, int] = (32, 64)
    feature_dim: int = 64
    minibatch: bool = True
    minibatch_kernels: int = 32   # B
    minibatch_dim: int = 8        # C
    leaky_slope: float = 0.2

    def __post_init__(self):
        condition_dim(self.condition_kind, self.condition_cardinality, SpecError)
        if self.in_h % 4 or self.in_w % 4:
            raise SpecError(
                f"input {self.in_h}x{self.in_w} must be divisible by 4 "
                "(two 2x downsampling stages)"
            )
        if len(self.channels) != 2 or min(self.channels) < 1:
            raise SpecError(f"channel plan must be two positive ints, got {self.channels}")
        if self.feature_dim < 1:
            raise SpecError("feature_dim must be >= 1")
        if self.minibatch and (self.minibatch_kernels < 1 or self.minibatch_dim < 1):
            raise SpecError("minibatch feature dims must be >= 1")

    @property
    def cond_dim(self) -> int:
        return condition_dim(self.condition_kind, self.condition_cardinality, SpecError)


def minibatch_features(f: Tensor, T: Tensor) -> Tensor:
    """Batch-similarity features o(i)_b = sum_{j != i} exp(-||M_i,b - M_j,b||_1).

    M_i = f_i . T maps each sample's feature row through the learned (A,B,C)
    tensor; the output row counts (softly) how close the sample sits to the
    rest of its batch in each of the B projected spaces.
    """
    f = f if isinstance(f, Tensor) else Tensor(f)
    T = T if isinstance(T, Tensor) else Tensor(T)
    if f.data.ndim != 2 or T.data.ndim != 3 or f.data.shape[1] != T.data.shape[0]:
        raise SpecError(
            f"minibatch_features needs f (N,A) and T (A,B,C), got {f.shape} and {T.shape}"
        )
    n, a = f.data.shape
    _, b, c = T.data.shape
    t_flat = T.data.reshape(a, b * c)
    m = (f.data @ t_flat).reshape(n, b, c)
    diffs = m[:, None, :, :] - m[None, :, :, :]
    sign = np.sign(diffs)
    e = np.exp(-np.abs(diffs).sum(axis=3))   # (N, N, B), e_ii = 1
    out = e.sum(axis=1) - 1.0                # exclude self

    def backward_m(g: np.ndarray) -> np.ndarray:
        # dL/dM_ibc = -sum_j e_ijb s_ijbc (g_ib + g_jb); s_iib = 0 kills j = i
        w = e * (g[:, None, :] + g[None, :, :])
        return -(w[:, :, :, None] * sign).sum(axis=1)

    return Tensor._result(out, [
        (f, lambda g: backward_m(g).reshape(n, b * c) @ t_flat.T),
        (T, lambda g: (f.data.T @ backward_m(g).reshape(n, b * c)).reshape(a, b, c)),
    ])


class Generator:
    """Noise + condition -> image in [0,1], shape (N, 1, H, W)."""

    def __init__(self, spec: GeneratorSpec, seed: int):
        self.spec = spec
        rng = np.random.default_rng(seed)
        c0, c1 = spec.channels
        self.h0, self.w0 = spec.out_h // 4, spec.out_w // 4
        proj = c0 * self.h0 * self.w0

        def weight(*shape):
            return Tensor(rng.normal(0.0, WEIGHT_STD, size=shape), requires_grad=True)

        def zeros(*shape):
            return Tensor(np.zeros(shape), requires_grad=True)

        self._params = {
            "dense.w": weight(spec.z_dim + spec.cond_dim, proj),
            "dense.b": zeros(proj),
            "up1.w": weight(c0, c1, 4, 4),
            "up1.b": zeros(1, c1, 1, 1),
            "up2.w": weight(c1, 1, 4, 4),
            "up2.b": zeros(1, 1, 1, 1),
        }

    def params(self) -> dict[str, Tensor]:
        return self._params

    def forward(self, z, condition_values) -> Tensor:
        spec = self.spec
        z = z if isinstance(z, Tensor) else Tensor(z)
        if z.data.ndim != 2 or z.data.shape[1] != spec.z_dim:
            raise SpecError(f"noise must be (N, {spec.z_dim}), got {z.shape}")
        cond = Tensor(encode_condition_vector(
            condition_values, spec.condition_kind, spec.condition_cardinality))
        if cond.data.shape[0] != z.data.shape[0]:
            raise SpecError("noise and condition batch sizes differ")
        p = self._params
        h = ad.concat([z, cond], axis=1) @ p["dense.w"] + p["dense.b"]
        h = ad.leaky_relu(h, spec.leaky_slope)
        h = h.reshape(z.data.shape[0], spec.channels[0], self.h0, self.w0)
        h = ad.conv_transpose2d(h, p["up1.w"], stride=2, padding=1) + p["up1.b"]
        h = ad.leaky_relu(h, spec.leaky_slope)
        h = ad.conv_transpose2d(h, p["up2.w"], stride=2, padding=1) + p["up2.b"]
        return ad.sigmoid(h)


class Discriminator:
    """Image + condition -> score in (0,1) per sample, shape (N,)."""

    def __init__(self, spec: DiscriminatorSpec, seed: int):
        self.spec = spec
        rng = np.random.default_rng(seed)
        c1, c2 = spec.channels
        flat = c2 * (spec.in_h // 4) * (spec.in_w // 4)
        head_in = spec.feature_dim + (spec.minibatch_kernels if spec.minibatch else 0)

        def weight(*shape):
            return Tensor(rng.normal(0.0, WEIGHT_STD, size=shape), requires_grad=True)

        def zeros(*shape):
            return Tensor(np.zeros(shape), requires_grad=True)

        self._params = {
            "conv1.w": weight(c1, 1 + spec.cond_dim, 4, 4),
            "conv1.b": zeros(1, c1, 1, 1),
            "conv2.w": weight(c2, c1, 4, 4),
            "conv2.b": zeros(1, c2, 1, 1),
            "feat.w": weight(flat, spec.feature_dim),
            "feat.b": zeros(spec.feature_dim),
            "head.w": weight(head_in, 1),
            "head.b": zeros(1),
        }
        if spec.minibatch:
            self._params["minibatch.T"] = weight(
                spec.feature_dim, spec.minibatch_kernels, spec.minibatch_dim)

    def params(self) -> dict[str, Tensor]:
        return self._params

    def features(self, x, condition_values) -> Tensor:
        """Per-sample dense features (before any batch mixing), shape (N, A)."""
        spec = self.spec
        x = x if isinstance(x, Tensor) else Tensor(x)
        if x.data.ndim != 4 or x.data.shape[1] != 1 or \
                x.data.shape[2:] != (spec.in_h, spec.in_w):
            raise SpecError(
                f"input must be (N, 1, {spec.in_h}, {spec.in_w}), got {x.shape}")
        n = x.data.shape[0]
        cond = encode_condition_vector(
            condition_values, spec.condition_kind, spec.condition_cardinality)
        if cond.shape[0] != n:
            raise SpecError("image and condition batch sizes differ")
        p = self._params
        h = ad.conv2d_planes(x, cond, p["conv1.w"], stride=2, padding=1) + p["conv1.b"]
        h = ad.leaky_relu(h, spec.leaky_slope)
        h = ad.conv2d(h, p["conv2.w"], stride=2, padding=1) + p["conv2.b"]
        h = ad.leaky_relu(h, spec.leaky_slope)
        h = h.reshape(n, p["feat.w"].data.shape[0])
        h = h @ p["feat.w"] + p["feat.b"]
        return ad.leaky_relu(h, spec.leaky_slope)

    def forward(self, x, condition_values) -> Tensor:
        spec = self.spec
        f = self.features(x, condition_values)
        p = self._params
        if spec.minibatch:
            o = minibatch_features(f, p["minibatch.T"])
            f = ad.concat([f, o], axis=1)
        logit = f @ p["head.w"] + p["head.b"]
        score = ad.sigmoid(logit)
        score = ad.clamp(score, SCORE_EPS, 1.0 - SCORE_EPS)
        return score.reshape(f.data.shape[0])

