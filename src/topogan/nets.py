"""Generator and discriminator networks with condition injection.

Both are small conv stacks: the generator projects noise+condition to a
(H/4, W/4) feature map and upsamples twice with transposed convolutions;
the discriminator downsamples twice, extracts a dense feature vector, and
optionally appends batch-similarity features that let it see the whole
minibatch at once (the standard countermeasure against generator collapse).

Both are built from a run's `train.TrainConfig`, whose network fields they
read, and the shape of its data, the {height, width, cardinality} dict, with
cardinality 0 for continuous conditions (`data.condition_dim`).
`generator_shapes` and `discriminator_shapes` give their parameter shapes and
raise ParameterError for a data shape the nets cannot use (the config checks
its own fields). A misshapen input, noise or batch raises DimensionError.

The condition reaches G as its encoded vector, concatenated to the noise.
D sees it as cond_dim constant planes stacked under the image, so conv1.w
has 1 + cond_dim input channels; `autodiff.conv2d` takes the encoded vector
as its `planes`, applies those taps to it directly and never builds the
planes. D's score is its head's sigmoid, unclamped: the losses floor every
log at `autodiff.LOG_FLOOR`.

Both networks take and return (N, ...) arrays, but their conv stacks run in
the (C, H, W, N) layout of `autodiff`. G transposes its dense output,
reshaped to (N, c0, h0, w0), into (c0, h0, w0, N), and its (1, H, W, N)
image back to (N, 1, H, W). D transposes its (N, 1, H, W) input, and its
last conv map, flattened to (c2*h*w, N), back to (N, c2*h*w), so feat.w keeps
its (c, h, w) row order. Each layer hands its bias to its op
(`autodiff.linear`, or the conv ops' `bias`), which adds it into the layer's
output; parameters keep their stored shapes, conv biases (1, C, 1, 1) included.
"""
from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import check_conditions, condition_dim
from .exceptions import DimensionError, ParameterError
from .fem import check_int

WEIGHT_STD = 0.02
# float64 values in one (kernels, N, N) block of the minibatch distance loop,
# so that a block and its scratch (1 MiB together) stay in a 2 MiB L2 cache; at
# N=64, B=32, C=8 on such a Xeon this ran 1.6x faster than a single block
DIST_BLOCK_VALUES = 1 << 16

def encode_condition_vector(values, cardinality: int) -> np.ndarray:
    """(N,) raw condition values -> (N, cond_dim) dense encoding (one-hot or scalar).

    Values that fail `data.check_conditions`, or a bad cardinality, raise ParameterError.
    """
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    dim = check_conditions(values, cardinality)
    if cardinality:
        out = np.zeros((values.size, dim))
        out[np.arange(values.size), values.astype(np.int64)] = 1.0
        return out
    return values[:, None].copy()


def _image_dims(data: dict) -> tuple[int, int, int]:
    """(height, width, cond_dim) of a data shape, or ParameterError."""
    cond_dim = condition_dim(data["cardinality"])
    h, w = data["height"], data["width"]
    check_int("height", h, 4)
    check_int("width", w, 4)
    if h % 4 or w % 4:
        raise ParameterError(f"images {h}x{w} must be multiples of 4 (two 2x resampling stages)")
    return h, w, cond_dim


def generator_shapes(config, data: dict) -> dict[str, tuple[int, ...]]:
    """G's parameter shapes in init order, from a TrainConfig and a checked data shape."""
    h, w, cond_dim = _image_dims(data)
    c0, c1 = config.gen_channels
    proj = c0 * (h // 4) * (w // 4)
    return {
        "dense.w": (config.z_dim + cond_dim, proj),
        "dense.b": (proj,),
        "up1.w": (c0, c1, 4, 4),
        "up1.b": (1, c1, 1, 1),
        "up2.w": (c1, 1, 4, 4),
        "up2.b": (1, 1, 1, 1),
    }


def discriminator_shapes(config, data: dict) -> dict[str, tuple[int, ...]]:
    """D's parameter shapes in init order, from a TrainConfig and a checked data shape."""
    h, w, cond_dim = _image_dims(data)
    c1, c2 = config.disc_channels
    a = config.feature_dim
    minibatch = config.minibatch_discrimination
    shapes = {
        "conv1.w": (c1, 1 + cond_dim, 4, 4),
        "conv1.b": (1, c1, 1, 1),
        "conv2.w": (c2, c1, 4, 4),
        "conv2.b": (1, c2, 1, 1),
        "feat.w": (c2 * (h // 4) * (w // 4), a),
        "feat.b": (a,),
        "head.w": (a + (config.minibatch_kernels if minibatch else 0), 1),
        "head.b": (1,),
    }
    if minibatch:
        shapes["minibatch.T"] = (a, config.minibatch_kernels, config.minibatch_dim)
    return shapes


def _init_params(shapes: dict[str, tuple[int, ...]], seed) -> dict[str, Tensor]:
    """Trainable parameters: biases (".b") at zero, the rest from N(0, WEIGHT_STD^2).

    Weights are drawn in the order of `shapes`, so a seed gives the same values
    as long as that order holds.
    """
    rng = np.random.default_rng(seed)
    return {name: Tensor(np.zeros(shape) if name.endswith(".b")
                         else rng.normal(0.0, WEIGHT_STD, size=shape), requires_grad=True)
            for name, shape in shapes.items()}


class _Network:
    """What both networks share: the run's config and data shape, and the
    parameters of the shapes that the class's `_shapes` gives for them."""

    def __init__(self, config, data: dict, seed: int):
        self.config, self.data = config, data
        self._params = _init_params(self._shapes(config, data), seed)

    @classmethod
    def _undrawn(cls, config, data: dict):
        """A network whose parameters are left uninitialised (np.empty), for a
        checkpoint load that overwrites every one of them: no weight is drawn."""
        net = cls.__new__(cls)
        net.config, net.data = config, data
        net._params = {name: Tensor(np.empty(shape), requires_grad=True)
                       for name, shape in cls._shapes(config, data).items()}
        return net

    def params(self) -> dict[str, Tensor]:
        return self._params


def minibatch_features(f: Tensor, T: Tensor) -> Tensor:
    """Batch-similarity features o(i)_b = sum_{j != i} exp(-||M_i,b - M_j,b||_1).

    M_i = f_i . T maps each sample's feature row through the learned (A,B,C)
    tensor; the output row counts (softly) how close the sample sits to the
    rest of its batch in each of the B projected spaces. M is one linear node,
    so the pairwise backward below runs once per call whichever of f and T
    need a gradient. The largest arrays are (B, N, N): the forward sums the
    L1 distances per kernel b one C slice at a time, and the backward
    recomputes the signs of the differences the same way instead of keeping
    them.
    """
    f = f if isinstance(f, Tensor) else Tensor(f)
    T = T if isinstance(T, Tensor) else Tensor(T)
    if f.data.ndim != 2 or T.data.ndim != 3 or f.data.shape[1] != T.data.shape[0]:
        raise DimensionError(
            f"minibatch_features needs f (N,A) and T (A,B,C), got {f.shape} and {T.shape}"
        )
    n, a = f.data.shape
    _, b, c = T.data.shape
    m = ad.linear(f, T.reshape(a, b * c))
    mt = np.ascontiguousarray(m.data.reshape(n, b, c).transpose(1, 2, 0))  # (B, C, N)
    # L1 distances summed left to right over C, a block of kernels at a time
    dist = np.zeros((b, n, n))
    step = max(1, DIST_BLOCK_VALUES // (n * n))
    d = np.empty((min(step, b), n, n))
    for s in range(0, b, step):
        block, ms = dist[s:s + step], mt[s:s + step]
        scratch = d[:block.shape[0]]
        for k in range(c):
            np.subtract(ms[:, k, :, None], ms[:, k, None, :], out=scratch)
            block += np.abs(scratch, out=scratch)
    e = np.exp(np.negative(dist, out=dist), out=dist)   # (B, N, N), e_bii = 1
    out = e.sum(axis=2).T - 1.0                         # exclude self

    def backward_m(g: np.ndarray) -> np.ndarray:
        # dL/dM_ibk = -sum_j w_bij s_bijk with w_bij = e_bij (g_ib + g_jb) and
        # s_bijk = sign(M_ibk - M_jbk) = gt_bijk - gt_bjik, gt = [M_ibk > M_jbk].
        # w is symmetric in (i, j), so with P = w * gt the sum is
        # colsum(P) - rowsum(P); ties, i = j included, give gt = 0 both ways.
        gb = np.ascontiguousarray(g.T)
        w = e * (gb[:, :, None] + gb[:, None, :])
        p = np.empty((b, n, n))
        ones = np.ones(n)
        dm = np.empty((n, b, c))
        for k in range(c):
            np.greater(mt[:, k, :, None], mt[:, k, None, :], out=p)
            p *= w
            dm[:, :, k] = (ones @ p - p @ ones).T
        return dm.reshape(n, b * c)

    return Tensor._result(out, [(m, backward_m)])


class Generator(_Network):
    """Noise + condition -> image in [0,1], shape (N, 1, H, W)."""

    _shapes = staticmethod(generator_shapes)

    def forward(self, z, condition_values) -> Tensor:
        z_dim, data = self.config.z_dim, self.data
        z = z if isinstance(z, Tensor) else Tensor(z)
        if z.data.ndim != 2 or z.data.shape[1] != z_dim:
            raise DimensionError(f"noise must be (N, {z_dim}), got {z.shape}")
        cond = Tensor(encode_condition_vector(condition_values, data["cardinality"]))
        if cond.data.shape[0] != z.data.shape[0]:
            raise DimensionError("noise and condition batch sizes differ")
        p = self._params
        h = ad.linear(ad.concat([z, cond], axis=1), p["dense.w"], p["dense.b"])
        h = ad.leaky_relu(h)
        h = h.reshape(z.data.shape[0], -1, data["height"] // 4, data["width"] // 4)
        h = ad.transpose(h, (1, 2, 3, 0))
        h = ad.conv_transpose2d(h, p["up1.w"], stride=2, padding=1, bias=p["up1.b"])
        h = ad.leaky_relu(h)
        h = ad.conv_transpose2d(h, p["up2.w"], stride=2, padding=1, bias=p["up2.b"])
        return ad.transpose(ad.sigmoid(h), (3, 0, 1, 2))


class Discriminator(_Network):
    """Image + condition -> sigmoid score in [0, 1] per sample, shape (N,)."""

    _shapes = staticmethod(discriminator_shapes)

    def features(self, x, condition_values) -> Tensor:
        """Per-sample dense features (before any batch mixing), shape (N, A)."""
        data = self.data
        x = x if isinstance(x, Tensor) else Tensor(x)
        if x.data.ndim != 4 or x.data.shape[1] != 1 or \
                x.data.shape[2:] != (data["height"], data["width"]):
            raise DimensionError(
                f"input must be (N, 1, {data['height']}, {data['width']}), got {x.shape}")
        n = x.data.shape[0]
        cond = encode_condition_vector(condition_values, data["cardinality"])
        if cond.shape[0] != n:
            raise DimensionError("image and condition batch sizes differ")
        p = self._params
        h = ad.transpose(x, (1, 2, 3, 0))
        h = ad.conv2d(h, p["conv1.w"], stride=2, padding=1, bias=p["conv1.b"], planes=cond)
        h = ad.leaky_relu(h)
        h = ad.conv2d(h, p["conv2.w"], stride=2, padding=1, bias=p["conv2.b"])
        h = ad.leaky_relu(h)
        # (c2*h*w, N) rows in (c, h, w) order, the row order of feat.w
        h = ad.transpose(h.reshape(-1, n), (1, 0))
        h = ad.linear(h, p["feat.w"], p["feat.b"])
        return ad.leaky_relu(h)

    def forward(self, x, condition_values) -> Tensor:
        f = self.features(x, condition_values)
        p = self._params
        if self.config.minibatch_discrimination:
            o = minibatch_features(f, p["minibatch.T"])
            f = ad.concat([f, o], axis=1)
        score = ad.sigmoid(ad.linear(f, p["head.w"], p["head.b"]))
        return score.reshape(f.data.shape[0])
