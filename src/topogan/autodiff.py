"""Minimal reverse-mode automatic differentiation over dense float64 tensors.

The graph is rebuilt on every forward pass (define-by-run): each op stores
backpointers to its inputs plus a closure that routes the upstream gradient.
Calling backward() on a scalar traverses the recorded graph in reverse
topological order. Repeated backward calls without zeroing accumulate into
existing gradients. Inside `frozen(params)` a graph gets no links to those
parameters, so a forward pass whose parameter gradients are never read (a
network used as a fixed function, or inference) computes none of them.

Each convolution kernel (`_conv_fwd`, `_conv_dx`, `_conv_dw`) is one GEMM
over an im2col patch matrix; `_conv_dx` scatters its product back with one
strided add per kernel tap (col2im) and also serves as the transposed-conv
forward. `conv2d_planes` convolves an input concatenated with constant
per-sample planes without building the planes.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .exceptions import ContractError, DimensionError

LOG_FLOOR = 1e-12


class Tensor:
    """Dense float64 array participating in the differentiation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_links")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._links: list[tuple["Tensor", object]] = []

    # -- graph plumbing ----------------------------------------------------
    @staticmethod
    def _result(data, links) -> "Tensor":
        links = [(p, fn) for p, fn in links if p.requires_grad]
        out = Tensor(data, requires_grad=bool(links))
        out._links = links
        return out

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self) -> None:
        if self.data.size != 1:
            raise ContractError(f"backward needs a scalar loss, got shape {self.shape}")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent, _ in node._links:
                if id(parent) not in seen:
                    stack.append((parent, False))
        # route gradients through a scratch map; only leaves accumulate .grad
        scratch: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(order):
            g = scratch.pop(id(node), None)
            if g is None:
                continue
            if not node._links:
                node._accumulate(g)
                continue
            for parent, fn in node._links:
                pg = fn(g)
                if id(parent) in scratch:
                    scratch[id(parent)] = scratch[id(parent)] + pg
                else:
                    scratch[id(parent)] = pg

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # -- conveniences --------------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, -_as_tensor(other))

    def __rsub__(self, other):
        return add(_as_tensor(other), -self)

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        return reshape(self, *shape)

    def mean(self):
        return mean(self)

    def sum(self):
        return tensor_sum(self)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting expanded."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


@contextmanager
def frozen(params):
    """Leave `params` out of every graph built inside the block.

    Backward then computes no gradient for them and leaves their .grad as it
    was; requires_grad is restored on exit, also when the block raises.
    """
    params = list(params)
    saved = [p.requires_grad for p in params]
    for p in params:
        p.requires_grad = False
    try:
        yield
    finally:
        for p, flag in zip(params, saved):
            p.requires_grad = flag


# ---------------------------------------------------------------------------
# elementwise and shape ops

def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return Tensor._result(a.data + b.data, [
        (a, lambda g: _unbroadcast(g, a.data.shape)),
        (b, lambda g: _unbroadcast(g, b.data.shape)),
    ])


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return Tensor._result(a.data * b.data, [
        (a, lambda g: _unbroadcast(g * b.data, a.data.shape)),
        (b, lambda g: _unbroadcast(g * a.data, b.data.shape)),
    ])


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError("matmul expects 2D operands")
    return Tensor._result(a.data @ b.data, [
        (a, lambda g: g @ b.data.T),
        (b, lambda g: a.data.T @ g),
    ])


def reshape(a, *shape) -> Tensor:
    a = _as_tensor(a)
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    old = a.data.shape
    return Tensor._result(a.data.reshape(shape), [
        (a, lambda g: g.reshape(old)),
    ])


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def make_fn(i):
        lo = 0 if i == 0 else splits[i - 1]
        hi = splits[i] if i < len(splits) else None
        index = [slice(None)] * tensors[0].data.ndim
        index[axis] = slice(lo, hi)
        return lambda g: g[tuple(index)]

    return Tensor._result(
        np.concatenate([t.data for t in tensors], axis=axis),
        [(t, make_fn(i)) for i, t in enumerate(tensors)],
    )


def mean(a) -> Tensor:
    a = _as_tensor(a)
    n = a.data.size
    return Tensor._result(np.asarray(a.data.mean()), [
        (a, lambda g: np.full(a.data.shape, g.reshape(()) / n)),
    ])


def tensor_sum(a) -> Tensor:
    a = _as_tensor(a)
    return Tensor._result(np.asarray(a.data.sum()), [
        (a, lambda g: np.full(a.data.shape, g.reshape(()))),
    ])


def leaky_relu(a, alpha: float = 0.2) -> Tensor:
    a = _as_tensor(a)
    slope = np.where(a.data > 0, 1.0, alpha)
    return Tensor._result(a.data * slope, [
        (a, lambda g: g * slope),
    ])


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    s = 1.0 / (1.0 + np.exp(-a.data))
    return Tensor._result(s, [
        (a, lambda g: g * s * (1.0 - s)),
    ])


def tanh(a) -> Tensor:
    a = _as_tensor(a)
    t = np.tanh(a.data)
    return Tensor._result(t, [
        (a, lambda g: g * (1.0 - t * t)),
    ])


def log_clamped(a, floor: float = LOG_FLOOR) -> Tensor:
    """log(max(a, floor)); gradient is zero where the clamp is active."""
    a = _as_tensor(a)
    clamped = np.maximum(a.data, floor)
    return Tensor._result(np.log(clamped), [
        (a, lambda g: np.where(a.data > floor, g / clamped, 0.0)),
    ])


def clamp(a, lo: float, hi: float) -> Tensor:
    a = _as_tensor(a)
    mask = (a.data >= lo) & (a.data <= hi)
    return Tensor._result(np.clip(a.data, lo, hi), [
        (a, lambda g: g * mask),
    ])


# ---------------------------------------------------------------------------
# 2D convolution kernels (cross-correlation semantics, no kernel flip)
#
# Each kernel is one GEMM over an im2col patch matrix (Chellapilla, Puri &
# Simard 2006). Patch rows are ordered (c, i, j) and columns (n, oy, ox), so
# a (K, C, kh, kw) kernel reshapes to the left operand without a copy.

def _conv_out_size(h: int, kh: int, stride: int, padding: int) -> int:
    span = h + 2 * padding - kh
    if span < 0:
        raise DimensionError(f"kernel size {kh} exceeds padded input {h + 2 * padding}")
    if span % stride:
        raise DimensionError(
            f"conv output size not integral: input {h}, kernel {kh}, "
            f"stride {stride}, padding {padding}"
        )
    return span // stride + 1


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int,
            oh: int, ow: int) -> np.ndarray:
    """(C*kh*kw, N*OH*OW) patch matrix of the zero-padded (N,C,H,W) input."""
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    n, c = xp.shape[:2]
    sn, sc, sh, sw = xp.strides
    view = as_strided(xp, (c, kh, kw, n, oh, ow),
                      (sc, sh, sw, sn, sh * stride, sw * stride), writeable=False)
    return view.reshape(c * kh * kw, n * oh * ow)


def _channels_first(a: np.ndarray) -> np.ndarray:
    """(N,K,OH,OW) -> (K, N*OH*OW)."""
    return a.transpose(1, 0, 2, 3).reshape(a.shape[1], -1)


def _conv_fwd(x: np.ndarray, w: np.ndarray, stride: int, padding: int) -> np.ndarray:
    n, c, h, width = x.shape
    k, cw, kh, kw = w.shape
    if c != cw:
        raise DimensionError(f"input channels {c} != kernel channels {cw}")
    oh = _conv_out_size(h, kh, stride, padding)
    ow = _conv_out_size(width, kw, stride, padding)
    out = w.reshape(k, -1) @ _im2col(x, kh, kw, stride, padding, oh, ow)
    return np.ascontiguousarray(out.reshape(k, n, oh, ow).transpose(1, 0, 2, 3))


def _conv_dx(dout: np.ndarray, w: np.ndarray, stride: int, padding: int,
             x_shape: tuple) -> np.ndarray:
    n, c, h, width = x_shape
    k, _, kh, kw = w.shape
    _, _, oh, ow = dout.shape
    # (kh*kw*C, K) @ (K, N*OH*OW): every tap's contribution in one product
    cols = w.transpose(2, 3, 1, 0).reshape(kh * kw * c, k) @ _channels_first(dout)
    cols = cols.reshape(kh, kw, c, n, oh, ow)
    # col2im: add each tap's (C, N, OH, OW) block into the padded input grid
    dxp = np.zeros((c, n, h + 2 * padding, width + 2 * padding))
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += cols[i, j]
    dx = dxp[:, :, padding:padding + h, padding:padding + width]
    return np.ascontiguousarray(dx.transpose(1, 0, 2, 3))


def _conv_dw(x: np.ndarray, dout: np.ndarray, stride: int, padding: int,
             kh: int, kw: int) -> np.ndarray:
    _, c, _, _ = x.shape
    _, k, oh, ow = dout.shape
    cols = _im2col(x, kh, kw, stride, padding, oh, ow)
    return (_channels_first(dout) @ cols.T).reshape(k, c, kh, kw)


def conv2d(x, w, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of (N,C,H,W) with kernels (K,C,kh,kw)."""
    x, w = _as_tensor(x), _as_tensor(w)
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise DimensionError("conv2d expects 4D input and kernel")
    kh, kw = w.data.shape[2], w.data.shape[3]
    out = _conv_fwd(x.data, w.data, stride, padding)
    return Tensor._result(out, [
        (x, lambda g: _conv_dx(g, w.data, stride, padding, x.data.shape)),
        (w, lambda g: _conv_dw(x.data, g, stride, padding, kh, kw)),
    ])


def conv2d_planes(x, planes, w, stride: int = 1, padding: int = 0) -> Tensor:
    """conv2d(concat([x, P], axis=1), w) without building P.

    x is (N,C,H,W), planes is a constant (N,D) array and w is (K,C+D,kh,kw);
    P[n, d] is the (H,W) plane filled with planes[n, d]. A constant plane's
    response is its value times the response of an all-ones image to the
    plane's taps, zero-padded border included.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    planes = np.asarray(planes, dtype=np.float64)
    if x.data.ndim != 4 or w.data.ndim != 4 or planes.ndim != 2:
        raise DimensionError("conv2d_planes expects 4D input and kernel and 2D planes")
    n, c, h, width = x.data.shape
    k, cw, kh, kw = w.data.shape
    d = planes.shape[1]
    if planes.shape[0] != n:
        raise DimensionError(f"planes batch {planes.shape[0]} != input batch {n}")
    if c + d != cw:
        raise DimensionError(f"input channels {c} + planes {d} != kernel channels {cw}")
    out = _conv_fwd(x.data, w.data[:, :c], stride, padding)
    oh, ow = out.shape[2:]
    ones = _im2col(np.ones((1, 1, h, width)), kh, kw, stride, padding, oh, ow)
    # rows (d, k): the response of plane d's taps for output channel k
    taps = w.data[:, c:].transpose(1, 0, 2, 3).reshape(d * k, kh * kw)
    out += (planes @ (taps @ ones).reshape(d, -1)).reshape(out.shape)

    def grad_w(g: np.ndarray) -> np.ndarray:
        g_taps = (planes.T @ g.reshape(n, -1)).reshape(d * k, -1) @ ones.T
        return np.concatenate([_conv_dw(x.data, g, stride, padding, kh, kw),
                               g_taps.reshape(d, k, kh, kw).transpose(1, 0, 2, 3)], axis=1)

    return Tensor._result(out, [
        (x, lambda g: _conv_dx(g, w.data[:, :c], stride, padding, x.data.shape)),
        (w, grad_w),
    ])


def conv_transpose2d(x, w, stride: int = 1, padding: int = 0) -> Tensor:
    """Adjoint of conv2d: (N,Cin,H,W) with kernels (Cin,Cout,kh,kw).

    Output spatial size is (H-1)*stride - 2*padding + kh.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise DimensionError("conv_transpose2d expects 4D input and kernel")
    n, cin, h, width = x.data.shape
    cin_w, cout, kh, kw = w.data.shape
    if cin != cin_w:
        raise DimensionError(f"input channels {cin} != kernel channels {cin_w}")
    oh = (h - 1) * stride - 2 * padding + kh
    ow = (width - 1) * stride - 2 * padding + kw
    if oh < 1 or ow < 1:
        raise DimensionError(f"transposed conv output {oh}x{ow} is empty")
    out = _conv_dx(x.data, w.data, stride, padding, (n, cout, oh, ow))
    return Tensor._result(out, [
        (x, lambda g: _conv_fwd(g, w.data, stride, padding)),
        (w, lambda g: _conv_dw(g, x.data, stride, padding, kh, kw)),
    ])


# ---------------------------------------------------------------------------
# Adam

@dataclass
class AdamState:
    """First/second moment accumulators plus shared hyperparameters."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)

    @staticmethod
    def for_params(params: list[Tensor], lr: float = 1e-3, beta1: float = 0.9,
                   beta2: float = 0.999, eps: float = 1e-8) -> "AdamState":
        return AdamState(
            lr=lr, beta1=beta1, beta2=beta2, eps=eps, step=0,
            m=[np.zeros_like(p.data) for p in params],
            v=[np.zeros_like(p.data) for p in params],
        )


def adam_step(params: list[Tensor], grads: list[np.ndarray], state: AdamState) -> AdamState:
    """Standard bias-corrected Adam update, in place on the parameter data."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ContractError("adam_step: params, grads, and state lengths differ")
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1**state.step
    bc2 = 1.0 - b2**state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        g = np.zeros_like(p.data) if g is None else np.asarray(g, dtype=np.float64)
        if g.shape != p.data.shape:
            raise ContractError(
                f"adam_step: gradient shape {g.shape} != parameter shape {p.data.shape}"
            )
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p.data -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
    return state


# ---------------------------------------------------------------------------
# gradient checking

@dataclass
class GradCheckReport:
    max_rel_err: float
    worst_param: str
    worst_index: tuple
    per_param: dict

    def __str__(self):
        return (f"grad check: max rel err {self.max_rel_err:.3e} "
                f"at {self.worst_param}{list(self.worst_index)}")


def grad_check(fn, params: dict[str, Tensor], h: float = 1e-6) -> GradCheckReport:
    """Compare analytic gradients of fn() against central finite differences.

    `fn` must rebuild its graph on every call and return a scalar Tensor.
    The relative-error denominator has a 1e-3 floor: central differences at
    h=1e-6 carry ~1e-10 * |loss| of float64 roundoff, so gradients below the
    floor are compared in (scaled) absolute terms instead. A genuine backward
    bug of absolute size >= 1e-9 still reads as >= 1e-6 after flooring.
    """
    for p in params.values():
        p.zero_grad()
    loss = fn()
    loss.backward()
    analytic = {name: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
                for name, p in params.items()}

    worst = (0.0, "", ())
    per_param = {}
    for name, p in params.items():
        worst_here = (0.0, ())
        for idx in np.ndindex(p.data.shape):
            orig = p.data[idx]
            p.data[idx] = orig + h
            f_plus = fn().item()
            p.data[idx] = orig - h
            f_minus = fn().item()
            p.data[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            a = analytic[name][idx]
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-3)
            if err > worst_here[0]:
                worst_here = (err, idx)
        per_param[name] = worst_here[0]
        if worst_here[0] > worst[0]:
            worst = (worst_here[0], name, worst_here[1])
    return GradCheckReport(
        max_rel_err=worst[0], worst_param=worst[1], worst_index=worst[2],
        per_param=per_param,
    )
