"""Minimal reverse-mode automatic differentiation over dense float64 tensors.

The graph is rebuilt on every forward pass (define-by-run). An op result
whose inputs need a gradient gets a `_Node`, apart from its data, that links
to each such input with a closure routing the upstream gradient. An input is
linked through its own node, or, when it is a leaf, as the Tensor itself,
whose .grad backward fills. Calling backward() on a scalar traverses the
graph in reverse topological order. A graph serves one backward: as each node
routes its gradient, backward drops the node's links, and with them its
closures and what they saved, so a second backward that reaches the node
raises ParameterError before any .grad changes. Building the graph again and
backpropagating it accumulates into the leaves' existing gradients. Inside
`frozen(params)` a graph gets no links to those parameters, so a forward pass
whose parameter gradients are never read (a network used as a fixed function,
or inference) computes none of them.

A graph holds its nodes, its closures and its leaves, but no op result's
Tensor, and each closure holds only what its gradient reads: a shape where
the shape is enough, a mask where a mask is enough (`leaky_relu`,
`log_clamped`). So an op result's array lives as long as the caller keeps
its Tensor or a closure reads it; a pre-activation that `leaky_relu` has
turned into a mask dies with its Tensor.

The conv ops take and return activations in one layout, (C, H, W, N), with
the batch axis innermost; kernels are (K, C, kh, kw). Each convolution kernel
(`_conv_fwd`, `_conv_dx`, `_conv_dw`) is one GEMM over an im2col patch
matrix. im2col fills the (C*kh*kw, OH*OW*N) patch matrix straight from the
unpadded input: each kernel tap copies the window of outputs whose input
lies inside the image and zeroes the rest, so every copied run is N values
long, and the (K, OH*OW*N) product is already the next layer's (K, OH, OW, N)
input. `_conv_dx` scatters its product back with one strided add per kernel
tap (col2im), each adding the tap's valid window straight into the unpadded
result, again over contiguous rows of N; it also serves as the
transposed-conv forward.
`conv2d` takes constant per-sample `planes` too, and convolves its input
stacked over them without building the planes. `transpose` moves a tensor
into or out of the layout at a network's boundary.

The twelve ops: `add`, `mul`, `linear`, `reshape`, `transpose`, `concat`,
`mean`, `leaky_relu`, `sigmoid`, `log_clamped`, `conv2d` and
`conv_transpose2d`. Layers add their biases inside the op: the conv ops take
`bias` (K values, in any stored shape) and `linear(x, w, b)` is x @ w + b,
each adding into the product it already holds, so a layer keeps one
activation and not two. Without `b`, `linear` is the plain product x @ w.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DimensionError, ParameterError
from .fem import check_int

LOG_FLOOR = 1e-12         # log_clamped's floor, the one floor under every loss's log
LEAKY_SLOPE = 0.2         # leaky_relu's negative-side slope, the paper's in both networks
GRAD_CHECK_STEP = 1e-6    # grad_check's central-difference step
# float64 values in one block of adam_step, so that a block of the parameter,
# its gradient, its two moments and the two scratch buffers (6 x 256 KiB =
# 1.5 MiB) stay in a 2 MiB L2 cache across the update's 14 ufuncs; on G's
# 0.6 M values (default widths, 28x28) on such a Xeon this ran 1.3x faster
# than one block per parameter
ADAM_BLOCK_VALUES = 1 << 15


class _Node:
    """An op result's place in a graph: its (parent, gradient fn) links, each
    parent another op result's node or a leaf Tensor."""

    __slots__ = ("links",)

    def __init__(self, links: list):
        self.links = links


class Tensor:
    """Dense float64 array participating in the differentiation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._node: _Node | None = None   # None for a leaf

    # -- graph plumbing ----------------------------------------------------
    @staticmethod
    def _result(data, links) -> "Tensor":
        links = [(p._place(), fn) for p, fn in links if p.requires_grad]
        out = Tensor(data, requires_grad=bool(links))
        if links:
            out._node = _Node(links)
        return out

    def _place(self) -> "_Node | Tensor":
        """What stands for this tensor in a graph: its node, or a leaf itself."""
        return self if self._node is None else self._node

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self) -> None:
        if self.data.size != 1:
            raise DimensionError(f"backward needs a scalar loss, got shape {self.shape}")
        root = self._place()
        order: list[_Node | Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[_Node | Tensor, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            if isinstance(node, _Node):
                if node.links is None:
                    raise ParameterError(
                        "backward reached a graph node an earlier backward has used; "
                        "rebuild the graph")
                for parent, _ in node.links:
                    if id(parent) not in seen:
                        stack.append((parent, False))
        # route gradients through a scratch map; only leaves accumulate .grad.
        # Every place in `order` is reachable from the root, so each has its
        # gradient by the time it comes up. A node's links die once it has
        # routed that gradient, and with them every array its closures saved.
        scratch: dict[int, np.ndarray] = {id(root): np.ones_like(self.data)}
        for node in reversed(order):
            g = scratch.pop(id(node))
            if isinstance(node, Tensor):
                node._accumulate(g)
                continue
            links, node.links = node.links, None
            for parent, fn in links:
                pg = fn(g)
                if id(parent) in scratch:
                    scratch[id(parent)] = scratch[id(parent)] + pg
                else:
                    scratch[id(parent)] = pg
            del links, fn, pg, g

    def zero_grad(self) -> None:
        self.grad = None

    # -- conveniences --------------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

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

    def reshape(self, *shape):
        return reshape(self, *shape)


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
    a_shape, b_shape = a.data.shape, b.data.shape
    return Tensor._result(a.data + b.data, [
        (a, lambda g: _unbroadcast(g, a_shape)),
        (b, lambda g: _unbroadcast(g, b_shape)),
    ])


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    ad, bd = a.data, b.data
    a_shape, b_shape = ad.shape, bd.shape
    return Tensor._result(ad * bd, [
        (a, lambda g: _unbroadcast(g * bd, a_shape)),
        (b, lambda g: _unbroadcast(g * ad, b_shape)),
    ])


def linear(x, w, b=None) -> Tensor:
    """x @ w, plus b when given, for x (N, A), w (A, F) and b (F,); b is added into the product."""
    x, w = _as_tensor(x), _as_tensor(w)
    b = None if b is None else _as_tensor(b)
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0] \
            or (b is not None and b.data.shape != w.data.shape[1:]):
        raise DimensionError(
            f"linear expects x (N, A), w (A, F) and b (F,) or None, got {x.shape}, {w.shape}, "
            f"{None if b is None else b.shape}")
    xd, wd = x.data, w.data
    out = xd @ wd
    links = [(x, lambda g: g @ wd.T), (w, lambda g: xd.T @ g)]
    if b is not None:
        out += b.data
        links.append((b, lambda g: g.sum(axis=0)))
    return Tensor._result(out, links)


def reshape(a, *shape) -> Tensor:
    a = _as_tensor(a)
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    old = a.data.shape
    return Tensor._result(a.data.reshape(shape), [
        (a, lambda g: g.reshape(old)),
    ])


def transpose(a, axes) -> Tensor:
    """Permute the axes of `a` (a view); the gradient is permuted back.

    A negative axis counts from the end; `axes` that are not a permutation of
    a's axes raise DimensionError.
    """
    a = _as_tensor(a)
    ndim = a.data.ndim
    axes = tuple(ax + ndim if ax < 0 else ax for ax in axes)
    if sorted(axes) != list(range(ndim)):
        raise DimensionError(f"transpose axes {axes} are not a permutation of {ndim} axes")
    inverse = tuple(np.argsort(axes))
    return Tensor._result(a.data.transpose(axes), [
        (a, lambda g: g.transpose(inverse)),
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
    shape, n = a.data.shape, a.data.size
    return Tensor._result(np.asarray(a.data.mean()), [
        (a, lambda g: np.full(shape, g.reshape(()) / n)),
    ])


def leaky_relu(a) -> Tensor:
    """max(a, LEAKY_SLOPE*a); backward rebuilds the slope from a bool mask."""
    a = _as_tensor(a)
    positive = a.data > 0

    def grad(g: np.ndarray) -> np.ndarray:
        slope = positive * (1.0 - LEAKY_SLOPE)
        slope += LEAKY_SLOPE
        slope *= g
        return slope

    scaled = a.data * LEAKY_SLOPE
    return Tensor._result(np.maximum(a.data, scaled, out=scaled), [(a, grad)])


def sigmoid(a) -> Tensor:
    """1 / (1 + exp(-a)), computed in one buffer."""
    a = _as_tensor(a)
    s = np.negative(a.data)
    np.exp(s, out=s)
    s += 1.0
    np.divide(1.0, s, out=s)
    return Tensor._result(s, [
        (a, lambda g: g * s * (1.0 - s)),
    ])


def log_clamped(a) -> Tensor:
    """log(max(a, LOG_FLOOR)); gradient is zero where the clamp is active."""
    a = _as_tensor(a)
    clamped = np.maximum(a.data, LOG_FLOOR)
    return Tensor._result(np.log(clamped), [
        (a, lambda g: np.where(clamped > LOG_FLOOR, g / clamped, 0.0)),
    ])


# ---------------------------------------------------------------------------
# 2D convolution kernels (cross-correlation semantics, no kernel flip)
#
# Activations are (C, H, W, N), batch innermost, and kernels (K, C, kh, kw).
# Each kernel is one GEMM over an im2col patch matrix (Chellapilla, Puri &
# Simard 2006). Patch rows are ordered (c, i, j) and columns (oy, ox, n), so
# a kernel reshapes to the left operand and the (K, OH*OW*N) product is the
# output in layout, both without a copy.

def _check_geometry(stride, padding) -> None:
    """ParameterError unless stride is an int >= 1 and padding an int >= 0."""
    check_int("stride", stride, 1)
    check_int("padding", padding, 0)


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


def _tap_windows(k: int, size: int, out: int, stride: int, padding: int) -> list:
    """Per tap offset i < k along one axis: (lo, hi, run), where the outputs o in
    [lo, hi) read input o*stride + i - padding inside [0, size) and `run`
    slices those inputs; where the whole tap falls in the padding, lo == hi
    and `run` starts where it stops, so it is empty too."""
    windows = []
    for i in range(k):
        lo = min(out, max(0, -((i - padding) // stride)))
        hi = max(lo, min(out, (size - 1 + padding - i) // stride + 1))
        start = lo * stride + i - padding
        windows.append((lo, hi, slice(start, start + (hi - lo) * stride, stride)))
    return windows


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int,
            oh: int, ow: int) -> np.ndarray:
    """(C*kh*kw, OH*OW*N) patch matrix of the (C,H,W,N) input, zero-padded.

    No padded copy of x is made: each tap's rows and columns that read the
    padding are zeroed, and its valid window is copied from x in contiguous
    runs of N values.
    """
    c, h, width, n = x.shape
    cols = np.empty((c, kh, kw, oh, ow, n))
    rows = _tap_windows(kh, h, oh, stride, padding)
    columns = _tap_windows(kw, width, ow, stride, padding)
    for i, (lo, hi, _) in enumerate(rows):
        cols[:, i, :, :lo] = 0.0
        cols[:, i, :, hi:] = 0.0
    for j, (lo, hi, _) in enumerate(columns):
        cols[:, :, j, :, :lo] = 0.0
        cols[:, :, j, :, hi:] = 0.0
    for i, (ylo, yhi, ys) in enumerate(rows):
        for j, (xlo, xhi, xs) in enumerate(columns):
            cols[:, i, j, ylo:yhi, xlo:xhi] = x[:, ys, xs]
    return cols.reshape(c * kh * kw, oh * ow * n)


def _conv_fwd(x: np.ndarray, w: np.ndarray, stride: int, padding: int, *,
              cols: np.ndarray | None = None) -> np.ndarray:
    """`cols`, when given, is x's patch matrix, already built by `_im2col`."""
    c, h, width, n = x.shape
    k, cw, kh, kw = w.shape
    if c != cw:
        raise DimensionError(f"input channels {c} != kernel channels {cw}")
    oh = _conv_out_size(h, kh, stride, padding)
    ow = _conv_out_size(width, kw, stride, padding)
    if cols is None:
        cols = _im2col(x, kh, kw, stride, padding, oh, ow)
    return (w.reshape(k, -1) @ cols).reshape(k, oh, ow, n)


def _conv_dx(dout: np.ndarray, w: np.ndarray, stride: int, padding: int,
             x_shape: tuple) -> np.ndarray:
    c, h, width, n = x_shape
    k, _, kh, kw = w.shape
    _, oh, ow, _ = dout.shape
    # (kh*kw*C, K) @ (K, OH*OW*N): every tap's contribution in one product
    cols = w.transpose(2, 3, 1, 0).reshape(kh * kw * c, k) @ dout.reshape(k, -1)
    cols = cols.reshape(kh, kw, c, oh, ow, n)
    # col2im: add each tap's valid window of its (C, OH, OW, N) block into the
    # input grid, in contiguous rows of N; what a tap reads of the padding is
    # never added anywhere
    dx = np.zeros((c, h, width, n))
    columns = _tap_windows(kw, width, ow, stride, padding)
    for i, (ylo, yhi, ys) in enumerate(_tap_windows(kh, h, oh, stride, padding)):
        for j, (xlo, xhi, xs) in enumerate(columns):
            dx[:, ys, xs] += cols[i, j, :, ylo:yhi, xlo:xhi]
    return dx


def _conv_dw(x: np.ndarray, dout: np.ndarray, stride: int, padding: int,
             kh: int, kw: int, *, cols: np.ndarray | None = None) -> np.ndarray:
    """`cols`, when given, is x's patch matrix, already built by `_im2col`."""
    c = x.shape[0]
    k, oh, ow, _ = dout.shape
    if cols is None:
        cols = _im2col(x, kh, kw, stride, padding, oh, ow)
    return (dout.reshape(k, -1) @ cols.T).reshape(k, c, kh, kw)


def _biased(out: np.ndarray, bias, links: list) -> Tensor:
    """A conv op's (K, OH, OW, N) result, with `bias` (K values) added into it.

    The bias keeps its stored shape, (1, K, 1, 1) for instance. Its gradient
    sums g over the axes after K one at a time, as `_unbroadcast` does for a
    (K, 1, 1, 1) addend.
    """
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.data.size != out.shape[0]:
            raise DimensionError(
                f"bias has {bias.data.size} values for {out.shape[0]} output channels")
        out += bias.data.reshape(-1, 1, 1, 1)
        shape = bias.data.shape
        links.append((bias, lambda g: g.sum(axis=1, keepdims=True).sum(axis=2, keepdims=True)
                      .sum(axis=3, keepdims=True).reshape(shape)))
    return Tensor._result(out, links)


def conv2d(x, w, stride: int = 1, padding: int = 0, bias=None, planes=None) -> Tensor:
    """Cross-correlation of (C,H,W,N) with kernels (K,C+D,kh,kw) -> (K,OH,OW,N), plus bias.

    `planes`, a constant (N,D) array, stacks D planes P under x without
    building them: the result is conv2d(concat([x, P], axis=0), w), where
    P[d, :, :, n] is the (H,W) plane filled with planes[n, d]. A constant
    plane's response is its value times the response of an all-ones image to
    the plane's taps, zero-padded border included. Without planes D is 0,
    and no part of the plane path runs.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    _check_geometry(stride, padding)
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise DimensionError("conv2d expects 4D input and kernel")
    xd, x_shape = x.data, x.data.shape
    c, h, width, n = x_shape
    k, cw, kh, kw = w.data.shape
    d = 0
    if planes is not None:
        planes = np.asarray(planes, dtype=np.float64)
        if planes.ndim != 2 or planes.shape[0] != n:
            raise DimensionError(f"planes must be (N, D) for input batch {n}, got {planes.shape}")
        d = planes.shape[1]
        if c + d != cw:
            raise DimensionError(f"input channels {c} + planes {d} != kernel channels {cw}")
    w_x = w.data[:, :c] if d else w.data   # _conv_fwd checks C against w's channels
    out = _conv_fwd(xd, w_x, stride, padding)
    links = [(x, lambda g: _conv_dx(g, w_x, stride, padding, x_shape))]
    if not d:
        links.append((w, lambda g: _conv_dw(xd, g, stride, padding, kh, kw)))
        return _biased(out, bias, links)
    oh, ow = out.shape[1:3]
    ones = _im2col(np.ones((1, h, width, 1)), kh, kw, stride, padding, oh, ow)
    # (K, D, OH*OW): the response of plane d's taps for output channel k
    resp = w.data[:, c:].reshape(k, d, kh * kw) @ ones
    out += (resp.transpose(0, 2, 1).reshape(-1, d) @ planes.T).reshape(out.shape)

    def grad_w(g: np.ndarray) -> np.ndarray:
        g_planes = (g.reshape(k, oh * ow, n) @ planes).transpose(0, 2, 1)  # (K, D, OH*OW)
        return np.concatenate([_conv_dw(xd, g, stride, padding, kh, kw),
                               (g_planes @ ones.T).reshape(k, d, kh, kw)], axis=1)

    links.append((w, grad_w))
    return _biased(out, bias, links)


def conv_transpose2d(x, w, stride: int = 1, padding: int = 0, bias=None) -> Tensor:
    """Adjoint of conv2d: (Cin,H,W,N) with kernels (Cin,Cout,kh,kw) -> (Cout,OH,OW,N), plus bias.

    Output spatial size is (H-1)*stride - 2*padding + kh. Both gradients read
    the patch matrix of the upstream gradient g: when x and w both need one,
    the x link builds it and hands it to the w link, which drops it after use.
    The forward and the w link both read x as a (Cin, H*W*N) matrix, so an x
    that is not C-contiguous (the generator's transposed dense output) is
    copied once here, not reshaped into a fresh copy by each.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    _check_geometry(stride, padding)
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise DimensionError("conv_transpose2d expects 4D input and kernel")
    xd, wd = np.ascontiguousarray(x.data), w.data
    cin, h, width, n = xd.shape
    cin_w, cout, kh, kw = wd.shape
    if cin != cin_w:
        raise DimensionError(f"input channels {cin} != kernel channels {cin_w}")
    oh = (h - 1) * stride - 2 * padding + kh
    ow = (width - 1) * stride - 2 * padding + kw
    if oh < 1 or ow < 1:
        raise DimensionError(f"transposed conv output {oh}x{ow} is empty")
    out = _conv_dx(xd, wd, stride, padding, (cout, oh, ow, n))
    share = x.requires_grad and w.requires_grad
    shared: list[np.ndarray] = []

    def grad_x(g: np.ndarray) -> np.ndarray:
        cols = _im2col(g, kh, kw, stride, padding, h, width)
        if share:
            shared.append(cols)
        return _conv_fwd(g, wd, stride, padding, cols=cols)

    def grad_w(g: np.ndarray) -> np.ndarray:
        cols = shared.pop() if shared else None
        return _conv_dw(g, xd, stride, padding, kh, kw, cols=cols)

    return _biased(out, bias, [(x, grad_x), (w, grad_w)])


# ---------------------------------------------------------------------------
# Adam

@dataclass
class AdamState:
    """Adam's step count and per-parameter moments; `adam_step` takes the hyperparameters."""

    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)

    @staticmethod
    def for_params(params: list[Tensor]) -> "AdamState":
        return AdamState(m=[np.zeros_like(p.data) for p in params],
                         v=[np.zeros_like(p.data) for p in params])


def _adam_update(p, g, m, v, t1, t2, lr, beta1, beta2, bc1, bc2, eps) -> None:
    """Adam's update of one block in place, its temporaries in t1 and t2.

    The ufuncs run in the order of m = beta1*m + (1-beta1)*g, v = beta2*v +
    (1-beta2)*g*g and p -= lr*(m/bc1) / (sqrt(v/bc2) + eps), so every value
    comes out as that expression gives it.
    """
    m *= beta1
    np.multiply(1.0 - beta1, g, out=t1)
    m += t1
    v *= beta2
    np.multiply(1.0 - beta2, g, out=t1)
    t1 *= g
    v += t1
    np.divide(m, bc1, out=t1)
    np.multiply(lr, t1, out=t1)
    np.divide(v, bc2, out=t2)
    np.sqrt(t2, out=t2)
    t2 += eps
    t1 /= t2
    np.subtract(p, t1, out=p)


def adam_step(params: list[Tensor], state: AdamState, lr: float, beta1: float,
              beta2: float, eps: float) -> None:
    """Standard bias-corrected Adam update from each `p.grad`, in place on the parameters.

    A parameter without a gradient is updated as if its gradient were zero.
    Each parameter is updated in blocks of ADAM_BLOCK_VALUES values through
    two scratch buffers shared by all of them, so no temporary is as large as
    a parameter; one whose data or moments are not C-contiguous is updated
    as one block.
    """
    if len(params) != len(state.m):
        raise DimensionError("adam_step: params and state lengths differ")
    grads = [np.broadcast_to(0.0, p.data.shape) if p.grad is None else p.grad for p in params]
    for p, g in zip(params, grads):
        if g.shape != p.data.shape:
            raise DimensionError(
                f"adam_step: gradient shape {g.shape} != parameter shape {p.data.shape}"
            )
    state.step += 1
    hyper = (lr, beta1, beta2, 1.0 - beta1**state.step, 1.0 - beta2**state.step, eps)
    scratch = np.empty((2, min(ADAM_BLOCK_VALUES, max((p.data.size for p in params), default=0))))
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if not (p.data.flags.c_contiguous and m.flags.c_contiguous and v.flags.c_contiguous):
            _adam_update(p.data, g, m, v, np.empty_like(p.data), np.empty_like(p.data), *hyper)
            continue
        flat = [a.reshape(-1) for a in (p.data, g, m, v)]
        for lo in range(0, p.data.size, ADAM_BLOCK_VALUES):
            block = [a[lo:lo + ADAM_BLOCK_VALUES] for a in flat]
            size = block[0].size
            _adam_update(*block, scratch[0, :size], scratch[1, :size], *hyper)


# ---------------------------------------------------------------------------
# gradient checking

@dataclass
class GradCheckReport:
    max_rel_err: float
    worst_param: str
    worst_index: tuple

    def __str__(self):
        return (f"grad check: max rel err {self.max_rel_err:.3e} "
                f"at {self.worst_param}{list(self.worst_index)}")


def grad_check(fn, params: dict[str, Tensor]) -> GradCheckReport:
    """Compare analytic gradients of fn() against central finite differences.

    `fn` must rebuild its graph on every call and return a scalar Tensor.
    The relative-error denominator has a 1e-3 floor: central differences at
    h = GRAD_CHECK_STEP = 1e-6 carry ~1e-10 * |loss| of float64 roundoff, so
    gradients below the floor are compared in (scaled) absolute terms instead.
    A genuine backward bug of absolute size >= 1e-9 still reads as >= 1e-6
    after flooring.
    """
    for p in params.values():
        p.zero_grad()
    loss = fn()
    loss.backward()
    analytic = {name: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
                for name, p in params.items()}

    h = GRAD_CHECK_STEP
    worst = (0.0, "", ())
    for name, p in params.items():
        for idx in np.ndindex(p.data.shape):
            orig = p.data[idx]
            try:
                p.data[idx] = orig + h
                f_plus = fn().item()
                p.data[idx] = orig - h
                f_minus = fn().item()
            finally:
                p.data[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            a = analytic[name][idx]
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-3)
            if err > worst[0]:
                worst = (err, name, idx)
    return GradCheckReport(max_rel_err=worst[0], worst_param=worst[1], worst_index=worst[2])
