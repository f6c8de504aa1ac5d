"""Autodiff primitive tests: forward oracles and finite-difference gradients."""
import tracemalloc
import weakref

import numpy as np
import pytest
from numpy.lib.stride_tricks import as_strided
from hypothesis import given, settings, strategies as st

from topogan import autodiff
from topogan.autodiff import (
    _conv_dx,
    _im2col,
    AdamState,
    Tensor,
    adam_step,
    concat,
    conv2d,
    conv_transpose2d,
    frozen,
    grad_check,
    leaky_relu,
    linear,
    log_clamped,
    mean,
    reshape,
    sigmoid,
    transpose,
)
from topogan.exceptions import DimensionError, ParameterError
from topogan.nets import encode_condition_vector


# ---------------------------------------------------------------------------
# forward oracles, in the (N, C, H, W) layout

def nchw(op, x, *args, **kwargs):
    """A conv op on an (N, C, H, W) input, giving an (N, C, H, W) output.

    The ops take and return (C, H, W, N); the transposes at the boundary are
    graph ops, so gradients reach x in its own layout.
    """
    return transpose(op(transpose(x, (1, 2, 3, 0)), *args, **kwargs), (3, 0, 1, 2))


def probe(out, g):
    """<out, g> as a scalar Tensor whose gradient with respect to out is exactly g."""
    return linear(out.reshape(1, -1), np.reshape(g, (-1, 1)))


def conv_oracle(x, w, stride, padding):
    """Quadruple-loop direct cross-correlation."""
    n, c, h, width = x.shape
    k, _, kh, kw = w.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (width + 2 * padding - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((n, k, oh, ow))
    for b in range(n):
        for f in range(k):
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0
                    for ch in range(c):
                        for dy in range(kh):
                            for dx in range(kw):
                                acc += (xp[b, ch, oy * stride + dy, ox * stride + dx]
                                        * w[f, ch, dy, dx])
                    out[b, f, oy, ox] = acc
    return out


def conv_transpose_oracle(x, w, stride, padding):
    """Scatter form of the transposed convolution."""
    n, cin, h, width = x.shape
    _, cout, kh, kw = w.shape
    oh = (h - 1) * stride - 2 * padding + kh
    ow = (width - 1) * stride - 2 * padding + kw
    out = np.zeros((n, cout, oh + 2 * padding, ow + 2 * padding))
    for b in range(n):
        for ci in range(cin):
            for y in range(h):
                for x_ in range(width):
                    v = x[b, ci, y, x_]
                    for co in range(cout):
                        for dy in range(kh):
                            for dx in range(kw):
                                out[b, co, y * stride + dy, x_ * stride + dx] += \
                                    v * w[ci, co, dy, dx]
    if padding:
        return out[:, :, padding:-padding, padding:-padding]
    return out


def padded_im2col(x, kh, kw, stride, padding, oh, ow):
    """im2col as a copy of a strided (c, kh, kw, oh, ow, n) view of the padded input."""
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    c, _, _, n = xp.shape
    sc, sh, sw, sn = xp.strides
    view = as_strided(xp, (c, kh, kw, oh, ow, n),
                      (sc, sh, sw, sh * stride, sw * stride, sn), writeable=False)
    return view.reshape(c * kh * kw, oh * ow * n)


def padded_conv_dx(dout, w, stride, padding, x_shape):
    """_conv_dx with col2im adding each whole tap block into a padded grid, then cropping."""
    c, h, width, n = x_shape
    k, _, kh, kw = w.shape
    _, oh, ow, _ = dout.shape
    cols = w.transpose(2, 3, 1, 0).reshape(kh * kw * c, k) @ dout.reshape(k, -1)
    cols = cols.reshape(kh, kw, c, oh, ow, n)
    dxp = np.zeros((c, h + 2 * padding, width + 2 * padding, n))
    for i in range(kh):
        for j in range(kw):
            dxp[:, i:i + stride * oh:stride, j:j + stride * ow:stride] += cols[i, j]
    return dxp[:, padding:padding + h, padding:padding + width]


# (h, w, kh, kw, stride, padding): strides 1-3 and paddings 0..kh on two
# images; on the 1x2 image with kh = 3, padding 3 and stride 3, taps 1 and 2
# read only the padding
KERNEL_GEOMETRIES = [
    (h, w, kh, kw, stride, padding)
    for h, w in ((5, 4), (1, 2)) for kh, kw in ((3, 2), (4, 4))
    for stride in (1, 2, 3) for padding in range(kh + 1)
    if h + 2 * padding >= kh and w + 2 * padding >= kw
]


# ---------------------------------------------------------------------------
# conv2d forward

def test_conv_ones_sums_window():
    x = Tensor(np.ones((1, 1, 3, 3)))
    w = Tensor(np.ones((1, 1, 3, 3)))
    out = nchw(conv2d, x, w)
    assert out.shape == (1, 1, 1, 1)
    assert out.item() == pytest.approx(9.0)


def test_conv_identity_kernel():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 1, 5, 5))
    w = np.zeros((1, 1, 3, 3))
    w[0, 0, 1, 1] = 1.0
    out = nchw(conv2d, Tensor(x), Tensor(w), stride=1, padding=1)
    assert np.allclose(out.data, x)


def test_conv_matches_loop_oracle():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(1, 2, 5, 5))
    w = rng.normal(size=(3, 2, 3, 3))
    for stride, padding in [(1, 0), (1, 1), (2, 1)]:
        out = nchw(conv2d, Tensor(x), Tensor(w), stride=stride, padding=padding)
        assert np.abs(out.data - conv_oracle(x, w, stride, padding)).max() < 1e-12


def test_conv_rejects_non_integral_output():
    x = Tensor(np.zeros((1, 1, 5, 5)))
    w = Tensor(np.zeros((1, 1, 2, 2)))
    with pytest.raises(DimensionError):
        nchw(conv2d, x, w, stride=2, padding=0)


@pytest.mark.parametrize("n", [1, 3])
def test_im2col_equals_the_padded_reference(n):
    rng = np.random.default_rng(16)
    whole_taps_in_padding = 0
    for h, w, kh, kw, stride, padding in KERNEL_GEOMETRIES:
        x = rng.normal(size=(2, h, w, n))     # no zero, so a zero row is padding
        oh = (h + 2 * padding - kh) // stride + 1
        ow = (w + 2 * padding - kw) // stride + 1
        cols = _im2col(x, kh, kw, stride, padding, oh, ow)
        assert np.array_equal(cols, padded_im2col(x, kh, kw, stride, padding, oh, ow)), \
            (h, w, kh, kw, stride, padding)
        whole_taps_in_padding += int((cols == 0).all(axis=1).sum())
    assert whole_taps_in_padding > 0


@pytest.mark.parametrize("n", [1, 3])
def test_col2im_equals_the_padded_reference(n):
    # the same sums in the same tap order: bit-identical, not merely close
    rng = np.random.default_rng(17)
    for h, w, kh, kw, stride, padding in KERNEL_GEOMETRIES:
        oh = (h + 2 * padding - kh) // stride + 1
        ow = (w + 2 * padding - kw) // stride + 1
        dout = rng.normal(size=(3, oh, ow, n))
        kernel = rng.normal(size=(3, 2, kh, kw))
        dx = _conv_dx(dout, kernel, stride, padding, (2, h, w, n))
        assert dx.flags.c_contiguous
        assert np.array_equal(dx, padded_conv_dx(dout, kernel, stride, padding, (2, h, w, n))), \
            (h, w, kh, kw, stride, padding)


def test_conv2d_forward_allocates_no_padded_copy():
    # the patch matrix and the product are the forward's only large arrays;
    # with a padded copy of x (8 x 18 x 18 x 16 values) beside the patch
    # matrix, the peak was 1.28 times their sum
    rng = np.random.default_rng(18)
    x = rng.normal(size=(8, 16, 16, 16))
    w = rng.normal(size=(4, 8, 4, 4))
    patches = 8 * 4 * 4 * 8 * 8 * 16 * 8      # bytes of the (C*kh*kw, OH*OW*N) matrix
    output = 4 * 8 * 8 * 16 * 8
    tracemalloc.start()
    try:
        out = conv2d(x, w, stride=2, padding=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (4, 8, 8, 16)
    assert peak <= 1.1 * (patches + output), f"peak {peak} bytes"


# each conv op with valid shapes, given only stride and padding; conv2d both
# without and with planes
CONV_OPS = {
    "conv2d": lambda **geometry: conv2d(np.ones((2, 6, 6, 3)), np.ones((4, 2, 2, 2)),
                                        **geometry),
    "conv2d_planes": lambda **geometry: conv2d(
        np.ones((2, 6, 6, 3)), np.ones((4, 3, 2, 2)), planes=np.ones((3, 1)), **geometry),
    "conv_transpose2d": lambda **geometry: conv_transpose2d(
        np.ones((2, 3, 3, 3)), np.ones((2, 4, 2, 2)), **geometry),
}


@pytest.mark.parametrize("stride, padding", [(0, 0), (1, -1), (1.5, 0)])
@pytest.mark.parametrize("op", sorted(CONV_OPS))
def test_conv_ops_check_stride_and_padding(op, stride, padding):
    # a caller's bad value is ParameterError, raised before any kernel runs
    with pytest.raises(ParameterError, match="stride" if stride != 1 else "padding"):
        CONV_OPS[op](stride=stride, padding=padding)


def test_conv_transpose_matches_scatter_oracle():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 3, 4, 4))
    w = rng.normal(size=(3, 2, 4, 4))
    for stride, padding in [(1, 0), (2, 1)]:
        out = nchw(conv_transpose2d, Tensor(x), Tensor(w), stride=stride, padding=padding)
        oracle = conv_transpose_oracle(x, w, stride, padding)
        assert out.data.shape == oracle.shape
        assert np.abs(out.data - oracle).max() < 1e-12


def test_conv_transpose_doubles_spatial_size():
    x = Tensor(np.zeros((1, 4, 8, 8)))
    w = Tensor(np.zeros((4, 2, 4, 4)))
    out = nchw(conv_transpose2d, x, w, stride=2, padding=1)
    assert out.shape == (1, 2, 16, 16)


def test_conv_transpose_adjoint_identity():
    # <conv(x), y> == <x, conv_transpose(y)> for matching kernels
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 3, 6, 6))
    w = rng.normal(size=(4, 3, 4, 4))
    y = rng.normal(size=(2, 4, 3, 3))
    cx = nchw(conv2d, Tensor(x), Tensor(w), stride=2, padding=1).data
    cty = nchw(conv_transpose2d, Tensor(y), Tensor(w.transpose(0, 1, 2, 3)), stride=2, padding=1)
    # kernel for the adjoint keeps (K, C) layout as (in, out)
    assert np.isclose((cx * y).sum(), (x * cty.data).sum(), rtol=1e-12)


def rel_close(a, b, rtol=1e-12):
    return abs(a - b) <= rtol * max(abs(a), abs(b))


# every kernel size, stride and padding the lowering must handle: the col2im
# crop padding:padding+h differs at each padding, 0 included
KERNEL_CASES = [(k, s, p) for k in (3, 4) for s in (1, 2) for p in (0, 1, 2)]


@pytest.mark.parametrize("k,stride,padding", KERNEL_CASES)
def test_conv2d_adjoint_identities(k, stride, padding):
    # <conv(x), g> = <x, dx(g)> = <w, dw(x, g)>, on non-square maps with C != K
    rng = np.random.default_rng(20 + k * 10 + stride * 3 + padding)
    oh, ow = 3, 4
    h = (oh - 1) * stride + k - 2 * padding
    width = (ow - 1) * stride + k - 2 * padding
    x = Tensor(rng.normal(size=(2, 2, h, width)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2, k, k)), requires_grad=True)
    g = rng.normal(size=(2, 3, oh, ow))
    out = nchw(conv2d, x, w, stride=stride, padding=padding)
    assert out.shape == g.shape
    assert np.abs(out.data - conv_oracle(x.data, w.data, stride, padding)).max() < 1e-12
    probe(out, g).backward()
    inner = (out.data * g).sum()
    assert rel_close(inner, (x.data * x.grad).sum())
    assert rel_close(inner, (w.data * w.grad).sum())


@pytest.mark.parametrize("k,stride,padding", KERNEL_CASES)
def test_conv_transpose2d_oracle_and_adjoint_identities(k, stride, padding):
    rng = np.random.default_rng(50 + k * 10 + stride * 3 + padding)
    x = Tensor(rng.normal(size=(2, 3, 3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2, k, k)), requires_grad=True)
    out = nchw(conv_transpose2d, x, w, stride=stride, padding=padding)
    oracle = conv_transpose_oracle(x.data, w.data, stride, padding)
    assert out.shape == oracle.shape
    assert np.abs(out.data - oracle).max() < 1e-12
    g = rng.normal(size=out.shape)
    probe(out, g).backward()
    inner = (out.data * g).sum()
    assert rel_close(inner, (x.data * x.grad).sum())
    assert rel_close(inner, (w.data * w.grad).sum())


# ---------------------------------------------------------------------------
# conv2d's planes: an input stacked over constant condition planes

def condition_channels(values, cardinality, h, w):
    """The oracle's planes: the encoded condition broadcast to (N, D, h, w)."""
    vec = encode_condition_vector(values, cardinality)
    return np.broadcast_to(vec[:, :, None, None], (vec.shape[0], vec.shape[1], h, w)).copy()


def test_conv2d_planes_matches_concat_oracle():
    ch = condition_channels([1, 0], 2, 4, 4)
    assert ch.shape == (2, 2, 4, 4)
    assert np.all(ch[0, 1] == 1.0) and np.all(ch[0, 0] == 0.0)
    assert np.all(ch[1, 0] == 1.0) and np.all(ch[1, 1] == 0.0)

    rng = np.random.default_rng(30)
    h, width = 6, 8
    for values, cardinality in [([2, 0, 1], 3), ([0.3, 0.9, 0.0], 0), ([1], 3), ([0.6], 0)]:
        n = len(values)
        planes = encode_condition_vector(values, cardinality)
        x = rng.normal(size=(n, 1, h, width))
        w = rng.normal(size=(5, 1 + planes.shape[1], 4, 4))
        stacked = np.concatenate([x, condition_channels(values, cardinality, h, width)], axis=1)
        for stride in (1, 2):
            for padding in (0, 1, 2):
                out = nchw(conv2d, Tensor(x), Tensor(w), stride, padding, planes=planes).data
                ref = nchw(conv2d, Tensor(stacked), Tensor(w), stride, padding).data
                assert out.shape == ref.shape
                assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()


def test_conv2d_rejects_mismatched_channels_and_planes():
    x = Tensor(np.zeros((2, 1, 4, 4)))
    w = Tensor(np.zeros((3, 3, 2, 2)))
    with pytest.raises(DimensionError, match="kernel channels"):
        nchw(conv2d, x, w)  # 1 channel for a 3-channel kernel, no planes
    with pytest.raises(DimensionError, match="kernel channels"):
        nchw(conv2d, x, w, planes=np.zeros((2, 1)))  # 1 + 1 channels for a 3-channel kernel
    with pytest.raises(DimensionError, match="kernel channels"):
        nchw(conv2d, x, w, planes=np.zeros((2, 0)))  # 1 + 0 channels
    with pytest.raises(DimensionError, match="planes"):
        nchw(conv2d, x, w, planes=np.zeros((3, 2)))  # batch 3 against 2
    with pytest.raises(DimensionError, match="planes"):
        nchw(conv2d, x, w, planes=np.zeros(4))  # not (N, D)


def test_gradcheck_conv2d_planes():
    rng = np.random.default_rng(31)
    bias_rng = np.random.default_rng(131)   # keeps rng's draws those of the bias-free cases
    for values, cardinality, stride, padding in [([2, 0], 3, 2, 1), ([0.2, 0.7], 0, 1, 2)]:
        planes = encode_condition_vector(values, cardinality)
        x = Tensor(rng.normal(size=(2, 1, 6, 4)), requires_grad=True)
        w = Tensor(rng.normal(0, 0.5, size=(3, 1 + planes.shape[1], 4, 4)), requires_grad=True)
        r = Tensor(rng.normal(size=nchw(conv2d, x, w, stride, padding, planes=planes).shape))
        check(lambda: mean(nchw(conv2d, x, w, stride, padding, planes=planes) * r),
              {"x": x, "w": w}, 1e-6)
        b = Tensor(bias_rng.normal(0, 0.5, size=(1, 3, 1, 1)), requires_grad=True)
        check(lambda: mean(nchw(conv2d, x, w, stride, padding, bias=b, planes=planes) * r),
              {"x": x, "w": w, "b": b}, 1e-6)


# ---------------------------------------------------------------------------
# frozen parameters

def test_frozen_params_get_no_gradient_and_others_are_unchanged():
    rng = np.random.default_rng(32)
    x = rng.normal(size=(2, 2, 6, 6))
    w1 = Tensor(rng.normal(size=(3, 2, 4, 4)), requires_grad=True)
    w2 = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
    r = Tensor(rng.normal(size=(2, 4, 3, 3)))

    def loss():
        h = leaky_relu(nchw(conv2d, Tensor(x), w1, stride=2, padding=1))
        return mean(nchw(conv2d, h, w2, stride=1, padding=1) * r)

    loss().backward()
    expected = w1.grad.copy()
    w1.zero_grad()
    w2.zero_grad()
    with frozen([w2]):
        graph = loss()
    assert w2.requires_grad
    graph.backward()
    assert w2.grad is None
    assert np.array_equal(w1.grad, expected)


def test_frozen_restores_requires_grad_when_body_raises():
    a = Tensor(np.ones(2), requires_grad=True)
    b = Tensor(np.ones(2), requires_grad=False)
    with pytest.raises(RuntimeError):
        with frozen([a, b]):
            assert not a.requires_grad and not b.requires_grad
            raise RuntimeError("body failed")
    assert a.requires_grad and not b.requires_grad


# ---------------------------------------------------------------------------
# backward: closed-form cases

def test_backward_mean_gradient():
    x = Tensor(np.arange(12, dtype=float).reshape(3, 4), requires_grad=True)
    mean(x).backward()
    assert np.allclose(x.grad, np.full((3, 4), 1 / 12))


def test_backward_half_sum_of_squares():
    rng = np.random.default_rng(4)
    data = rng.normal(size=(5,))
    x = Tensor(data, requires_grad=True)
    loss = probe(x * x, np.full(5, 0.5))
    loss.backward()
    assert np.allclose(x.grad, data, atol=1e-12)


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(DimensionError):
        (x * 2.0).backward()


def test_backward_accumulates_without_reset():
    x = Tensor(np.ones(4), requires_grad=True)
    mean(x).backward()
    first = x.grad.copy()
    mean(x).backward()
    assert np.allclose(x.grad, 2 * first)
    x.zero_grad()
    mean(x).backward()
    assert np.allclose(x.grad, first)


def test_backward_shared_subexpression():
    x = Tensor(np.array([3.0]), requires_grad=True)
    y = x * x  # used twice below
    loss = probe(y + y, np.ones(1))
    loss.backward()
    assert x.grad[0] == pytest.approx(12.0)  # d/dx 2x^2 = 4x


# ---------------------------------------------------------------------------
# finite-difference gradient checks per primitive

def check(fn, params, tol):
    report = grad_check(fn, params)
    assert report.max_rel_err < tol, str(report)
    return report


def test_gradcheck_linear_layer():
    rng = np.random.default_rng(5)
    w = Tensor(rng.normal(0, 0.5, size=(4, 3)), requires_grad=True)
    b = Tensor(rng.normal(0, 0.5, size=(3,)), requires_grad=True)
    x = rng.normal(size=(6, 4))
    r = rng.normal(size=(6, 3))
    check(lambda: mean((linear(Tensor(x), w) + b) * Tensor(r)),
          {"w": w, "b": b}, 1e-8)
    check(lambda: mean(linear(Tensor(x), w, b) * Tensor(r)), {"w": w, "b": b}, 1e-8)
    # x's gradient misses 1e-8 on roundoff alone (1.8e-8 at this seed), so it
    # is held to the 1e-6 of the other primitives
    xt = Tensor(x, requires_grad=True)
    check(lambda: mean(linear(xt, w, b) * Tensor(r)), {"x": xt}, 1e-6)


def test_gradcheck_conv2d():
    rng = np.random.default_rng(6)
    w = Tensor(rng.normal(0, 0.5, size=(3, 2, 3, 3)), requires_grad=True)
    b = Tensor(rng.normal(0, 0.5, size=(1, 3, 1, 1)), requires_grad=True)
    x = rng.normal(size=(2, 2, 5, 5))
    r = rng.normal(size=(2, 3, 3, 3))
    check(lambda: mean((nchw(conv2d, Tensor(x), w, stride=2, padding=1) + b) * Tensor(r)),
          {"w": w, "b": b}, 1e-6)
    xt = Tensor(x, requires_grad=True)
    check(lambda: mean(nchw(conv2d, xt, w, stride=2, padding=1, bias=b) * Tensor(r)),
          {"x": xt, "w": w, "b": b}, 1e-6)


def test_gradcheck_conv_transpose2d():
    rng = np.random.default_rng(7)
    w = Tensor(rng.normal(0, 0.5, size=(2, 3, 4, 4)), requires_grad=True)
    x = rng.normal(size=(2, 2, 3, 3))
    r = rng.normal(size=(2, 3, 6, 6))
    check(lambda: mean(nchw(conv_transpose2d, Tensor(x), w, stride=2, padding=1) * Tensor(r)),
          {"w": w}, 1e-6)
    xt = Tensor(x, requires_grad=True)
    b = Tensor(rng.normal(0, 0.5, size=(1, 3, 1, 1)), requires_grad=True)
    check(lambda: mean(nchw(conv_transpose2d, xt, w, stride=2, padding=1, bias=b)
                       * Tensor(r)), {"x": xt, "w": w, "b": b}, 1e-6)


def _biased_op(op, stride, padding, rng):
    """(op(x, w, bias=None), x, w) of a small case with 5 output channels."""
    if op == "conv_transpose2d":
        return (lambda x, w, **kw: conv_transpose2d(x, w, stride, padding, **kw),
                rng.normal(size=(2, 4, 4, 3)), rng.normal(size=(2, 5, 4, 4)))
    if op == "conv2d":
        return (lambda x, w, **kw: conv2d(x, w, stride, padding, **kw),
                rng.normal(size=(2, 6, 6, 3)), rng.normal(size=(5, 2, 4, 4)))
    planes = rng.normal(size=(3, 2))
    return (lambda x, w, **kw: conv2d(x, w, stride, padding, planes=planes, **kw),
            rng.normal(size=(2, 6, 6, 3)), rng.normal(size=(5, 4, 4, 4)))


@pytest.mark.parametrize("stride, padding", [(1, 0), (2, 1)])
@pytest.mark.parametrize("op", ["conv2d", "conv2d_planes", "conv_transpose2d"])
def test_conv_bias_equals_reshape_add_bit_for_bit(op, stride, padding):
    # the bias added inside the op gives the numbers of the op followed by a
    # reshape and an add node, forward and every gradient
    rng = np.random.default_rng(41)
    fn, xd, wd = _biased_op(op, stride, padding, rng)
    bd = rng.normal(size=(1, 5, 1, 1))
    r = Tensor(rng.normal(size=fn(Tensor(xd), Tensor(wd)).shape))

    def run(inside):
        x, w, b = (Tensor(a, requires_grad=True) for a in (xd, wd, bd))
        out = fn(x, w, bias=b) if inside else fn(x, w) + b.reshape(-1, 1, 1, 1)
        mean(out * r).backward()
        return out.data, x.grad, w.grad, b.grad

    inside, composed = run(True), run(False)
    assert inside[3].shape == (1, 5, 1, 1)
    assert all(np.array_equal(a, c) for a, c in zip(inside, composed))


def test_linear_equals_matmul_add_bit_for_bit():
    rng = np.random.default_rng(42)
    xd, wd, bd = rng.normal(size=(7, 4)), rng.normal(size=(4, 3)), rng.normal(size=(3,))
    r = Tensor(rng.normal(size=(7, 3)))

    def run(inside):
        x, w, b = (Tensor(a, requires_grad=True) for a in (xd, wd, bd))
        out = linear(x, w, b) if inside else linear(x, w) + b
        mean(out * r).backward()
        return out.data, x.grad, w.grad, b.grad

    inside, composed = run(True), run(False)
    assert all(np.array_equal(a, c) for a, c in zip(inside, composed))


def test_linear_rejects_mismatched_inner_dims():
    # x's A must be w's A, or numpy's matmul would raise its own ValueError
    for x, w in ((np.zeros((2, 3)), np.zeros((4, 5))), (np.zeros((2, 5)), np.zeros((4, 5)))):
        with pytest.raises(DimensionError, match="linear expects"):
            linear(x, w, np.zeros(5))


def test_matmul_rejects_mismatched_inner_dims():
    # the bare matrix product is linear without a bias
    for x, w in ((np.zeros((2, 3)), np.zeros((4, 5))), (np.zeros((2, 5)), np.zeros((4, 5)))):
        with pytest.raises(DimensionError, match="linear expects"):
            linear(x, w)


def test_bias_ops_reject_misshapen_biases():
    with pytest.raises(DimensionError):
        linear(np.ones((2, 4)), np.ones((4, 3)), np.ones(2))
    with pytest.raises(DimensionError):
        linear(np.ones((2, 4)), np.ones((4, 3)), np.ones((1, 3)))
    with pytest.raises(DimensionError):
        conv2d(np.ones((2, 6, 6, 3)), np.ones((5, 2, 4, 4)), bias=np.ones((1, 4, 1, 1)))


def test_conv_transpose2d_gradients_do_not_depend_on_which_inputs_need_them():
    # the x link builds g's patch matrix and the w link reuses it; each
    # gradient must be the same when the other input needs none
    rng = np.random.default_rng(12)
    xd = rng.normal(size=(2, 3, 3, 4))
    wd = rng.normal(size=(2, 3, 4, 4))
    r = Tensor(rng.normal(size=(3, 6, 6, 4)))

    def grads(x_grad, w_grad, passes=1):
        # a graph serves one backward, so each pass builds it again
        x = Tensor(xd, requires_grad=x_grad)
        w = Tensor(wd, requires_grad=w_grad)
        for _ in range(passes):
            mean(conv_transpose2d(x, w, stride=2, padding=1) * r).backward()
        return x.grad, w.grad

    gx, gw = grads(True, True)
    assert np.array_equal(grads(True, False)[0], gx)
    assert np.array_equal(grads(False, True)[1], gw)
    gx2, gw2 = grads(True, True, passes=2)
    assert np.array_equal(gx2, 2 * gx) and np.array_equal(gw2, 2 * gw)


def test_conv_transpose2d_copies_a_strided_input_once(monkeypatch):
    # the generator hands up1 a transposed view: the forward and the w link
    # read one C-contiguous copy of it, and nothing else reshapes a copy
    rng = np.random.default_rng(13)
    xd = rng.normal(size=(4, 3, 3, 2)).transpose(3, 1, 2, 0)   # (2, 3, 3, 4), strided
    wd = rng.normal(size=(2, 3, 4, 4))
    r = Tensor(rng.normal(size=(3, 6, 6, 4)))
    seen = []
    for name, x_at in (("_conv_dx", 0), ("_conv_dw", 1)):   # where each takes x
        kernel = getattr(autodiff, name)

        def recording(*args, _kernel=kernel, _x_at=x_at, **kwargs):
            seen.append((args[_x_at].flags.c_contiguous, args[_x_at].ctypes.data))
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(autodiff, name, recording)

    def run(data):
        x, w = Tensor(data, requires_grad=True), Tensor(wd, requires_grad=True)
        out = conv_transpose2d(x, w, stride=2, padding=1)
        mean(out * r).backward()
        return out.data, x.grad, w.grad

    strided = run(xd)
    assert [flag for flag, _ in seen] == [True, True] and seen[0][1] == seen[1][1]
    contiguous = run(np.ascontiguousarray(xd))
    assert all(np.array_equal(a, b) for a, b in zip(strided, contiguous))


def test_a_second_backward_on_one_graph_raises_before_any_grad_changes():
    # the first backward drops each node's links as it routes them; a second
    # one over the same graph, or over a graph that shares a used node, must
    # refuse during its traversal, before any leaf accumulates
    rng = np.random.default_rng(15)
    x = Tensor(rng.normal(size=(2, 6, 6, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 2, 3, 3)), requires_grad=True)
    v = Tensor(rng.normal(size=(4,)), requires_grad=True)
    h = leaky_relu(conv2d(x, w, padding=1))
    loss = mean(h)
    loss.backward()
    before = {name: t.grad.copy() for name, t in (("x", x), ("w", w))}
    # v's path to the new root is fresh: only the traversal keeps v.grad None
    shared = mean(linear(Tensor(np.ones((1, 4))), v.reshape(4, 1)) + mean(h))
    for graph in (loss, shared):
        with pytest.raises(ParameterError, match="rebuild the graph"):
            graph.backward()
        assert v.grad is None
        for name, t in (("x", x), ("w", w)):
            assert np.array_equal(t.grad, before[name])


def test_gradcheck_activations():
    rng = np.random.default_rng(8)
    # keep leaky-relu inputs away from the kink
    data = rng.normal(size=(4, 5))
    data[np.abs(data) < 1e-3] = 0.1
    x = Tensor(data, requires_grad=True)
    r = rng.normal(size=(4, 5))
    check(lambda: mean(leaky_relu(x) * Tensor(r)), {"x": x}, 1e-6)
    check(lambda: mean(sigmoid(x) * Tensor(r)), {"x": x}, 1e-6)


def test_gradcheck_log_clamped():
    rng = np.random.default_rng(9)
    x = Tensor(rng.uniform(0.05, 0.95, size=(8,)), requires_grad=True)
    check(lambda: mean(log_clamped(x)), {"x": x}, 1e-6)


def test_gradcheck_reshape_concat():
    rng = np.random.default_rng(10)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    r = rng.normal(size=(18,))
    check(lambda: mean(reshape(concat([a, b], axis=1), 18) * Tensor(r)),
          {"a": a, "b": b}, 1e-6)


def test_gradcheck_transpose_negative_axes():
    # a negative axis counts from the end, in the gradient's inverse as well
    rng = np.random.default_rng(13)
    for shape, axes in (((3, 3), (-1, 0)), ((2, 3, 4), (-1, 0, 1)), ((2, 3, 4), (1, -1, -3))):
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        r = Tensor(rng.normal(size=np.transpose(x.data, axes).shape))
        assert np.array_equal(transpose(x, axes).data, np.transpose(x.data, axes))
        check(lambda: mean(transpose(x, axes) * r), {"x": x}, 1e-6)


def test_transpose_rejects_non_permutations():
    x = Tensor(np.ones((2, 3)))
    for axes in ((0, 0), (1,), (0, 1, 2), (0, -3), (-1, -2, 0)):
        with pytest.raises(DimensionError, match="permutation"):
            transpose(x, axes)


def test_graph_does_not_pin_arrays_backward_does_not_read():
    # D's two conv layers, conv2's kernel frozen as in G's update. leaky_relu
    # keeps a bool mask and mean a shape, so each op result dies with its
    # Tensor; with the kernel frozen, conv2's x link keeps its input's shape,
    # not the input. The graph still gives the right gradients.
    rng = np.random.default_rng(14)
    x = Tensor(rng.normal(size=(2, 8, 8, 3)), requires_grad=True)
    w1 = Tensor(rng.normal(size=(4, 2, 4, 4)), requires_grad=True)
    w2 = Tensor(rng.normal(size=(5, 4, 4, 4)), requires_grad=True)
    r = Tensor(rng.normal(size=(5, 2, 2, 3)))

    def loss(dropped=None):
        pre1 = conv2d(x, w1, stride=2, padding=1)
        h1 = leaky_relu(pre1)
        with frozen([w2]):
            pre2 = conv2d(h1, w2, stride=2, padding=1)
        h2 = leaky_relu(pre2)
        prod = h2 * r
        if dropped is not None:
            dropped.extend(weakref.ref(t.data) for t in (pre1, h1, pre2, h2, prod))
        return mean(prod)

    dropped = []
    graph = loss(dropped)
    assert all(ref() is None for ref in dropped)
    graph.backward()
    assert x.grad is not None and w1.grad is not None and w2.grad is None
    check(loss, {"x": x, "w1": w1}, 1e-6)


def test_a_linked_leaf_dies_with_its_last_reference():
    # a graph links to a leaf Tensor itself, and the leaf keeps no node, so no
    # reference cycle holds a dropped parameter until the cycle collector runs
    w = Tensor(np.ones((3, 2)), requires_grad=True)
    mean(linear(Tensor(np.ones((4, 3))), w)).backward()
    data = weakref.ref(w.data)
    del w
    assert data() is None


def test_gradcheck_three_layer_network():
    rng = np.random.default_rng(11)
    w1 = Tensor(rng.normal(0, 0.4, size=(6, 8)), requires_grad=True)
    b1 = Tensor(np.zeros(8), requires_grad=True)
    w2 = Tensor(rng.normal(0, 0.4, size=(8, 5)), requires_grad=True)
    b2 = Tensor(np.zeros(5), requires_grad=True)
    w3 = Tensor(rng.normal(0, 0.4, size=(5, 1)), requires_grad=True)
    x = rng.normal(size=(7, 6))

    def forward():
        h1 = leaky_relu(linear(Tensor(x), w1) + b1)
        h2 = sigmoid(linear(h1, w2) + b2)
        return mean(sigmoid(linear(h2, w3)))

    check(forward, {"w1": w1, "b1": b1, "w2": w2, "b2": b2, "w3": w3}, 1e-6)


# ---------------------------------------------------------------------------
# log clamp behavior

@pytest.mark.parametrize("failing_call", [2, 3])
def test_grad_check_restores_the_parameter_when_fn_raises(failing_call):
    # call 1 is the analytic pass; calls 2 and 3 are the first value's f(p+h)
    # and f(p-h), each made with that value perturbed
    rng = np.random.default_rng(19)
    params = {"a": Tensor(rng.normal(size=(2, 3)), requires_grad=True),
              "b": Tensor(rng.normal(size=3), requires_grad=True)}
    before = {name: t.data.copy() for name, t in params.items()}
    calls = []

    def fn():
        calls.append(None)
        if len(calls) == failing_call:
            raise RuntimeError("fn failed")
        return mean(linear(params["a"], params["b"].reshape(3, 1)))

    with pytest.raises(RuntimeError, match="fn failed"):
        grad_check(fn, params)
    for name, t in params.items():
        assert np.array_equal(t.data, before[name])


def test_log_clamp_finite_at_zero():
    x = Tensor(np.array([0.0, 1e-15, 0.5, 1.0]))
    out = log_clamped(x)
    assert np.all(np.isfinite(out.data))
    assert out.data[0] == pytest.approx(np.log(1e-12))


def test_log_clamp_zero_gradient_below_floor():
    x = Tensor(np.array([0.0, 0.5]), requires_grad=True)
    probe(log_clamped(x), np.ones(2)).backward()
    assert x.grad[0] == 0.0
    assert x.grad[1] == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# Adam

def test_adam_zero_gradient_keeps_params():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    state = AdamState.for_params([p])
    p.grad = np.zeros(2)
    adam_step([p], state, lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
    assert np.array_equal(p.data, np.array([1.0, -2.0]))
    assert state.step == 1


def test_adam_first_step_is_signed_lr():
    p = Tensor(np.array([0.5]), requires_grad=True)
    state = AdamState.for_params([p])
    p.grad = np.array([3.0])
    adam_step([p], state, lr=0.1, beta1=0.9, beta2=0.999, eps=1e-12)
    assert p.data[0] == pytest.approx(0.5 - 0.1, abs=1e-6)


def test_adam_descends_quadratic():
    p = Tensor(np.array([1.0]), requires_grad=True)
    state = AdamState.for_params([p])
    values = [abs(p.data[0])]
    for _ in range(10):
        p.grad = 2.0 * p.data
        adam_step([p], state, lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
        values.append(abs(p.data[0]))
    assert all(b < a for a, b in zip(values, values[1:]))


def test_adam_blocks_give_the_whole_array_expression_bit_for_bit(monkeypatch):
    # blocks of 5 values: a 4x3 parameter spans three blocks, the last one
    # short; a transposed (not C-contiguous) parameter is one block; a
    # parameter without a gradient moves as under a zero gradient
    monkeypatch.setattr(autodiff, "ADAM_BLOCK_VALUES", 5)
    rng = np.random.default_rng(20)
    params = [Tensor(rng.normal(size=(4, 3)), requires_grad=True),
              Tensor(rng.normal(size=(3, 4)).T, requires_grad=True),
              Tensor(rng.normal(size=2), requires_grad=True),
              Tensor(rng.normal(size=7), requires_grad=True)]
    state = AdamState.for_params(params)
    data = [p.data.copy() for p in params]
    m = [np.zeros_like(d) for d in data]
    v = [np.zeros_like(d) for d in data]
    lr, beta1, beta2, eps = 0.01, 0.5, 0.999, 1e-8
    for step in range(1, 4):
        grads = [rng.normal(size=d.shape) for d in data[:3]] + [np.zeros(7)]
        for p, g in zip(params[:3], grads):
            p.grad = g
        bc1, bc2 = 1.0 - beta1**step, 1.0 - beta2**step
        for d, g, mi, vi in zip(data, grads, m, v):
            mi *= beta1
            mi += (1.0 - beta1) * g
            vi *= beta2
            vi += (1.0 - beta2) * g * g
            d -= lr * (mi / bc1) / (np.sqrt(vi / bc2) + eps)
        adam_step(params, state, lr, beta1, beta2, eps)
        for p, d, mi, vi, ms, vs in zip(params, data, m, v, state.m, state.v):
            assert np.array_equal(p.data, d)
            assert np.array_equal(ms, mi) and np.array_equal(vs, vi)


def test_adam_shape_mismatch():
    # the second gradient is misshapen: the error must leave the first
    # parameter, every moment and the step count as they were
    first = Tensor(np.ones((2, 2)), requires_grad=True)
    second = Tensor(np.zeros((2, 2)), requires_grad=True)
    state = AdamState.for_params([first, second])
    first.grad = np.full((2, 2), 3.0)
    second.grad = np.zeros(3)
    with pytest.raises(DimensionError):
        adam_step([first, second], state, lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
    assert state.step == 0
    assert np.array_equal(first.data, np.ones((2, 2)))
    assert np.array_equal(second.data, np.zeros((2, 2)))
    for moment in state.m + state.v:
        assert np.array_equal(moment, np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# determinism and properties

def test_forward_deterministic():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(2, 3, 8, 8))
    w = rng.normal(size=(4, 3, 3, 3))
    a = nchw(conv2d, Tensor(x), Tensor(w), stride=1, padding=1).data
    b = nchw(conv2d, Tensor(x), Tensor(w), stride=1, padding=1).data
    assert np.array_equal(a, b)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_matmul_gradient_identity(seed):
    rng = np.random.default_rng(seed)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    ones = np.ones((3, 2))
    probe(linear(a, b), ones).backward()
    assert np.allclose(a.grad, ones @ b.data.T, atol=1e-12)
    assert np.allclose(b.grad, a.data.T @ ones, atol=1e-12)
