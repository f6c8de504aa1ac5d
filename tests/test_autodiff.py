"""Autodiff primitive tests: forward oracles and finite-difference gradients."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from topogan.autodiff import (
    AdamState,
    Tensor,
    adam_step,
    clamp,
    concat,
    conv2d,
    conv2d_planes,
    conv_transpose2d,
    frozen,
    grad_check,
    leaky_relu,
    log_clamped,
    matmul,
    mean,
    reshape,
    sigmoid,
    tanh,
    tensor_sum,
)
from topogan.exceptions import ContractError, DimensionError
from topogan.nets import encode_condition_vector


# ---------------------------------------------------------------------------
# forward oracles

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


# ---------------------------------------------------------------------------
# conv2d forward

def test_conv_ones_sums_window():
    x = Tensor(np.ones((1, 1, 3, 3)))
    w = Tensor(np.ones((1, 1, 3, 3)))
    out = conv2d(x, w)
    assert out.shape == (1, 1, 1, 1)
    assert out.item() == pytest.approx(9.0)


def test_conv_identity_kernel():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 1, 5, 5))
    w = np.zeros((1, 1, 3, 3))
    w[0, 0, 1, 1] = 1.0
    out = conv2d(Tensor(x), Tensor(w), stride=1, padding=1)
    assert np.allclose(out.data, x)


def test_conv_matches_loop_oracle():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(1, 2, 5, 5))
    w = rng.normal(size=(3, 2, 3, 3))
    for stride, padding in [(1, 0), (1, 1), (2, 1)]:
        out = conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding)
        assert np.abs(out.data - conv_oracle(x, w, stride, padding)).max() < 1e-12


def test_conv_rejects_non_integral_output():
    x = Tensor(np.zeros((1, 1, 5, 5)))
    w = Tensor(np.zeros((1, 1, 2, 2)))
    with pytest.raises(DimensionError):
        conv2d(x, w, stride=2, padding=0)


def test_conv_transpose_matches_scatter_oracle():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 3, 4, 4))
    w = rng.normal(size=(3, 2, 4, 4))
    for stride, padding in [(1, 0), (2, 1)]:
        out = conv_transpose2d(Tensor(x), Tensor(w), stride=stride, padding=padding)
        oracle = conv_transpose_oracle(x, w, stride, padding)
        assert out.data.shape == oracle.shape
        assert np.abs(out.data - oracle).max() < 1e-12


def test_conv_transpose_doubles_spatial_size():
    x = Tensor(np.zeros((1, 4, 8, 8)))
    w = Tensor(np.zeros((4, 2, 4, 4)))
    out = conv_transpose2d(x, w, stride=2, padding=1)
    assert out.shape == (1, 2, 16, 16)


def test_conv_transpose_adjoint_identity():
    # <conv(x), y> == <x, conv_transpose(y)> for matching kernels
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 3, 6, 6))
    w = rng.normal(size=(4, 3, 4, 4))
    y = rng.normal(size=(2, 4, 3, 3))
    cx = conv2d(Tensor(x), Tensor(w), stride=2, padding=1).data
    cty = conv_transpose2d(Tensor(y), Tensor(w.transpose(0, 1, 2, 3)), stride=2, padding=1)
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
    out = conv2d(x, w, stride=stride, padding=padding)
    assert out.shape == g.shape
    assert np.abs(out.data - conv_oracle(x.data, w.data, stride, padding)).max() < 1e-12
    tensor_sum(out * Tensor(g)).backward()
    inner = (out.data * g).sum()
    assert rel_close(inner, (x.data * x.grad).sum())
    assert rel_close(inner, (w.data * w.grad).sum())


@pytest.mark.parametrize("k,stride,padding", KERNEL_CASES)
def test_conv_transpose2d_oracle_and_adjoint_identities(k, stride, padding):
    rng = np.random.default_rng(50 + k * 10 + stride * 3 + padding)
    x = Tensor(rng.normal(size=(2, 3, 3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2, k, k)), requires_grad=True)
    out = conv_transpose2d(x, w, stride=stride, padding=padding)
    oracle = conv_transpose_oracle(x.data, w.data, stride, padding)
    assert out.shape == oracle.shape
    assert np.abs(out.data - oracle).max() < 1e-12
    g = rng.normal(size=out.shape)
    tensor_sum(out * Tensor(g)).backward()
    inner = (out.data * g).sum()
    assert rel_close(inner, (x.data * x.grad).sum())
    assert rel_close(inner, (w.data * w.grad).sum())


# ---------------------------------------------------------------------------
# conv2d_planes: conv2d of an input stacked over constant condition planes

def condition_channels(values, kind, cardinality, h, w):
    """The oracle's planes: the encoded condition broadcast to (N, D, h, w)."""
    vec = encode_condition_vector(values, kind, cardinality)
    return np.broadcast_to(vec[:, :, None, None], (vec.shape[0], vec.shape[1], h, w)).copy()


def test_conv2d_planes_matches_concat_oracle():
    ch = condition_channels([1, 0], "class", 2, 4, 4)
    assert ch.shape == (2, 2, 4, 4)
    assert np.all(ch[0, 1] == 1.0) and np.all(ch[0, 0] == 0.0)
    assert np.all(ch[1, 0] == 1.0) and np.all(ch[1, 1] == 0.0)

    rng = np.random.default_rng(30)
    h, width = 6, 8
    for values, kind, cardinality in [([2, 0, 1], "class", 3), ([0.3, 0.9, 0.0], "continuous", 0),
                                      ([1], "class", 3), ([0.6], "continuous", 0)]:
        n = len(values)
        planes = encode_condition_vector(values, kind, cardinality)
        x = rng.normal(size=(n, 1, h, width))
        w = rng.normal(size=(5, 1 + planes.shape[1], 4, 4))
        stacked = np.concatenate([x, condition_channels(values, kind, cardinality, h, width)],
                                 axis=1)
        for stride in (1, 2):
            for padding in (0, 1, 2):
                out = conv2d_planes(Tensor(x), planes, Tensor(w), stride, padding).data
                ref = conv2d(Tensor(stacked), Tensor(w), stride, padding).data
                assert out.shape == ref.shape
                assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()


def test_conv2d_planes_rejects_mismatched_planes():
    x = Tensor(np.zeros((2, 1, 4, 4)))
    w = Tensor(np.zeros((3, 3, 2, 2)))
    with pytest.raises(DimensionError):
        conv2d_planes(x, np.zeros((2, 1)), w)       # 1 + 1 channels for a 3-channel kernel
    with pytest.raises(DimensionError):
        conv2d_planes(x, np.zeros((3, 2)), w)       # batch 3 against 2


def test_gradcheck_conv2d_planes():
    rng = np.random.default_rng(31)
    for values, kind, cardinality, stride, padding in [([2, 0], "class", 3, 2, 1),
                                                       ([0.2, 0.7], "continuous", 0, 1, 2)]:
        planes = encode_condition_vector(values, kind, cardinality)
        x = Tensor(rng.normal(size=(2, 1, 6, 4)), requires_grad=True)
        w = Tensor(rng.normal(0, 0.5, size=(3, 1 + planes.shape[1], 4, 4)), requires_grad=True)
        r = Tensor(rng.normal(size=conv2d_planes(x, planes, w, stride, padding).shape))
        check(lambda: mean(conv2d_planes(x, planes, w, stride, padding) * r),
              {"x": x, "w": w}, 1e-6)


# ---------------------------------------------------------------------------
# frozen parameters

def test_frozen_params_get_no_gradient_and_others_are_unchanged():
    rng = np.random.default_rng(32)
    x = rng.normal(size=(2, 2, 6, 6))
    w1 = Tensor(rng.normal(size=(3, 2, 4, 4)), requires_grad=True)
    w2 = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
    r = Tensor(rng.normal(size=(2, 4, 3, 3)))

    def loss():
        h = leaky_relu(conv2d(Tensor(x), w1, stride=2, padding=1))
        return mean(conv2d(h, w2, stride=1, padding=1) * r)

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
    loss = tensor_sum(x * x) * 0.5
    loss.backward()
    assert np.allclose(x.grad, data, atol=1e-12)


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ContractError):
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
    loss = tensor_sum(y + y)
    loss.backward()
    assert x.grad[0] == pytest.approx(12.0)  # d/dx 2x^2 = 4x


def test_detach_blocks_gradient():
    x = Tensor(np.ones(3), requires_grad=True)
    loss = mean(x.detach() * 2.0 + x)
    loss.backward()
    assert np.allclose(x.grad, np.full(3, 1 / 3))


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
    check(lambda: mean((matmul(Tensor(x), w) + b) * Tensor(r)),
          {"w": w, "b": b}, 1e-8)


def test_gradcheck_conv2d():
    rng = np.random.default_rng(6)
    w = Tensor(rng.normal(0, 0.5, size=(3, 2, 3, 3)), requires_grad=True)
    b = Tensor(rng.normal(0, 0.5, size=(1, 3, 1, 1)), requires_grad=True)
    x = rng.normal(size=(2, 2, 5, 5))
    r = rng.normal(size=(2, 3, 3, 3))
    check(lambda: mean((conv2d(Tensor(x), w, stride=2, padding=1) + b) * Tensor(r)),
          {"w": w, "b": b}, 1e-6)


def test_gradcheck_conv_transpose2d():
    rng = np.random.default_rng(7)
    w = Tensor(rng.normal(0, 0.5, size=(2, 3, 4, 4)), requires_grad=True)
    x = rng.normal(size=(2, 2, 3, 3))
    r = rng.normal(size=(2, 3, 6, 6))
    check(lambda: mean(conv_transpose2d(Tensor(x), w, stride=2, padding=1) * Tensor(r)),
          {"w": w}, 1e-6)


def test_gradcheck_activations():
    rng = np.random.default_rng(8)
    # keep leaky-relu inputs away from the kink
    data = rng.normal(size=(4, 5))
    data[np.abs(data) < 1e-3] = 0.1
    x = Tensor(data, requires_grad=True)
    r = rng.normal(size=(4, 5))
    check(lambda: mean(leaky_relu(x, 0.2) * Tensor(r)), {"x": x}, 1e-6)
    check(lambda: mean(sigmoid(x) * Tensor(r)), {"x": x}, 1e-6)
    check(lambda: mean(tanh(x) * Tensor(r)), {"x": x}, 1e-6)


def test_gradcheck_log_clamped():
    rng = np.random.default_rng(9)
    x = Tensor(rng.uniform(0.05, 0.95, size=(8,)), requires_grad=True)
    check(lambda: mean(log_clamped(x)), {"x": x}, 1e-6)


def test_gradcheck_reshape_concat_clamp():
    rng = np.random.default_rng(10)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    r = rng.normal(size=(18,))
    check(lambda: mean(reshape(concat([a, b], axis=1), 18) * Tensor(r)),
          {"a": a, "b": b}, 1e-6)
    c = Tensor(rng.uniform(0.2, 0.8, size=(6,)), requires_grad=True)
    check(lambda: mean(clamp(c, 0.0, 1.0) * Tensor(r[:6])), {"c": c}, 1e-6)


def test_gradcheck_three_layer_network():
    rng = np.random.default_rng(11)
    w1 = Tensor(rng.normal(0, 0.4, size=(6, 8)), requires_grad=True)
    b1 = Tensor(np.zeros(8), requires_grad=True)
    w2 = Tensor(rng.normal(0, 0.4, size=(8, 5)), requires_grad=True)
    b2 = Tensor(np.zeros(5), requires_grad=True)
    w3 = Tensor(rng.normal(0, 0.4, size=(5, 1)), requires_grad=True)
    x = rng.normal(size=(7, 6))

    def forward():
        h1 = leaky_relu(matmul(Tensor(x), w1) + b1)
        h2 = tanh(matmul(h1, w2) + b2)
        return mean(sigmoid(matmul(h2, w3)))

    check(forward, {"w1": w1, "b1": b1, "w2": w2, "b2": b2, "w3": w3}, 1e-6)


# ---------------------------------------------------------------------------
# log clamp behavior

def test_log_clamp_finite_at_zero():
    x = Tensor(np.array([0.0, 1e-15, 0.5, 1.0]))
    out = log_clamped(x)
    assert np.all(np.isfinite(out.data))
    assert out.data[0] == pytest.approx(np.log(1e-12))


def test_log_clamp_zero_gradient_below_floor():
    x = Tensor(np.array([0.0, 0.5]), requires_grad=True)
    tensor_sum(log_clamped(x)).backward()
    assert x.grad[0] == 0.0
    assert x.grad[1] == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# Adam

def test_adam_zero_gradient_keeps_params():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    state = AdamState.for_params([p], lr=0.1)
    adam_step([p], [np.zeros(2)], state)
    assert np.array_equal(p.data, np.array([1.0, -2.0]))
    assert state.step == 1


def test_adam_first_step_is_signed_lr():
    p = Tensor(np.array([0.5]), requires_grad=True)
    state = AdamState.for_params([p], lr=0.1, eps=1e-12)
    adam_step([p], [np.array([3.0])], state)
    assert p.data[0] == pytest.approx(0.5 - 0.1, abs=1e-6)


def test_adam_descends_quadratic():
    p = Tensor(np.array([1.0]), requires_grad=True)
    state = AdamState.for_params([p], lr=0.1)
    values = [abs(p.data[0])]
    for _ in range(10):
        adam_step([p], [2.0 * p.data], state)
        values.append(abs(p.data[0]))
    assert all(b < a for a, b in zip(values, values[1:]))


def test_adam_shape_mismatch():
    p = Tensor(np.zeros((2, 2)), requires_grad=True)
    state = AdamState.for_params([p])
    with pytest.raises(ContractError):
        adam_step([p], [np.zeros(3)], state)


# ---------------------------------------------------------------------------
# determinism and properties

def test_forward_deterministic():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(2, 3, 8, 8))
    w = rng.normal(size=(4, 3, 3, 3))
    a = conv2d(Tensor(x), Tensor(w), stride=1, padding=1).data
    b = conv2d(Tensor(x), Tensor(w), stride=1, padding=1).data
    assert np.array_equal(a, b)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_matmul_gradient_identity(seed):
    rng = np.random.default_rng(seed)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    tensor_sum(matmul(a, b)).backward()
    ones = np.ones((3, 2))
    assert np.allclose(a.grad, ones @ b.data.T, atol=1e-12)
    assert np.allclose(b.grad, a.data.T @ ones, atol=1e-12)
