"""Network construction, condition injection, and minibatch-feature tests."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_autodiff import conv_oracle, conv_transpose_oracle

from topogan.autodiff import AdamState, Tensor, adam_step, grad_check, linear, mean
from topogan.exceptions import ParameterError
from topogan.nets import (
    Discriminator,
    Generator,
    discriminator_shapes,
    encode_condition_vector,
    generator_shapes,
    minibatch_features,
)
from topogan.train import TrainConfig


def tiny_run(height=8, width=8, cardinality=2, **over):
    """(config, data) of a run with tiny nets on `height` x `width` images of
    `cardinality` classes (0: continuous conditions)."""
    base = dict(objective="cgan", steps=1, z_dim=5, gen_channels=(4, 3),
                disc_channels=(3, 4), feature_dim=6, minibatch_discrimination=True,
                minibatch_kernels=4, minibatch_dim=3)
    base.update(over)
    return TrainConfig(**base), {"height": height, "width": width, "cardinality": cardinality}


# ---------------------------------------------------------------------------
# minibatch features, against a brute-force oracle

def minibatch_oracle(f, t):
    """Triple-loop evaluation of the batch-similarity features."""
    n, a = f.shape
    _, b, c = t.shape
    m = np.einsum("na,abc->nbc", f, t)
    out = np.zeros((n, b))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for k in range(b):
                out[i, k] += np.exp(-np.abs(m[i, k] - m[j, k]).sum())
    return out


def test_minibatch_identical_rows():
    f = Tensor(np.tile(np.array([1.0, 2.0, 3.0]), (5, 1)))
    t = Tensor(np.random.default_rng(0).normal(size=(3, 2, 2)))
    out = minibatch_features(f, t)
    assert np.allclose(out.data, 4.0)


def test_minibatch_single_row_is_zero():
    f = Tensor(np.array([[1.0, -0.5, 2.0]]))
    t = Tensor(np.random.default_rng(1).normal(size=(3, 2, 2)))
    assert np.allclose(minibatch_features(f, t).data, 0.0)


def test_minibatch_matches_bruteforce_oracle():
    rng = np.random.default_rng(2)
    f = rng.normal(size=(4, 3))
    t = rng.normal(size=(3, 2, 2))
    out = minibatch_features(Tensor(f), Tensor(t))
    assert np.abs(out.data - minibatch_oracle(f, t)).max() < 1e-10


def test_minibatch_oracle_various_sizes():
    rng = np.random.default_rng(3)
    for n, a, b, c in [(2, 1, 1, 1), (8, 4, 4, 4), (5, 3, 2, 4)]:
        f = rng.normal(size=(n, a))
        t = rng.normal(size=(a, b, c))
        out = minibatch_features(Tensor(f), Tensor(t))
        assert np.abs(out.data - minibatch_oracle(f, t)).max() < 1e-10


def test_minibatch_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    f = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    t = Tensor(rng.normal(size=(3, 2, 2)), requires_grad=True)
    r = rng.normal(size=(4, 2))
    report = grad_check(lambda: mean(minibatch_features(f, t) * Tensor(r)),
                        {"f": f, "t": t})
    assert report.max_rel_err < 1e-6, str(report)


def test_minibatch_permutation_equivariant():
    rng = np.random.default_rng(5)
    f = rng.normal(size=(6, 3))
    t = rng.normal(size=(3, 4, 2))
    perm = rng.permutation(6)
    out = minibatch_features(Tensor(f), Tensor(t)).data
    out_p = minibatch_features(Tensor(f[perm]), Tensor(t)).data
    assert np.allclose(out_p, out[perm], atol=1e-12)


def test_minibatch_duplicate_row_adds_one():
    rng = np.random.default_rng(6)
    f = rng.normal(size=(5, 3))
    t = rng.normal(size=(3, 4, 2))
    base = minibatch_features(Tensor(f), Tensor(t)).data
    i = 2
    f_dup = np.vstack([f, f[i]])
    out = minibatch_features(Tensor(f_dup), Tensor(t)).data
    assert np.allclose(out[i], base[i] + 1.0, atol=1e-10)


def test_minibatch_backward_keeps_no_pairwise_channel_array():
    # forward and backward at N=64, A=64, B=32, C=8 stay below the 8 MiB of a
    # single (N, N, B, C) float64 array
    rng = np.random.default_rng(7)
    f = Tensor(rng.normal(size=(64, 64)), requires_grad=True)
    t = Tensor(rng.normal(0, 0.1, size=(64, 32, 8)), requires_grad=True)
    r = Tensor(rng.normal(size=(64, 32)))
    tracemalloc.start()
    try:
        mean(minibatch_features(f, t) * r).backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.grad.shape == (64, 64) and t.grad.shape == (64, 32, 8)
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 6))
def test_minibatch_permutation_property(seed, n):
    rng = np.random.default_rng(seed)
    f = rng.normal(size=(n, 3))
    t = rng.normal(size=(3, 2, 2))
    perm = rng.permutation(n)
    out = minibatch_features(Tensor(f), Tensor(t)).data
    out_p = minibatch_features(Tensor(f[perm]), Tensor(t)).data
    assert np.allclose(out_p, out[perm], atol=1e-12)


# ---------------------------------------------------------------------------
# condition encoding

def test_one_hot_encoding():
    enc = encode_condition_vector([0, 2, 1], 3)
    assert np.array_equal(enc, np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=float))
    for bad in ([1.5], [np.nan], [3], [-1]):   # NaN must fail before any int cast
        with pytest.raises(ParameterError):
            encode_condition_vector(bad, 3)


def test_continuous_encoding():
    enc = encode_condition_vector([0.3, 0.8], 0)
    assert np.array_equal(enc, np.array([[0.3], [0.8]]))
    for bad in ([1.2], [np.nan]):
        with pytest.raises(ParameterError):
            encode_condition_vector(bad, 0)


# ---------------------------------------------------------------------------
# generator

def test_generator_output_shape_and_range():
    gen = Generator(*tiny_run(height=16, width=16), seed=0)
    z = np.random.default_rng(0).normal(size=(4, 5))
    out = gen.forward(z, [0, 1, 0, 1])
    assert out.shape == (4, 1, 16, 16)
    assert out.data.min() >= 0.0 and out.data.max() <= 1.0


def test_generator_seed_reproducible():
    a = Generator(*tiny_run(), seed=7)
    b = Generator(*tiny_run(), seed=7)
    for name in a.params():
        assert np.array_equal(a.params()[name].data, b.params()[name].data)
    c = Generator(*tiny_run(), seed=8)
    assert any(not np.array_equal(a.params()[n].data, c.params()[n].data)
               for n in a.params())


def test_generator_spec_validation():
    with pytest.raises(ParameterError):
        generator_shapes(*tiny_run(height=10, z_dim=4))
    with pytest.raises(ParameterError):   # divisible by 4, but no image
        generator_shapes(*tiny_run(height=-4, z_dim=4))
    with pytest.raises(ParameterError):
        generator_shapes(*tiny_run(z_dim=0))
    for cardinality in (-1, 2.0, True):   # cardinality 0 is the continuous domain
        with pytest.raises(ParameterError):
            generator_shapes(*tiny_run(z_dim=4, cardinality=cardinality))
    assert generator_shapes(*tiny_run(z_dim=4, cardinality=0))["dense.w"] == (5, 16)


def test_discriminator_shapes_validation():
    # D's settings are TrainConfig fields, which the config checks when it is made
    for over in (dict(disc_channels=(0, 4)), dict(feature_dim=0),
                 dict(minibatch_kernels=0)):
        with pytest.raises(ParameterError):
            tiny_run(**over)
    # the minibatch dims are only checked when minibatch discrimination is on
    config, data = tiny_run(minibatch_kernels=0, minibatch_discrimination=False)
    assert "minibatch.T" not in discriminator_shapes(config, data)
    # the data shape is checked by the shape functions
    config, data = tiny_run()
    with pytest.raises(ParameterError):
        discriminator_shapes(config, {**data, "width": 6})


def test_generator_condition_sensitivity_after_training_step():
    # one gradient step on class-separated targets makes outputs condition-dependent
    rng = np.random.default_rng(9)
    gen = Generator(*tiny_run(), seed=3)
    z = rng.normal(size=(6, 5))
    conds = np.array([0, 0, 0, 1, 1, 1], dtype=float)
    targets = np.where(conds[:, None, None, None] > 0, 0.9, 0.1) * np.ones((6, 1, 8, 8))

    params = gen.params()
    state = AdamState.for_params(list(params.values()))
    for _ in range(3):
        for p in params.values():
            p.zero_grad()
        out = gen.forward(z, conds)
        diff = out - Tensor(targets)
        mean(diff * diff).backward()
        adam_step(list(params.values()), state, lr=0.05, beta1=0.9, beta2=0.999, eps=1e-8)

    z_same = rng.normal(size=(1, 5))
    out0 = gen.forward(z_same, [0.0]).data
    out1 = gen.forward(z_same, [1.0]).data
    assert not np.allclose(out0, out1)


# ---------------------------------------------------------------------------
# discriminator

def test_discriminator_scores_shape_and_range():
    disc = Discriminator(*tiny_run(), seed=1)
    x = np.random.default_rng(2).uniform(0, 1, size=(4, 1, 8, 8))
    scores = disc.forward(x, [0, 1, 1, 0])
    assert scores.shape == (4,)
    assert np.all(scores.data > 0.0) and np.all(scores.data < 1.0)


def test_discriminator_minibatch_widens_head():
    with_mb = Discriminator(*tiny_run(minibatch_discrimination=True), seed=0)
    without = Discriminator(*tiny_run(minibatch_discrimination=False), seed=0)
    a = with_mb.params()["head.w"].data.shape[0]
    b = without.params()["head.w"].data.shape[0]
    assert a == b + tiny_run()[0].minibatch_kernels


def test_discriminator_per_sample_independence_without_minibatch():
    disc = Discriminator(*tiny_run(minibatch_discrimination=False), seed=4)
    rng = np.random.default_rng(5)
    x = rng.uniform(0, 1, size=(5, 1, 8, 8))
    conds = np.array([0, 1, 0, 1, 0], dtype=float)
    scores = disc.forward(x, conds).data
    perm = rng.permutation(5)
    scores_p = disc.forward(x[perm], conds[perm]).data
    assert np.allclose(scores_p, scores[perm], atol=1e-14)


def test_discriminator_seed_reproducible():
    a = Discriminator(*tiny_run(), seed=11)
    b = Discriminator(*tiny_run(), seed=11)
    for name in a.params():
        assert np.array_equal(a.params()[name].data, b.params()[name].data)


def test_network_end_to_end_gradcheck():
    rng = np.random.default_rng(12)
    gen = Generator(*tiny_run(), seed=21)
    disc = Discriminator(*tiny_run(), seed=22)
    z = rng.normal(size=(3, 5))
    conds = np.array([0, 1, 1], dtype=float)

    params = {f"g.{k}": v for k, v in gen.params().items()}
    params.update({f"d.{k}": v for k, v in disc.params().items()})

    def forward():
        fake = gen.forward(z, conds)
        scores = disc.forward(fake, conds)
        return linear(scores.reshape(1, -1), np.ones((3, 1)))   # sum, gradient exactly 1

    report = grad_check(forward, params)
    assert report.max_rel_err < 1e-6, str(report)


# ---------------------------------------------------------------------------
# both networks against the same computation built from the NCHW loop oracles

def leaky(v):
    return np.where(v > 0, v, 0.2 * v)


def randomized(net, seed):
    """`net` with every parameter, biases included, drawn at random."""
    rng = np.random.default_rng(seed)
    for p in net.params().values():
        p.data[...] = rng.normal(0.0, 0.3, size=p.data.shape)
    return net


def test_networks_match_nchw_loop_oracles():
    # non-square maps pin the H and W axes; random biases pin their reshapes
    rng = np.random.default_rng(13)
    gen = randomized(Generator(*tiny_run(width=12), seed=0), 1)
    p = {k: v.data for k, v in gen.params().items()}
    z = rng.normal(size=(3, 5))
    conds = np.array([1, 0, 1], dtype=float)
    h = leaky(np.concatenate([z, encode_condition_vector(conds, 2)], axis=1)
              @ p["dense.w"] + p["dense.b"]).reshape(3, 4, 2, 3)
    h = leaky(conv_transpose_oracle(h, p["up1.w"], 2, 1) + p["up1.b"])
    expected = 1.0 / (1.0 + np.exp(-(conv_transpose_oracle(h, p["up2.w"], 2, 1) + p["up2.b"])))
    out = gen.forward(z, conds).data
    assert out.shape == (3, 1, 8, 12)
    assert np.abs(out - expected).max() < 1e-12

    disc = randomized(Discriminator(*tiny_run(width=12), seed=0), 2)
    p = {k: v.data for k, v in disc.params().items()}
    x = rng.uniform(0, 1, size=(3, 1, 8, 12))
    planes = np.broadcast_to(encode_condition_vector(conds, 2)[:, :, None, None],
                             (3, 2, 8, 12))
    h = leaky(conv_oracle(np.concatenate([x, planes], axis=1), p["conv1.w"], 2, 1)
              + p["conv1.b"])
    h = leaky(conv_oracle(h, p["conv2.w"], 2, 1) + p["conv2.b"])
    expected = leaky(h.reshape(3, -1) @ p["feat.w"] + p["feat.b"])
    feats = disc.features(x, conds).data
    assert feats.shape == (3, 6)
    assert np.abs(feats - expected).max() < 1e-12
