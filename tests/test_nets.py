"""Network construction, condition injection, and minibatch-feature tests."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from topogan.autodiff import AdamState, Tensor, adam_step, grad_check, mean, tensor_sum
from topogan.exceptions import DomainError, SpecError
from topogan.nets import (
    Discriminator,
    DiscriminatorSpec,
    Generator,
    GeneratorSpec,
    encode_condition_vector,
    minibatch_features,
)


def tiny_gen_spec(**over):
    base = dict(out_h=8, out_w=8, z_dim=5, condition_kind="class",
                condition_cardinality=2, channels=(4, 3))
    base.update(over)
    return GeneratorSpec(**base)


def tiny_disc_spec(**over):
    base = dict(in_h=8, in_w=8, condition_kind="class", condition_cardinality=2,
                channels=(3, 4), feature_dim=6, minibatch=True,
                minibatch_kernels=4, minibatch_dim=3)
    base.update(over)
    return DiscriminatorSpec(**base)


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
    enc = encode_condition_vector([0, 2, 1], "class", 3)
    assert np.array_equal(enc, np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=float))


def test_continuous_encoding():
    enc = encode_condition_vector([0.3, 0.8], "continuous")
    assert np.array_equal(enc, np.array([[0.3], [0.8]]))
    with pytest.raises(DomainError):
        encode_condition_vector([1.2], "continuous")


# ---------------------------------------------------------------------------
# generator

def test_generator_output_shape_and_range():
    gen = Generator(tiny_gen_spec(out_h=16, out_w=16), seed=0)
    z = np.random.default_rng(0).normal(size=(4, 5))
    out = gen.forward(z, [0, 1, 0, 1])
    assert out.shape == (4, 1, 16, 16)
    assert out.data.min() >= 0.0 and out.data.max() <= 1.0


def test_generator_seed_reproducible():
    a = Generator(tiny_gen_spec(), seed=7)
    b = Generator(tiny_gen_spec(), seed=7)
    for name in a.params():
        assert np.array_equal(a.params()[name].data, b.params()[name].data)
    c = Generator(tiny_gen_spec(), seed=8)
    assert any(not np.array_equal(a.params()[n].data, c.params()[n].data)
               for n in a.params())


def test_generator_spec_validation():
    with pytest.raises(SpecError):
        GeneratorSpec(out_h=10, out_w=8, z_dim=4, condition_kind="class",
                      condition_cardinality=2)
    with pytest.raises(SpecError):
        GeneratorSpec(out_h=8, out_w=8, z_dim=0, condition_kind="class",
                      condition_cardinality=2)
    with pytest.raises(SpecError):
        GeneratorSpec(out_h=8, out_w=8, z_dim=4, condition_kind="class",
                      condition_cardinality=0)


def test_generator_condition_sensitivity_after_training_step():
    # one gradient step on class-separated targets makes outputs condition-dependent
    rng = np.random.default_rng(9)
    gen = Generator(tiny_gen_spec(), seed=3)
    z = rng.normal(size=(6, 5))
    conds = np.array([0, 0, 0, 1, 1, 1], dtype=float)
    targets = np.where(conds[:, None, None, None] > 0, 0.9, 0.1) * np.ones((6, 1, 8, 8))

    params = gen.params()
    state = AdamState.for_params(list(params.values()), lr=0.05)
    for _ in range(3):
        for p in params.values():
            p.zero_grad()
        out = gen.forward(z, conds)
        diff = out - Tensor(targets)
        mean(diff * diff).backward()
        adam_step(list(params.values()), [p.grad for p in params.values()], state)

    z_same = rng.normal(size=(1, 5))
    out0 = gen.forward(z_same, [0.0]).data
    out1 = gen.forward(z_same, [1.0]).data
    assert not np.allclose(out0, out1)


# ---------------------------------------------------------------------------
# discriminator

def test_discriminator_scores_shape_and_range():
    disc = Discriminator(tiny_disc_spec(), seed=1)
    x = np.random.default_rng(2).uniform(0, 1, size=(4, 1, 8, 8))
    scores = disc.forward(x, [0, 1, 1, 0])
    assert scores.shape == (4,)
    assert np.all(scores.data > 0.0) and np.all(scores.data < 1.0)


def test_discriminator_minibatch_widens_head():
    with_mb = Discriminator(tiny_disc_spec(minibatch=True), seed=0)
    without = Discriminator(tiny_disc_spec(minibatch=False), seed=0)
    a = with_mb.params()["head.w"].data.shape[0]
    b = without.params()["head.w"].data.shape[0]
    assert a == b + tiny_disc_spec().minibatch_kernels


def test_discriminator_per_sample_independence_without_minibatch():
    disc = Discriminator(tiny_disc_spec(minibatch=False), seed=4)
    rng = np.random.default_rng(5)
    x = rng.uniform(0, 1, size=(5, 1, 8, 8))
    conds = np.array([0, 1, 0, 1, 0], dtype=float)
    scores = disc.forward(x, conds).data
    perm = rng.permutation(5)
    scores_p = disc.forward(x[perm], conds[perm]).data
    assert np.allclose(scores_p, scores[perm], atol=1e-14)


def test_discriminator_seed_reproducible():
    a = Discriminator(tiny_disc_spec(), seed=11)
    b = Discriminator(tiny_disc_spec(), seed=11)
    for name in a.params():
        assert np.array_equal(a.params()[name].data, b.params()[name].data)


def test_network_end_to_end_gradcheck():
    rng = np.random.default_rng(12)
    gen = Generator(tiny_gen_spec(), seed=21)
    disc = Discriminator(tiny_disc_spec(), seed=22)
    z = rng.normal(size=(3, 5))
    conds = np.array([0, 1, 1], dtype=float)

    params = {f"g.{k}": v for k, v in gen.params().items()}
    params.update({f"d.{k}": v for k, v in disc.params().items()})

    def forward():
        fake = gen.forward(z, conds)
        scores = disc.forward(fake, conds)
        return tensor_sum(scores)

    report = grad_check(forward, params)
    assert report.max_rel_err < 1e-6, str(report)
