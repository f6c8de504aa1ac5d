"""Closed-form and property tests for the adversarial losses, the objective registry
and crcgan-a's wrong-condition draw."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chi2

from topogan.autodiff import Tensor
from topogan.data import Dataset
from topogan.exceptions import DimensionError, ParameterError
from topogan.objectives import (
    MISMATCH_MARGIN,
    ROUNDING_ALLOWANCE,
    discriminator_loss,
    generator_loss,
    mismatched,
)
from topogan.train import OBJECTIVES, TrainConfig, init_state

LOG2 = math.log(2.0)


def d_loss_of(real, fake, mismatched=None):
    """The discriminator loss on score lists, as a float: two terms, or three
    with mismatched scores."""
    def arr(scores):
        return np.atleast_1d(np.asarray(scores, dtype=float))
    return discriminator_loss(arr(real), arr(fake),
                              None if mismatched is None else arr(mismatched)).item()


# ---------------------------------------------------------------------------
# closed forms

def test_gan_symmetry_point():
    assert d_loss_of([0.5] * 4, [0.5] * 4) == pytest.approx(2 * LOG2, abs=1e-12)


def test_gan_perfect_discriminator():
    eps = 1e-9
    assert abs(d_loss_of([1 - eps], [eps])) < 1e-8


def test_gan_hand_arithmetic():
    d_loss = d_loss_of([0.9], [0.2])
    assert d_loss == pytest.approx(-(math.log(0.9) + math.log(0.8)), abs=1e-12)
    assert d_loss == pytest.approx(0.3285040669720361, abs=1e-12)


def test_cgan_symmetry_point_and_hand_arithmetic():
    assert d_loss_of([0.5], [0.5]) == pytest.approx(2 * LOG2, abs=1e-12)
    d_loss = d_loss_of([0.8], [0.3])
    assert d_loss == pytest.approx(-(math.log(0.8) + math.log(0.7)), abs=1e-12)
    assert d_loss == pytest.approx(0.5798184952529422, abs=1e-12)


def test_crcgan_a_symmetry_point():
    d_loss = d_loss_of([0.5] * 3, [0.5] * 3, [0.5] * 3)
    assert d_loss == pytest.approx(3 * LOG2, abs=1e-12)


def test_crcgan_a_hand_arithmetic():
    d_loss = d_loss_of([0.9], [0.2], [0.1])
    expected = -(math.log(0.9) + math.log(0.9) + math.log(0.8))
    assert d_loss == pytest.approx(expected, abs=1e-12)
    assert d_loss == pytest.approx(0.43386458262986236, abs=1e-12)


def test_crcgan_b_symmetry_point_and_hand_arithmetic():
    assert d_loss_of([0.5], [0.5], [0.5]) == pytest.approx(3 * LOG2, abs=1e-12)
    d_loss = d_loss_of([0.95], [0.1], [0.05])
    expected = -(math.log(0.95) + math.log(0.95) + math.log(0.9))
    assert d_loss == pytest.approx(expected, abs=1e-12)
    assert d_loss == pytest.approx(0.20794710443292744, abs=1e-12)


def test_crcgan_variants_coincide_at_score_level():
    # crcgan-a and crcgan-b differ only in how they draw the mismatched scores:
    # their loss is cgan's two terms plus the matching-aware term
    rng = np.random.default_rng(1)
    r, f, m = (rng.uniform(0.05, 0.95, 6) for _ in range(3))
    assert d_loss_of(r, f, m) == pytest.approx(
        d_loss_of(r, f) - np.log(1.0 - m).mean(), abs=1e-12)


def test_mismatch_scores_toward_zero_decrease_d_loss():
    base = d_loss_of([0.8] * 3, [0.2] * 3, [0.5] * 3)
    better = d_loss_of([0.8] * 3, [0.2] * 3, [0.1] * 3)
    best = d_loss_of([0.8] * 3, [0.2] * 3, [1e-9] * 3)
    assert best < better < base


# ---------------------------------------------------------------------------
# caller errors

def test_empty_batch_rejected():
    with pytest.raises(DimensionError):
        d_loss_of([], [])
    with pytest.raises(DimensionError):
        generator_loss(np.array([]))


def test_inconsistent_batch_sizes_rejected():
    with pytest.raises(DimensionError):
        d_loss_of([0.5, 0.5], [0.5])
    with pytest.raises(DimensionError):
        d_loss_of([0.5, 0.5], [0.5, 0.5], [0.5])


def test_scores_outside_unit_interval_rejected():
    for real, fake, mismatched in (([1.5], [0.5], [0.5]), ([0.5], [-0.1], [0.5]),
                                   ([0.5], [0.5], [1.01])):
        with pytest.raises(ParameterError):
            d_loss_of(real, fake, mismatched)
    with pytest.raises(ParameterError):
        generator_loss(np.array([0.5, 1.5]))


def test_discriminator_loss_rejects_nan_scores():
    nan = float("nan")
    with pytest.raises(ParameterError):
        d_loss_of([nan, 0.5], [0.5, 0.5])
    for real, fake, mismatched in (([nan], [0.5], [0.5]), ([0.5], [nan], [0.5]),
                                   ([0.5], [0.5], [nan])):
        with pytest.raises(ParameterError):
            d_loss_of(real, fake, mismatched)


def test_generator_loss_rejects_nan_scores():
    with pytest.raises(ParameterError):
        generator_loss(np.array([float("nan")]))
    with pytest.raises(ParameterError):
        generator_loss(np.array([0.5, float("nan")]))


def test_objective_registry():
    assert list(OBJECTIVES) == ["cgan", "crcgan-a", "crcgan-b"]
    assert OBJECTIVES["cgan"] is None
    assert callable(OBJECTIVES["crcgan-a"]) and callable(OBJECTIVES["crcgan-b"])
    for name in OBJECTIVES:
        assert TrainConfig(objective=name, steps=1).objective == name
    # an unhashable name raised a bare TypeError from the registry lookup
    for bad in ("wgan", "gan", ["cgan"], {"cgan": 1}):
        with pytest.raises(ParameterError, match="unknown objective"):
            TrainConfig(objective=bad, steps=1)


# ---------------------------------------------------------------------------
# monotonicity (directional perturbation)

@pytest.mark.parametrize("name", ["cgan", "crcgan-a", "crcgan-b"])
def test_d_loss_monotonicity(name):
    mis = [0.5] * 4 if OBJECTIVES[name] else None
    base = d_loss_of([0.6] * 4, [0.4] * 4, mis)
    up_real = d_loss_of([0.7] * 4, [0.4] * 4, mis)
    up_fake = d_loss_of([0.6] * 4, [0.5] * 4, mis)
    assert up_real < base      # better real scores -> lower d_loss
    assert up_fake > base      # higher fake scores -> higher d_loss
    if OBJECTIVES[name]:
        up_mis = d_loss_of([0.6] * 4, [0.4] * 4, [0.6] * 4)
        assert up_mis > base   # higher mismatched scores -> higher d_loss


@pytest.mark.parametrize("name", ["cgan", "crcgan-a", "crcgan-b"])
def test_g_loss_gradient_pushes_fake_scores_up(name):
    # the generator loss decreases as its scores rise, while the
    # discriminator loss of every objective pulls the same scores down
    mismatched = np.full(4, 0.5) if OBJECTIVES[name] else None
    for s in (0.1, 0.5, 0.9):
        d_fake = Tensor(np.full(4, s), requires_grad=True)
        generator_loss(d_fake).backward()
        assert np.all(d_fake.grad < 0.0)
        d_fake.zero_grad()
        discriminator_loss(np.full(4, 0.7), d_fake, mismatched).backward()
        assert np.all(d_fake.grad > 0.0)


def test_non_saturating_has_strong_gradient_at_low_scores():
    s = 0.01  # early training: discriminator winning
    d_fake = Tensor(np.full(1, s), requires_grad=True)
    generator_loss(d_fake).backward()
    # the gradient magnitude is 1/s, where log(1 - s) would give 1/(1-s)
    assert d_fake.grad[0] == pytest.approx(-1 / s, rel=1e-9)
    assert abs(d_fake.grad[0]) > 10 / (1 - s)


# ---------------------------------------------------------------------------
# finiteness property

@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_losses_finite_on_closed_unit_interval(seed):
    rng = np.random.default_rng(seed)
    # include exact 0 and 1 endpoints; the log clamp must keep losses finite
    def scores():
        s = rng.uniform(0, 1, 5)
        s[rng.integers(0, 5)] = rng.choice([0.0, 1.0])
        return s

    real, fake, mismatched = scores(), scores(), scores()
    assert np.isfinite(discriminator_loss(real, fake, mismatched).item())
    real2, fake2 = scores(), scores()
    assert np.isfinite(discriminator_loss(real2, fake2).item())
    for f in (fake, fake2):
        assert np.isfinite(generator_loss(f).item())


# ---------------------------------------------------------------------------
# the mismatch rule

def test_float32_volfrac_grid_pairs_mismatch():
    # a 0.05 grid stored as TOPD "<f4": 0.35f - 0.30f is 0.04999998
    grid = np.round(np.arange(0.30, 0.701, 0.05), 2).astype(np.float32)
    for values in (grid, grid.astype(np.float64)):
        assert mismatched(values[:-1], values[1:], 0).all()
    close = np.round(np.arange(0.30, 0.701, 0.04), 2)
    for values in (close.astype(np.float32), close):
        assert not mismatched(values[:-1], values[1:], 0).any()


# ---------------------------------------------------------------------------
# crcgan-a's wrong-condition draw, from the condition domain

def crcgan_a_state(conditions, cardinality=0):
    """A tiny crcgan-a state on 8x8 data with these conditions."""
    ds = Dataset(np.zeros((len(conditions), 8, 8)), conditions, cardinality=cardinality)
    config = TrainConfig(objective="crcgan-a", steps=1, batch_size=2, z_dim=4,
                         gen_channels=(4, 4), disc_channels=(4, 4), feature_dim=4,
                         minibatch_kernels=2, minibatch_dim=2)
    return init_state(config, ds)


def draws(state, y1, count, rng):
    """`count` wrong conditions for condition y1, drawn as a crcgan-a step draws them;
    the real images come back as they went in."""
    x_real = np.empty((count, 1, 8, 8))
    images, y2 = OBJECTIVES["crcgan-a"](x_real, np.full(count, float(y1)),
                                        state.data["cardinality"], rng)
    assert images is x_real
    return y2


def test_mismatch_class_uniform_chi_squared():
    state = crcgan_a_state(np.arange(10), cardinality=10)
    rng = np.random.default_rng(123)
    n = 10_000
    counts = np.bincount(draws(state, 3, n, rng).astype(int), minlength=10)
    assert counts[3] == 0
    observed = counts[np.arange(10) != 3]
    expected = n / 9
    stat = float(((observed - expected) ** 2 / expected).sum())
    # p > 0.01 <=> stat below the 99th percentile of chi2 with 8 dof
    assert stat < chi2.ppf(0.99, df=8)


def test_mismatch_cardinality_one_raises():
    with pytest.raises(ParameterError):
        crcgan_a_state([0, 0], cardinality=1)


def test_mismatch_continuous_margin():
    # the draw covers [0, 1], not the data's range [0.3, 0.8]
    state = crcgan_a_state([0.3, 0.8])
    n = 10_000
    y2 = draws(state, 0.5, n, np.random.default_rng(7))
    assert ((0.0 <= y2) & (y2 <= 1.0)).all()
    assert (abs(y2 - 0.5) >= MISMATCH_MARGIN - ROUNDING_ALLOWANCE).all()
    # uniform over [0, 1] minus the hole (0.45, 0.55): close the hole up to
    # [0, 0.9] and count in 18 equal bins
    closed = np.where(y2 < 0.5, y2, y2 - 2 * MISMATCH_MARGIN)
    observed, _ = np.histogram(closed, bins=18, range=(0.0, 0.9))
    assert observed.sum() == n
    expected = n / 18
    stat = float(((observed - expected) ** 2 / expected).sum())
    assert stat < chi2.ppf(0.99, df=17)


def test_mismatch_deterministic_given_seed():
    state = crcgan_a_state(np.arange(5), cardinality=5)
    draws1 = draws(state, 2, 1, np.random.default_rng(9))
    rng1, rng2 = np.random.default_rng(9), np.random.default_rng(9)
    a = draws(state, 2, 20, rng1)
    b = draws(state, 2, 20, rng2)
    assert np.array_equal(a, b)
    assert draws1[0] == a[0]
