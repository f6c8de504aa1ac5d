"""Closed-form and property tests for the adversarial loss and its objective registry."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chi2

from topogan.autodiff import Tensor
from topogan.exceptions import ContractError, DomainError
from topogan.objectives import (
    ConditionSampler,
    ScoreBatch,
    losses,
    needs_mismatch,
    objective_names,
    sample_mismatched_condition,
)

LOG2 = math.log(2.0)


def batch(real, fake, mismatched=None):
    return ScoreBatch(
        d_real_matched=np.atleast_1d(np.asarray(real, dtype=float)),
        d_fake=np.atleast_1d(np.asarray(fake, dtype=float)),
        d_real_mismatched=None if mismatched is None
        else np.atleast_1d(np.asarray(mismatched, dtype=float)),
    )


# ---------------------------------------------------------------------------
# closed forms

def test_gan_symmetry_point():
    d_loss, _ = losses("gan", batch([0.5] * 4, [0.5] * 4))
    assert d_loss.item() == pytest.approx(2 * LOG2, abs=1e-12)


def test_gan_perfect_discriminator():
    eps = 1e-9
    d_loss, _ = losses("gan", batch([1 - eps], [eps]))
    assert abs(d_loss.item()) < 1e-8


def test_gan_hand_arithmetic():
    d_loss, _ = losses("gan", batch([0.9], [0.2]))
    assert d_loss.item() == pytest.approx(-(math.log(0.9) + math.log(0.8)), abs=1e-12)
    assert d_loss.item() == pytest.approx(0.3285040669720361, abs=1e-12)


def test_cgan_matches_gan_on_same_scores():
    rng = np.random.default_rng(0)
    real, fake = rng.uniform(0.1, 0.9, 5), rng.uniform(0.1, 0.9, 5)
    a = losses("gan", batch(real, fake))
    b = losses("cgan", batch(real, fake))
    assert a[0].item() == b[0].item()
    assert a[1].item() == b[1].item()


def test_cgan_symmetry_point_and_hand_arithmetic():
    d_loss, _ = losses("cgan", batch([0.5], [0.5]))
    assert d_loss.item() == pytest.approx(2 * LOG2, abs=1e-12)
    d_loss, _ = losses("cgan", batch([0.8], [0.3]))
    assert d_loss.item() == pytest.approx(-(math.log(0.8) + math.log(0.7)), abs=1e-12)
    assert d_loss.item() == pytest.approx(0.5798184952529422, abs=1e-12)


def test_crcgan_a_symmetry_point():
    d_loss, _ = losses("crcgan-a", batch([0.5] * 3, [0.5] * 3, [0.5] * 3))
    assert d_loss.item() == pytest.approx(3 * LOG2, abs=1e-12)


def test_crcgan_a_hand_arithmetic():
    d_loss, _ = losses("crcgan-a", batch([0.9], [0.2], [0.1]))
    expected = -(math.log(0.9) + math.log(0.9) + math.log(0.8))
    assert d_loss.item() == pytest.approx(expected, abs=1e-12)
    assert d_loss.item() == pytest.approx(0.43386458262986236, abs=1e-12)


def test_crcgan_b_symmetry_point_and_hand_arithmetic():
    d_loss, _ = losses("crcgan-b", batch([0.5], [0.5], [0.5]))
    assert d_loss.item() == pytest.approx(3 * LOG2, abs=1e-12)
    d_loss, _ = losses("crcgan-b", batch([0.95], [0.1], [0.05]))
    expected = -(math.log(0.95) + math.log(0.95) + math.log(0.9))
    assert d_loss.item() == pytest.approx(expected, abs=1e-12)
    assert d_loss.item() == pytest.approx(0.20794710443292744, abs=1e-12)


def test_crcgan_variants_coincide_at_score_level():
    rng = np.random.default_rng(1)
    r, f, m = (rng.uniform(0.05, 0.95, 6) for _ in range(3))
    a = losses("crcgan-a", batch(r, f, m))
    b = losses("crcgan-b", batch(r, f, m))
    assert a[0].item() == b[0].item()
    assert a[1].item() == b[1].item()


def test_crcgan_a_weight_zero_reduces_to_cgan():
    rng = np.random.default_rng(2)
    r, f, m = (rng.uniform(0.05, 0.95, 6) for _ in range(3))
    reduced = losses("crcgan-a", batch(r, f, m), mismatch_weight=0.0)
    plain = losses("cgan", batch(r, f))
    assert reduced[0].item() == plain[0].item()
    assert reduced[1].item() == plain[1].item()


def test_mismatch_scores_toward_zero_decrease_d_loss():
    base = losses("crcgan-a", batch([0.8] * 3, [0.2] * 3, [0.5] * 3))[0].item()
    better = losses("crcgan-a", batch([0.8] * 3, [0.2] * 3, [0.1] * 3))[0].item()
    best = losses("crcgan-a", batch([0.8] * 3, [0.2] * 3, [1e-9] * 3))[0].item()
    assert best < better < base


# ---------------------------------------------------------------------------
# contract errors

def test_gan_rejects_mismatched_scores():
    with pytest.raises(ContractError):
        losses("gan", batch([0.5], [0.5], [0.5]))


def test_crcgan_requires_mismatched_scores():
    with pytest.raises(ContractError):
        losses("crcgan-a", batch([0.5], [0.5]))
    with pytest.raises(ContractError):
        losses("crcgan-b", batch([0.5], [0.5]))


def test_empty_batch_rejected():
    with pytest.raises(ContractError):
        ScoreBatch(d_real_matched=np.array([]), d_fake=np.array([]))


def test_inconsistent_batch_sizes_rejected():
    with pytest.raises(ContractError):
        ScoreBatch(d_real_matched=np.array([0.5, 0.5]), d_fake=np.array([0.5]))


def test_objective_registry():
    assert objective_names() == ["gan", "cgan", "crcgan-a", "crcgan-b"]
    assert needs_mismatch("crcgan-a")
    assert not needs_mismatch("cgan")
    with pytest.raises(DomainError):
        needs_mismatch("wgan")
    with pytest.raises(DomainError):
        losses("wgan", batch([0.5], [0.5]))


# ---------------------------------------------------------------------------
# monotonicity (directional perturbation)

@pytest.mark.parametrize("name", ["gan", "cgan", "crcgan-a", "crcgan-b"])
def test_d_loss_monotonicity(name):
    mk = (lambda r, f: batch(r, f, [0.5] * 4)) if needs_mismatch(name) else batch
    base = losses(name, mk([0.6] * 4, [0.4] * 4))[0].item()
    up_real = losses(name, mk([0.7] * 4, [0.4] * 4))[0].item()
    up_fake = losses(name, mk([0.6] * 4, [0.5] * 4))[0].item()
    assert up_real < base      # better real scores -> lower d_loss
    assert up_fake > base      # higher fake scores -> higher d_loss
    if needs_mismatch(name):
        up_mis = losses(name, batch([0.6] * 4, [0.4] * 4, [0.6] * 4))[0].item()
        assert up_mis > base   # higher mismatched scores -> higher d_loss


@pytest.mark.parametrize("name", ["gan", "cgan", "crcgan-a", "crcgan-b"])
def test_g_loss_gradient_pushes_fake_scores_up(name):
    # in both modes the generator loss decreases as its scores rise;
    # the modes differ in gradient magnitude where the discriminator wins
    for s in (0.1, 0.5, 0.9):
        for non_saturating in (False, True):
            d_fake = Tensor(np.full(4, s), requires_grad=True)
            mismatched = np.full(4, 0.5) if needs_mismatch(name) else None
            scores = ScoreBatch(d_real_matched=np.full(4, 0.7), d_fake=d_fake,
                                d_real_mismatched=mismatched)
            g_loss = losses(name, scores, non_saturating=non_saturating)[1]
            d_fake.zero_grad()
            g_loss.backward()
            assert np.all(d_fake.grad < 0.0)


def test_non_saturating_has_strong_gradient_at_low_scores():
    def grad_at(s, non_saturating):
        d_fake = Tensor(np.full(1, s), requires_grad=True)
        scores = ScoreBatch(d_real_matched=np.full(1, 0.7), d_fake=d_fake)
        losses("gan", scores, non_saturating=non_saturating)[1].backward()
        return d_fake.grad[0]

    s = 0.01  # early training: discriminator winning
    assert abs(grad_at(s, True)) > 10 * abs(grad_at(s, False))
    # saturating gradient magnitude is 1/(1-s), non-saturating is 1/s
    assert grad_at(s, False) == pytest.approx(-1 / (1 - s), rel=1e-9)
    assert grad_at(s, True) == pytest.approx(-1 / s, rel=1e-9)


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

    sb = batch(scores(), scores(), scores())
    for name in ["crcgan-a", "crcgan-b"]:
        d_loss, g_loss = losses(name, sb)
        assert np.isfinite(d_loss.item()) and np.isfinite(g_loss.item())
    sb2 = batch(scores(), scores())
    for name in ["gan", "cgan"]:
        d_loss, g_loss = losses(name, sb2)
        assert np.isfinite(d_loss.item()) and np.isfinite(g_loss.item())


# ---------------------------------------------------------------------------
# mismatched-condition sampling

def test_mismatch_class_uniform_chi_squared():
    sampler = ConditionSampler(kind="class", cardinality=10)
    rng = np.random.default_rng(123)
    counts = np.zeros(10)
    n = 10_000
    for _ in range(n):
        y2 = sample_mismatched_condition(3, sampler, rng)
        counts[y2] += 1
    assert counts[3] == 0
    observed = counts[np.arange(10) != 3]
    expected = n / 9
    stat = float(((observed - expected) ** 2 / expected).sum())
    # p > 0.01 <=> stat below the 99th percentile of chi2 with 8 dof
    assert stat < chi2.ppf(0.99, df=8)


def test_mismatch_cardinality_one_raises():
    sampler = ConditionSampler(kind="class", cardinality=1)
    with pytest.raises(DomainError):
        sample_mismatched_condition(0, sampler, np.random.default_rng(0))


def test_mismatch_continuous_margin():
    sampler = ConditionSampler(kind="continuous", low=0.3, high=0.8)
    rng = np.random.default_rng(7)
    for _ in range(500):
        y2 = sample_mismatched_condition(0.5, sampler, rng)
        assert 0.3 <= y2 <= 0.8
        assert abs(y2 - 0.5) >= 0.05


def test_mismatch_deterministic_given_seed():
    draws1 = [sample_mismatched_condition(2, ConditionSampler("class", 5),
                                          np.random.default_rng(9))
              for _ in range(1)]
    sampler = ConditionSampler("class", 5)
    rng1, rng2 = np.random.default_rng(9), np.random.default_rng(9)
    a = [sample_mismatched_condition(2, sampler, rng1) for _ in range(20)]
    b = [sample_mismatched_condition(2, sampler, rng2) for _ in range(20)]
    assert a == b
    assert draws1[0] == a[0]

