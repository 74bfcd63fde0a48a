"""Decomposition coefficients and the closed-form coefficient ratio."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skipnorm import (
    ContractError,
    RatioWitness,
    SingularRatioError,
    SkipConstruction,
    SkipKind,
    Tensor,
    build_block,
    ratio_general,
    unroll_decompose,
)


def random_block_witness(lam, rng, width=8, batch=4):
    """Witness, input, branch value, and output of one randomized block."""
    con = SkipConstruction(SkipKind.RSKIP_LN, lam=lam)
    block = build_block(con, width=width, hidden=6, rng=rng)
    for p in block.norms:
        p.gain.data = rng.uniform(0.3, 1.7, size=width)
        p.bias.data = 0.5 * rng.normal(size=width)
    block.branch.b1.data = 0.3 * rng.normal(size=6)
    x = Tensor(rng.normal(size=(batch, width)), requires_grad=True)
    y, f, wit = block.witness(x)
    return wit, x.data, f.data, y.data


def random_witness(lam, rng, batch, d):
    """Arbitrary per-level statistics: positive sigmas, gains of either
    sign bounded away from zero, any means and biases."""
    def gain():
        return rng.choice([-1.0, 1.0], size=d) * rng.uniform(0.2, 2.0, size=d)

    return RatioWitness(
        sigmas=tuple(rng.uniform(0.2, 3.0, size=batch) for _ in range(lam)),
        mus=tuple(rng.normal(size=batch) for _ in range(lam)),
        gains=tuple(gain() for _ in range(lam)),
        biases=tuple(rng.normal(size=d) for _ in range(lam)),
    )


def recurse(wit, x, f):
    """y_k = w_k * (x + y_{k-1} - mu_k) / sigma_k + b_k with y_0 = f, the
    recursion the decomposition unrolls, on the witness's statistics."""
    y = f
    for sigma, mu, w, b in zip(wit.sigmas, wit.mus, wit.gains, wit.biases):
        y = w * (x + y - mu[:, None]) / sigma[:, None] + b
    return y


def whitened_witness(lam, batch=3, d=5):
    """All gains 1, all denominators 1: every inner term contributes 1."""
    return RatioWitness(
        sigmas=tuple(np.ones(batch) for _ in range(lam)),
        mus=tuple(np.zeros(batch) for _ in range(lam)),
        gains=tuple(np.ones(d) for _ in range(lam)),
        biases=tuple(np.zeros(d) for _ in range(lam)),
    )


class TestWitnessValidation:
    def test_empty_witness_rejected(self):
        with pytest.raises(ContractError):
            RatioWitness(sigmas=(), mus=(), gains=(), biases=())

    def test_level_lists_must_align(self):
        one = (np.ones(2),)
        with pytest.raises(ContractError):
            RatioWitness(sigmas=one, mus=one + one, gains=one, biases=one)

    def test_sigma_must_be_positive(self):
        with pytest.raises(ContractError):
            RatioWitness(
                sigmas=(np.array([1.0, 0.0]),),
                mus=(np.zeros(2),),
                gains=(np.ones(3),),
                biases=(np.zeros(3),),
            )

    def test_shape_mismatch_between_x_and_f(self):
        wit = whitened_witness(1)
        with pytest.raises(ContractError):
            unroll_decompose(wit, np.zeros((3, 5)), np.zeros((3, 4)))

    def test_witness_batch_mismatch(self):
        wit = whitened_witness(1, batch=3)
        with pytest.raises(ContractError):
            unroll_decompose(wit, np.zeros((2, 5)), np.zeros((2, 5)))


class TestReconstruction:
    def test_single_level_hand_computed(self):
        # x = [1, 3]: mu = 2, sigma = sqrt(1 + eps); zero branch, unit gain
        eps = 1e-5
        sigma = np.sqrt(1.0 + eps)
        wit = RatioWitness(
            sigmas=(np.array([sigma]),),
            mus=(np.array([2.0]),),
            gains=(np.ones(2),),
            biases=(np.zeros(2),),
        )
        coef_x, coef_f, const = unroll_decompose(wit, np.array([[1.0, 3.0]]), np.zeros((1, 2)))
        np.testing.assert_allclose(coef_x, 1.0 / sigma)
        np.testing.assert_array_equal(coef_x, coef_f)
        np.testing.assert_allclose(const, -2.0 / sigma)

    def test_block_output_is_reconstructed_exactly(self):
        rng = np.random.default_rng(0)
        for lam in (1, 2, 3, 4):
            for _ in range(10):
                wit, x, f, y = random_block_witness(lam, rng)
                coef_x, coef_f, const = unroll_decompose(wit, x, f)
                err = np.abs(coef_x * x + coef_f * f + const - y).max()
                assert err <= 1e-10, (lam, err)

    def test_ratio_equals_coefficient_quotient(self):
        rng = np.random.default_rng(1)
        for lam in (1, 2, 3, 4):
            for _ in range(10):
                wit, x, f, _ = random_block_witness(lam, rng)
                coef_x, coef_f, _ = unroll_decompose(wit, x, f)
                rel = np.abs(ratio_general(wit) - coef_x / coef_f) / np.abs(coef_x / coef_f)
                assert rel.max() <= 1e-10, (lam, rel.max())


class TestReconstructionProperties:
    @settings(max_examples=150, deadline=None)
    @given(lam=st.integers(1, 6), batch=st.integers(1, 6), d=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
    def test_any_witness_unrolls_its_recursion(self, lam, batch, d, seed):
        rng = np.random.default_rng(seed)
        wit = random_witness(lam, rng, batch, d)
        x, f = rng.normal(size=(batch, d)), rng.normal(size=(batch, d))
        coef_x, coef_f, const = unroll_decompose(wit, x, f)
        terms = np.abs(coef_x * x) + np.abs(coef_f * f) + np.abs(const)
        err = np.abs(coef_x * x + coef_f * f + const - recurse(wit, x, f))
        assert np.all(err <= 1e-12 * (1.0 + terms)), err.max()
        # gains of either sign let the ratio's terms cancel, so its error
        # is measured against the sum of their magnitudes
        magnitude = ratio_general(RatioWitness(wit.sigmas, wit.mus, tuple(map(np.abs, wit.gains)), wit.biases))
        assert np.all(np.abs(ratio_general(wit) - coef_x / coef_f) <= 1e-12 * magnitude)

    @settings(max_examples=100, deadline=None)
    @given(lam=st.integers(1, 5), width=st.integers(2, 10), batch=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_block_output_is_reconstructed(self, lam, width, batch, seed):
        wit, x, f, y = random_block_witness(lam, np.random.default_rng(seed), width, batch)
        coef_x, coef_f, const = unroll_decompose(wit, x, f)
        terms = np.abs(coef_x * x) + np.abs(coef_f * f) + np.abs(const)
        err = np.abs(coef_x * x + coef_f * f + const - y)
        assert np.all(err <= 1e-12 * (1.0 + terms)), err.max()
        rel = np.abs(ratio_general(wit) - coef_x / coef_f) / np.abs(coef_x / coef_f)
        assert rel.max() <= 1e-12


class TestClosedForm:
    def test_single_level_ratio_is_one(self):
        rng = np.random.default_rng(2)
        wit, _, _, _ = random_block_witness(1, rng)
        np.testing.assert_array_equal(ratio_general(wit), 1.0)

    def test_two_level_ratio_is_inner_sigma_over_gain_plus_one(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            wit, _, _, _ = random_block_witness(2, rng)
            expected = wit.sigmas[0][:, None] / wit.gains[0][None, :] + 1.0
            np.testing.assert_allclose(ratio_general(wit), expected, atol=1e-12)

    def test_whitened_ratio_equals_level_count(self):
        for lam in (1, 2, 3, 4, 7):
            np.testing.assert_array_equal(ratio_general(whitened_witness(lam)), float(lam))

    def test_appending_a_level_strictly_increases_the_ratio(self):
        rng = np.random.default_rng(4)
        batch, d = 3, 5
        sigmas, mus, gains, biases = [], [], [], []
        previous = None
        for _ in range(5):
            sigmas.append(rng.uniform(0.5, 2.0, size=batch))
            mus.append(rng.normal(size=batch))
            gains.append(rng.uniform(0.3, 1.7, size=d))
            biases.append(rng.normal(size=d))
            wit = RatioWitness(tuple(sigmas), tuple(mus), tuple(gains), tuple(biases))
            current = ratio_general(wit)
            if previous is not None:
                assert np.all(current > previous)
            previous = current

    def test_zero_gain_entry_rejected(self):
        wit = whitened_witness(2)
        wit.gains[0][2] = 0.0
        with pytest.raises(SingularRatioError):
            ratio_general(wit)

    def test_outermost_gain_does_not_affect_the_ratio(self):
        # the last level rescales both coefficients identically
        rng = np.random.default_rng(5)
        wit, _, _, _ = random_block_witness(3, rng)
        scaled = RatioWitness(
            sigmas=wit.sigmas,
            mus=wit.mus,
            gains=wit.gains[:-1] + (7.0 * wit.gains[-1],),
            biases=wit.biases,
        )
        np.testing.assert_array_equal(ratio_general(wit), ratio_general(scaled))
