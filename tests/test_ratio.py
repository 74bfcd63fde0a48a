"""Decomposition coefficients and the closed-form coefficient ratio."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skipnorm import (
    ContractError,
    ModelConfig,
    RatioWitness,
    SingularRatioError,
    SkipConstruction,
    SkipKind,
    Tensor,
    build_block,
    build_model,
    effective_scale,
    effective_scale_sweep,
    ratio_general,
    unroll_decompose,
)
from skipnorm.blocks import _input_free_scale
from skipnorm.ratio import _mean_ratio


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


def with_shortcut(wit, rng, shape):
    """The witness with a and c per ``shape``: "unit" leaves a = c = 1;
    "scalar" and "vector" draw a signed a of magnitude log-uniform in
    [0.05, 20], one for all features or one per feature, and c
    log-uniform in [0.05, 20]."""
    if shape == "unit":
        return wit
    d = wit.gains[0].shape[0]
    size = None if shape == "scalar" else d
    a = rng.choice([-1.0, 1.0], size=size) * 10.0 ** rng.uniform(np.log10(0.05), np.log10(20.0), size=size)
    return replace(wit, a=a, c=10.0 ** rng.uniform(np.log10(0.05), np.log10(20.0)))


SHORTCUTS = st.sampled_from(["unit", "scalar", "vector"])


def recurse(wit, x, f):
    """y_k = w_k * (a * x + c * y_{k-1} - mu_k) / sigma_k + b_k with
    y_0 = f, the recursion the decomposition unrolls, on the witness's
    statistics."""
    y = f
    for sigma, mu, w, b in zip(wit.sigmas, wit.mus, wit.gains, wit.biases):
        y = w * (wit.a * x + wit.c * y - mu[:, None]) / sigma[:, None] + b
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

    @pytest.mark.parametrize("a", [np.ones(4), np.ones(6), np.ones((1, 5)), np.array([1.0, 2.0, np.nan, 1.0, 1.0]),
                                   np.full(5, np.inf), np.nan, np.inf, -np.inf],
                             ids=["short", "long", "2-d", "nan-entry", "inf-entries", "nan", "inf", "-inf"])
    def test_malformed_shortcut_gain_rejected(self, a):
        with pytest.raises(ContractError, match="finite a"):
            replace(whitened_witness(2), a=a)

    @pytest.mark.parametrize("c", [0.0, -0.0, -2.0, np.nan, np.inf, -np.inf])
    def test_malformed_residual_scale_rejected(self, c):
        with pytest.raises(ContractError, match="0 < c < inf"):
            replace(whitened_witness(2), c=c)

    def test_shape_mismatch_between_x_and_f(self):
        wit = whitened_witness(1)
        with pytest.raises(ContractError):
            unroll_decompose(wit, np.zeros((3, 5)), np.zeros((3, 4)))

    def test_witness_batch_mismatch(self):
        wit = whitened_witness(1, batch=3)
        with pytest.raises(ContractError):
            unroll_decompose(wit, np.zeros((2, 5)), np.zeros((2, 5)))

    @pytest.mark.parametrize("field, values", [
        ("gains", (np.ones(5), np.ones(1))),
        ("gains", (np.ones(5), np.ones(4))),
        ("sigmas", (np.ones(3), np.ones(4))),
        ("sigmas", (np.ones((3, 1)), np.ones((3, 1)))),
    ], ids=["width-1-inner-gain", "width-4-inner-gain", "3-and-4-row-sigmas", "2-d-sigma"])
    def test_level_shapes_must_agree(self, field, values):
        with pytest.raises(ContractError, match="share one 1-D shape"):
            replace(whitened_witness(2, batch=3, d=5), **{field: values})


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
    @given(lam=st.integers(1, 6), batch=st.integers(1, 6), d=st.integers(1, 9), seed=st.integers(0, 2**32 - 1),
           shortcut=SHORTCUTS)
    def test_any_witness_unrolls_its_recursion(self, lam, batch, d, seed, shortcut):
        rng = np.random.default_rng(seed)
        wit = with_shortcut(random_witness(lam, rng, batch, d), rng, shortcut)
        x, f = rng.normal(size=(batch, d)), rng.normal(size=(batch, d))
        coef_x, coef_f, const = unroll_decompose(wit, x, f)
        terms = np.abs(coef_x * x) + np.abs(coef_f * f) + np.abs(const)
        err = np.abs(coef_x * x + coef_f * f + const - recurse(wit, x, f))
        assert np.all(err <= 1e-12 * (1.0 + terms)), err.max()
        # gains of either sign let the ratio's terms cancel, so its error
        # is measured against the sum of their magnitudes
        magnitude = ratio_general(replace(wit, gains=tuple(map(np.abs, wit.gains)), a=np.abs(wit.a)))
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

    def test_single_level_ratio_is_a_over_c_exactly(self):
        wit, _, _, _ = random_block_witness(1, np.random.default_rng(2))
        a = np.linspace(-2.0, 3.0, 8)
        np.testing.assert_array_equal(ratio_general(replace(wit, a=a, c=3.0)), np.broadcast_to(a / 3.0, (4, 8)))
        assert _mean_ratio(replace(wit, a=a, c=3.0)) == a.mean() / 3.0
        assert _mean_ratio(replace(wit, a=0.5, c=4.0)) == 0.125

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


def wide_witness(lam, rng, batch, d):
    """Statistics over wide ranges: sigmas log-uniform in [1e-3, 1e3],
    gains of either sign with magnitudes log-uniform in [0.05, 20]."""
    def gain():
        return rng.choice([-1.0, 1.0], size=d) * 10.0 ** rng.uniform(np.log10(0.05), np.log10(20.0), size=d)

    return RatioWitness(
        sigmas=tuple(10.0 ** rng.uniform(-3.0, 3.0, size=batch) for _ in range(lam)),
        mus=tuple(rng.normal(size=batch) for _ in range(lam)),
        gains=tuple(gain() for _ in range(lam)),
        biases=tuple(rng.normal(size=d) for _ in range(lam)),
    )


def mean_abs_terms(wit):
    """Mean over rows and features of |a|/c * (1 + sum_i |P_i (x) Q_i|),
    the size of the terms the closed form adds, with Q_i = prod 1/(c w_j);
    it separates like the ratio does."""
    a, c = np.abs(wit.a), wit.c
    total, rows, cols = np.mean(a) / c, np.ones(1), np.ones(1)
    for sigma, w in zip(wit.sigmas[:-1], wit.gains[:-1]):
        rows, cols = rows * sigma, cols / (c * w)
        total += np.abs(rows).mean() * np.abs(a * cols).mean() / c
    return total


class TestSeparableMean:
    @settings(max_examples=200, deadline=None)
    @given(lam=st.integers(1, 6), batch=st.integers(1, 64), d=st.integers(1, 64), seed=st.integers(0, 2**32 - 1),
           shortcut=SHORTCUTS)
    def test_equals_the_mean_of_the_closed_form_to_rounding(self, lam, batch, d, seed, shortcut):
        rng = np.random.default_rng(seed)
        wit = with_shortcut(wide_witness(lam, rng, batch, d), rng, shortcut)
        gap = abs(_mean_ratio(wit) - float(ratio_general(wit).mean()))
        assert gap <= 16 * np.finfo(float).eps * mean_abs_terms(wit)

    def test_whitened_mean_is_the_level_count_exactly(self):
        for lam in (1, 2, 3, 4, 7):
            assert _mean_ratio(whitened_witness(lam)) == float(lam)

    def test_one_level_is_one_exactly(self):
        wit = wide_witness(1, np.random.default_rng(6), 5, 7)
        assert _mean_ratio(wit) == 1.0 == float(ratio_general(wit).mean())

    @pytest.mark.parametrize("lam, level", [(1, 1), (2, 1), (2, 2), (4, 1), (4, 3), (4, 4)])
    def test_a_zero_gain_on_any_level_raises_as_the_closed_form_does(self, lam, level):
        wit = whitened_witness(lam)
        wit.gains[level - 1][2] = 0.0
        with pytest.raises(SingularRatioError) as full:
            ratio_general(wit)
        with pytest.raises(SingularRatioError) as separable:
            _mean_ratio(wit)
        assert str(separable.value) == str(full.value) == f"gain of level {level} has an exactly-zero entry"

    # a one-level block's scale needs no forward, but it reads the gains the
    # closed form refuses, as a several-level block's witness does
    @pytest.mark.parametrize("token, level", [("2xskip-ln", 1), ("1rskip-ln", 1), ("wskip-ln", 1),
                                              ("contracted-f-ln:3", 1), ("2rskip-ln", 1), ("2rskip-ln", 2)])
    def test_a_zero_gain_raises_in_the_effective_scale_as_in_the_closed_form(self, token, level):
        model = build_model(ModelConfig(SkipConstruction.parse(token), 2, 3, 6, 4, 2), seed=0)
        block = model.blocks[1]
        block.norms[level - 1].gain.data[2] = 0.0
        rows = np.random.default_rng(0).normal(size=(5, 3))
        x = Tensor(rows @ model.in_w.data)
        _, _, wit = block.witness(x)
        message = f"gain of level {level} has an exactly-zero entry"
        for scale in (lambda: ratio_general(wit), lambda: _mean_ratio(wit), lambda: effective_scale(block, x),
                      lambda: effective_scale_sweep(model, [rows])):
            with pytest.raises(SingularRatioError, match=message):
                scale()


LN_KINDS = [SkipKind.XSKIP_LN, SkipKind.RSKIP_LN, SkipKind.WSKIP_LN, SkipKind.CONTRACTED_F_LN]


class TestEveryLNKind:
    """The witness of a live block of every LN kind, a and c included."""

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(LN_KINDS), lam=st.floats(0.05, 20.0), levels=st.integers(1, 5),
           c=st.floats(0.05, 20.0), width=st.integers(2, 10), batch=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_witness_reconstructs_and_scales_its_block(self, kind, lam, levels, c, width, batch, seed):
        con = SkipConstruction(kind, **{
            SkipKind.XSKIP_LN: dict(lam=lam),
            SkipKind.RSKIP_LN: dict(lam=levels),
            SkipKind.WSKIP_LN: {},
            SkipKind.CONTRACTED_F_LN: dict(residual_scale=c),
        }[kind])
        rng = np.random.default_rng(seed)
        block = build_block(con, width=width, hidden=6, rng=rng)
        if block.w_skip is not None:
            block.w_skip.data = rng.choice([-1.0, 1.0], size=width) * rng.uniform(0.1, 2.0, size=width)
        for p in block.norms:
            p.gain.data = rng.uniform(0.3, 1.7, size=width)
            p.bias.data = 0.5 * rng.normal(size=width)
        block.branch.b1.data = 0.3 * rng.normal(size=6)
        x = Tensor(rng.normal(size=(batch, width)))
        y, f, wit = block.witness(x)
        coef_x, coef_f, const = unroll_decompose(wit, x.data, f.data)
        assert np.abs(coef_x * x.data + coef_f * f.data + const - y.data).max() <= 1e-10
        ratio = ratio_general(wit)
        assert (np.abs(ratio - coef_x / coef_f) / np.abs(coef_x / coef_f)).max() <= 1e-12
        assert abs(_mean_ratio(wit) - float(ratio.mean())) <= 16 * np.finfo(float).eps * mean_abs_terms(wit)
        if con.levels == 1:
            # the outer level cancels, so no input is needed: the same rule, bit for bit
            assert _input_free_scale(block) == _mean_ratio(wit) == effective_scale(block, None)
