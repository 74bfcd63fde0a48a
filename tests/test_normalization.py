"""Layer-norm and batch-norm contracts: values, invariances, gradients."""

import numpy as np
import pytest

from skipnorm import (
    BatchNormParams,
    ContractError,
    DimensionError,
    LayerNormParams,
    Tensor,
    batch_norm,
    combine_norm,
    ewmul,
    gradcheck,
    layer_norm,
    tsum,
)
from skipnorm.normalization import EPS


def leaf(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


class TestLayerNorm:
    def test_two_point_row_normalizes_to_unit_pair(self):
        p = LayerNormParams.create(2)
        out = layer_norm(leaf([[1.0, 3.0]]), p)
        unit = 1.0 / np.sqrt(1.0 + EPS)  # mu 2, variance 1
        np.testing.assert_allclose(out.data, [[-unit, unit]], atol=1e-9)

    def test_constant_row_maps_to_bias(self):
        p = LayerNormParams.create(3)
        p.bias.data = np.array([0.5, -0.5, 0.0])
        out = layer_norm(leaf([[7.0, 7.0, 7.0]]), p)
        np.testing.assert_array_equal(out.data, [[0.5, -0.5, 0.0]])

    def test_rows_are_standardized(self):
        rng = np.random.default_rng(3)
        p = LayerNormParams.create(64)
        out = layer_norm(leaf(rng.normal(0.0, 5.0, size=(32, 64))), p).data
        assert np.abs(out.mean(axis=1)).max() <= 1e-10
        assert np.abs(out.std(axis=1) - 1.0).max() <= 1e-3

    def test_affine_shift_invariance(self):
        # alpha > 0 rescales and beta shifts; the normalized output is
        # unchanged but for eps, which acts as EPS / alpha^2 on x's scale
        rng = np.random.default_rng(4)
        x = rng.normal(size=(8, 16))
        p = LayerNormParams.create(16)
        mu, var = x.mean(axis=1, keepdims=True), x.var(axis=1, keepdims=True)
        for alpha, beta in [(2.0, 0.0), (0.25, 3.0), (17.0, -40.0)]:
            moved = layer_norm(leaf(alpha * x + beta), p).data
            np.testing.assert_allclose(moved, (x - mu) / np.sqrt(var + EPS / alpha**2), atol=1e-8)

    def test_stats_out_matches_forward_denominator(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 10))
        p = LayerNormParams.create(10)
        stats = []
        combine_norm(leaf(np.zeros_like(x)), leaf(x), norms=[p], stats_out=stats)
        assert len(stats) == 1
        mu, sigma = stats[0]
        np.testing.assert_array_equal(mu, x.mean(axis=1))
        np.testing.assert_array_equal(sigma, np.sqrt(x.var(axis=1) + EPS))

    def test_gradcheck_through_input_gain_and_bias(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            x = leaf(rng.normal(size=(4, 6)))
            p = LayerNormParams.create(6)
            p.gain.data = rng.uniform(0.5, 1.5, size=6)
            p.bias.data = rng.normal(size=6)
            report = gradcheck(
                lambda a, w, b: tsum(layer_norm(a, LayerNormParams(w, b))),
                [x, p.gain, p.bias],
            )
            assert report.passed, report

    def test_width_mismatch_raises(self):
        with pytest.raises(DimensionError):
            layer_norm(leaf(np.zeros((2, 5))), LayerNormParams.create(4))

    def test_non_2d_input_raises(self):
        with pytest.raises(DimensionError):
            layer_norm(leaf(np.zeros(4)), LayerNormParams.create(4))

    def test_param_validation(self):
        with pytest.raises(DimensionError):
            LayerNormParams(leaf(np.ones(3)), leaf(np.zeros(4)))


class TestBatchNorm:
    def test_two_row_column_normalizes_to_unit_pair(self):
        p = BatchNormParams.create(1)
        out = batch_norm(leaf([[1.0], [3.0]]), p)
        unit = 1.0 / np.sqrt(1.0 + EPS)  # mu 2, variance 1
        np.testing.assert_allclose(out.data, [[-unit], [unit]], atol=1e-9)

    def test_inference_with_unit_running_stats_is_near_identity(self):
        p = BatchNormParams.create(4)
        p.mode = "inference"
        x = np.array([[1.0, -2.0, 0.5, 3.0]])
        out = batch_norm(leaf(x), p)
        np.testing.assert_allclose(out.data, x, rtol=1e-5)

    def test_inference_is_batch_composition_independent(self):
        rng = np.random.default_rng(7)
        p = BatchNormParams.create(5)
        p.running_mean = rng.normal(size=5)
        p.running_var = rng.uniform(0.5, 2.0, size=5)
        p.gain.data = rng.uniform(0.5, 1.5, size=5)
        p.bias.data = rng.normal(size=5)
        p.mode = "inference"
        x = rng.normal(size=(8, 5))
        whole = batch_norm(leaf(x), p).data
        parts = np.concatenate(
            [batch_norm(leaf(x[:3]), p).data, batch_norm(leaf(x[3:]), p).data]
        )
        np.testing.assert_array_equal(whole, parts)

    def test_training_updates_running_stats_in_place(self):
        p = BatchNormParams.create(2)
        x = np.array([[0.0, 10.0], [2.0, 14.0]])
        batch_norm(leaf(x), p)
        np.testing.assert_allclose(p.running_mean, 0.9 * 0.0 + 0.1 * x.mean(axis=0))
        np.testing.assert_allclose(p.running_var, 0.9 * 1.0 + 0.1 * x.var(axis=0))

    def test_training_batch_of_one_raises(self):
        with pytest.raises(ContractError):
            batch_norm(leaf(np.zeros((1, 3))), BatchNormParams.create(3))

    def test_unknown_mode_raises(self):
        p = BatchNormParams.create(3)
        p.mode = "frozen"
        with pytest.raises(ContractError):
            batch_norm(leaf(np.zeros((4, 3))), p)

    def test_gradcheck_training_mode(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            x = leaf(rng.normal(size=(6, 4)))
            p = BatchNormParams.create(4)
            p.gain.data = rng.uniform(0.5, 1.5, size=4)
            p.bias.data = rng.normal(size=4)
            # plain summation is blind to x (normalized columns sum to 0),
            # so weight each entry to expose the input gradient
            weights = Tensor(rng.normal(size=(6, 4)))

            def f(a, w, b):
                q = BatchNormParams(w, b, p.running_mean.copy(), p.running_var.copy())
                return tsum(ewmul(batch_norm(a, q), weights))

            report = gradcheck(f, [x, p.gain, p.bias])
            assert report.passed, report

    def test_gradcheck_inference_mode(self):
        rng = np.random.default_rng(9)
        x = leaf(rng.normal(size=(5, 4)))
        running_mean = rng.normal(size=4)
        running_var = rng.uniform(0.5, 2.0, size=4)

        def f(a, w, b):
            q = BatchNormParams(w, b, running_mean, running_var, mode="inference")
            return tsum(batch_norm(a, q))

        p = BatchNormParams.create(4)
        report = gradcheck(f, [x, p.gain, p.bias])
        assert report.passed, report

    def test_param_validation(self):
        with pytest.raises(DimensionError):
            BatchNormParams(
                leaf(np.ones(3)), leaf(np.zeros(3)), np.zeros(3), np.ones(2)
            )

    def test_width_mismatch_raises(self):
        with pytest.raises(DimensionError):
            batch_norm(leaf(np.zeros((4, 5))), BatchNormParams.create(4))
