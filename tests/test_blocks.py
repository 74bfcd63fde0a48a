"""Block constructions: equivalences, parameter ownership, checkpoints."""

import os
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from skipnorm import (
    AffineReluBranch,
    BatchNormParams,
    ConfigError,
    ContractError,
    DimensionError,
    FormatError,
    LayerNormParams,
    ModelConfig,
    ResidualBlock,
    ResidualModel,
    SkipConstruction,
    SkipKind,
    Tensor,
    build_block,
    build_model,
    effective_scale,
    ewmul,
    layer_norm,
    load_model,
    no_grad,
    save_model,
    tsum,
)
from skipnorm import blocks, errors
from skipnorm.errors import MAX_DOUBLES
from skipnorm.tensor import add


def leaf(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


def fresh_block(kind, lam=1.0, residual_scale=1.0, width=6, hidden=5, seed=0):
    con = SkipConstruction(kind, lam=lam, residual_scale=residual_scale)
    return build_block(con, width=width, hidden=hidden, rng=np.random.default_rng(seed))


def grads_of(block, x, weights):
    """Weighted-sum loss gradients for (x, every parameter), as copies."""
    x.zero_grad()
    for _, p, _ in block.parameters():
        p.zero_grad()
    tsum(ewmul(block.forward(x), weights)).backward()
    grads = [x.grad.copy()]
    grads += [p.grad.copy() for _, p, _ in block.parameters()]
    return grads


class TestSkipConstruction:
    def test_scaled_kinds_accept_fractional_lambda(self):
        assert SkipConstruction(SkipKind.XSKIP, lam=0.5).lam == 0.5

    def test_kind_must_be_a_skip_kind(self):
        with pytest.raises(ConfigError, match="SkipKind"):
            SkipConstruction("xskip-ln", lam=2.0)

    def test_recursive_lambda_must_be_positive_integer(self):
        with pytest.raises(ConfigError):
            SkipConstruction(SkipKind.RSKIP_LN, lam=1.5)
        with pytest.raises(ConfigError):
            SkipConstruction(SkipKind.RSKIP_LN, lam=0)

    def test_scaled_lambda_must_be_positive(self):
        with pytest.raises(ConfigError):
            SkipConstruction(SkipKind.XSKIP, lam=0.0)
        with pytest.raises(ConfigError):
            SkipConstruction(SkipKind.XSKIP_LN, lam=-2.0)

    def test_unused_fields_must_stay_at_default(self):
        with pytest.raises(ConfigError):
            SkipConstruction(SkipKind.PLAIN, lam=2.0)
        with pytest.raises(ConfigError):
            SkipConstruction(SkipKind.XSKIP, residual_scale=3.0)

    def test_contracted_scale_must_be_positive(self):
        with pytest.raises(ConfigError):
            SkipConstruction(SkipKind.CONTRACTED_F_LN, residual_scale=0.0)

    def test_levels(self):
        assert SkipConstruction(SkipKind.PLAIN).levels == 0
        assert SkipConstruction(SkipKind.XSKIP_LN, lam=2.0).levels == 1
        assert SkipConstruction(SkipKind.RSKIP_LN, lam=3).levels == 3

    def test_labels(self):
        assert SkipConstruction(SkipKind.XSKIP, lam=2.0).label() == "2xSkip"
        assert SkipConstruction(SkipKind.XSKIP_LN, lam=0.5).label() == "0.5xSkip+LN"
        assert SkipConstruction(SkipKind.RSKIP_LN, lam=2).label() == "2rSkip+LN"
        assert SkipConstruction(SkipKind.CONTRACTED_F_LN, residual_scale=3.0).label() == "LN(x+3F)"

    def test_arch_strings(self):
        assert SkipConstruction(SkipKind.XSKIP_LN, lam=2.0).arch() == "LN(2x+F)"
        assert SkipConstruction(SkipKind.RSKIP_LN, lam=2).arch() == "LN(x+LN(x+F))"
        assert SkipConstruction(SkipKind.RSKIP_BN, lam=3).arch() == "BN(x+BN(x+BN(x+F)))"

    def test_parse_round_trips_common_tokens(self):
        assert SkipConstruction.parse("plain").kind is SkipKind.PLAIN
        assert SkipConstruction.parse("2xskip") == SkipConstruction(SkipKind.XSKIP, lam=2.0)
        assert SkipConstruction.parse("0.5xskip") == SkipConstruction(SkipKind.XSKIP, lam=0.5)
        assert SkipConstruction.parse("xskip-ln", lam=3) == SkipConstruction(SkipKind.XSKIP_LN, lam=3.0)
        assert SkipConstruction.parse("3rskip-ln") == SkipConstruction(SkipKind.RSKIP_LN, lam=3.0)
        assert SkipConstruction.parse("contracted-f-ln:3") == SkipConstruction(
            SkipKind.CONTRACTED_F_LN, residual_scale=3.0
        )

    def test_parse_rejects_unknown_and_misused_tokens(self):
        with pytest.raises(ConfigError):
            SkipConstruction.parse("bogus")
        with pytest.raises(ConfigError):
            SkipConstruction.parse("2plain")

    @pytest.mark.parametrize("token", ["xskip-ln:3", "2xskip-ln:7", "plain:1", "2xskip:0.5", "3rskip-ln:2",
                                       "wskip-ln:1", "2xskip-bn:3", "2rskip-bn:1"])
    def test_parse_rejects_a_residual_scale_on_kinds_without_one(self, token):
        # the suffix used to be dropped: xskip-ln:3 parsed as xSkip+LN with c = 1
        with pytest.raises(ConfigError, match="residual scale"):
            SkipConstruction.parse(token)

    @pytest.mark.parametrize("token", ["2.5.1xskip", "..xskip-ln", "contracted-f-ln:abc", "contracted-f-ln:"])
    def test_parse_rejects_malformed_numbers_with_config_error(self, token):
        with pytest.raises(ConfigError, match="not a number"):
            SkipConstruction.parse(token)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_scales_rejected(self, bad):
        for kind in (SkipKind.XSKIP, SkipKind.XSKIP_LN, SkipKind.XSKIP_BN, SkipKind.RSKIP_LN):
            with pytest.raises(ConfigError):
                SkipConstruction(kind, lam=bad)
        with pytest.raises(ConfigError):
            SkipConstruction(SkipKind.CONTRACTED_F_LN, residual_scale=bad)
        with pytest.raises(ConfigError):
            SkipConstruction.parse(f"contracted-f-ln:{bad}")


class TestBlockEquivalences:
    def test_recursive_level_one_equals_scaled_lambda_one(self):
        rng = np.random.default_rng(0)
        a = fresh_block(SkipKind.XSKIP_LN, lam=1.0)
        b = ResidualBlock(
            SkipConstruction(SkipKind.RSKIP_LN, lam=1),
            a.branch,
            a.norms,  # shared parameter objects
            width=a.width,
        )
        x = leaf(rng.normal(size=(4, 6)))
        weights = Tensor(rng.normal(size=(4, 6)))
        np.testing.assert_array_equal(a.forward(x).data, b.forward(x).data)
        for ga, gb in zip(grads_of(a, x, weights), grads_of(b, x, weights)):
            np.testing.assert_array_equal(ga, gb)

    def test_contracted_scale_one_equals_scaled_lambda_one(self):
        rng = np.random.default_rng(1)
        a = fresh_block(SkipKind.XSKIP_LN, lam=1.0, seed=1)
        b = ResidualBlock(
            SkipConstruction(SkipKind.CONTRACTED_F_LN, residual_scale=1.0),
            a.branch,
            a.norms,
            width=a.width,
        )
        x = leaf(rng.normal(size=(4, 6)))
        weights = Tensor(rng.normal(size=(4, 6)))
        np.testing.assert_array_equal(a.forward(x).data, b.forward(x).data)
        for ga, gb in zip(grads_of(a, x, weights), grads_of(b, x, weights)):
            np.testing.assert_array_equal(ga, gb)

    def test_recursive_two_levels_matches_hand_unrolled_composition(self):
        rng = np.random.default_rng(2)
        block = fresh_block(SkipKind.RSKIP_LN, lam=2, seed=2)
        for p in block.norms:
            p.gain.data = rng.uniform(0.5, 1.5, size=6)
            p.bias.data = rng.normal(size=6)
        x = leaf(rng.normal(size=(5, 6)))
        inner = layer_norm(add(x, block.branch(x)), block.norms[0])
        by_hand = layer_norm(add(x, inner), block.norms[1])
        np.testing.assert_allclose(block.forward(x).data, by_hand.data, atol=1e-12)

    def test_identity_skip_with_zero_branch_is_identity(self):
        block = fresh_block(SkipKind.XSKIP, lam=1.0)
        block.branch.zero_()
        x = leaf(np.random.default_rng(3).normal(size=(4, 6)))
        np.testing.assert_array_equal(block.forward(x).data, x.data)

    def test_batch_norm_absorbs_branch_output_bias(self):
        # shifting b2 shifts every row of the norm input equally per
        # feature, which batch statistics remove
        rng = np.random.default_rng(4)
        block = fresh_block(SkipKind.XSKIP_BN, lam=2.0, seed=4)
        x = leaf(rng.normal(size=(5, 6)))
        base = block.forward(x).data.copy()
        block.branch.b2.data = block.branch.b2.data + rng.normal(size=6)
        np.testing.assert_allclose(block.forward(x).data, base, atol=1e-10)


class RecordingBranch(AffineReluBranch):
    """The built-in branch under a subclass that overrides ``__call__``,
    keeping each output it returns and a copy of that output's values."""

    def __init__(self, branch):
        super().__init__(branch.w1, branch.b1, branch.w2, branch.b2)
        self.outputs = []

    def __call__(self, x):
        out = super().__call__(x)
        self.outputs.append((out, out.data.copy()))
        return out


HANDOVER_KINDS = ("2xskip", "2xskip-ln", "3rskip-ln", "wskip-ln", "2xskip-bn", "2rskip-bn", "contracted-f-ln:2.5")


class TestBranchBufferHandover:
    """A block's combination may write into the built-in branch's output
    buffer, which nothing else reads; no other output is ever written."""

    @pytest.mark.parametrize("token", HANDOVER_KINDS)
    def test_a_custom_branch_output_is_left_intact_and_values_are_unchanged(self, token):
        block = moved_model(token, 1, 6, 5).blocks[0]
        x = leaf(np.random.default_rng(2).normal(size=(5, 6)))
        weights = Tensor(np.random.default_rng(3).normal(size=(5, 6)))
        before = block.branch(x).data.copy()
        fused_out = block.forward(x).data.copy()
        fused_grads = grads_of(block, x, weights)
        np.testing.assert_array_equal(block.branch(x).data, before)

        block.branch = RecordingBranch(block.branch)
        assert block.forward(x).data.tobytes() == fused_out.tobytes()
        for got, want in zip(grads_of(block, x, weights), fused_grads):
            assert got.tobytes() == want.tobytes()
        assert len(block.branch.outputs) == 2
        for out, values in block.branch.outputs:
            assert out.data.tobytes() == values.tobytes() == before.tobytes()

    @pytest.mark.parametrize("token", ["1xskip-ln", "3rskip-ln"])
    def test_the_witness_returns_the_branch_value_bit_for_bit(self, token):
        block = moved_model(token, 1, 6, 5).blocks[0]
        x = leaf(np.random.default_rng(4).normal(size=(5, 6)))
        y, f, _ = block.witness(x)
        assert f.data.tobytes() == block.branch(x).data.tobytes()
        assert y.data.tobytes() == block.forward(x).data.tobytes()

    def test_the_tape_keeps_six_row_by_width_arrays_per_block(self):
        """Of a recorded 4rSkip+LN block at 256x64 the tape keeps the branch's
        hidden activation, each level's standardized input and the block
        output: the branch output's buffer holds the first level's. The
        slack covers each level's per-row sigma and the node objects."""
        rows, width, depth = 256, 64, 3
        model = build_model(
            ModelConfig(SkipConstruction(SkipKind.RSKIP_LN, lam=4), depth, width, width, width, 3), seed=0
        )
        x = Tensor(np.random.default_rng(0).normal(size=(rows, width)), requires_grad=True)
        array = rows * width * 8
        tracemalloc.start()
        try:
            h = x
            for block in model.blocks:
                h = block.forward(h)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert h.requires_grad
        assert kept <= depth * (6 * array + array // 4)


class TestParameterOwnership:
    def test_scaled_ln_parameter_count_is_lambda_independent(self):
        two = fresh_block(SkipKind.XSKIP_LN, lam=2.0)
        three = fresh_block(SkipKind.XSKIP_LN, lam=3.0)
        count = lambda b: sum(p.data.size for _, p, _ in b.parameters())
        assert count(two) == count(three)

    def test_each_recursive_level_adds_one_gain_bias_pair(self):
        two = fresh_block(SkipKind.RSKIP_LN, lam=2)
        three = fresh_block(SkipKind.RSKIP_LN, lam=3)
        count = lambda b: sum(p.data.size for _, p, _ in b.parameters())
        assert count(three) - count(two) == 2 * 6

    def test_decay_flags(self):
        block = fresh_block(SkipKind.WSKIP_LN)
        flags = {name: decay for name, _, decay in block.parameters()}
        assert flags["branch.w1"] and flags["branch.w2"]
        assert not flags["norm1.gain"] and not flags["norm1.bias"]
        assert not flags["w_skip"]

    def test_model_param_count_formula(self):
        cfg = ModelConfig(
            SkipConstruction(SkipKind.RSKIP_LN, lam=2),
            depth=3, d_in=2, width=8, hidden=4, classes=3,
        )
        model = build_model(cfg, seed=0)
        branch = 8 * 4 + 4 + 4 * 8 + 8
        norms = 2 * (2 * 8)
        expected = (2 * 8 + 8) + 3 * (branch + norms) + (8 * 3 + 3)
        assert model.param_count() == expected

    def test_norm_count_must_match_levels(self):
        con = SkipConstruction(SkipKind.RSKIP_LN, lam=2)
        branch = fresh_block(SkipKind.PLAIN).branch
        with pytest.raises(ConfigError):
            ResidualBlock(con, branch, [LayerNormParams.create(6)], width=6)

    def test_norm_objects_must_be_distinct(self):
        con = SkipConstruction(SkipKind.RSKIP_LN, lam=2)
        branch = fresh_block(SkipKind.PLAIN).branch
        shared = LayerNormParams.create(6)
        with pytest.raises(ConfigError):
            ResidualBlock(con, branch, [shared, shared], width=6)

    def test_norm_type_must_match_kind(self):
        con = SkipConstruction(SkipKind.XSKIP_BN, lam=2.0)
        branch = fresh_block(SkipKind.PLAIN).branch
        with pytest.raises(ConfigError):
            ResidualBlock(con, branch, [LayerNormParams.create(6)], width=6)

    def test_w_skip_required_iff_learned_vector_kind(self):
        branch = fresh_block(SkipKind.PLAIN).branch
        with pytest.raises(ConfigError):
            ResidualBlock(SkipConstruction(SkipKind.WSKIP_LN), branch, [LayerNormParams.create(6)], width=6)
        with pytest.raises(ConfigError):
            ResidualBlock(
                SkipConstruction(SkipKind.XSKIP, lam=2.0),
                branch,
                [],
                w_skip=Tensor(np.ones(6), requires_grad=True),
                width=6,
            )


class TestWidthCheck:
    """A block refuses at build any norm, w_skip or built-in branch that
    does not fit its width, and a forward refuses an array reshaped later
    with DimensionError on either path, never with numpy's ValueError."""

    def test_a_norm_of_another_width_is_refused_at_build(self):
        branch = fresh_block(SkipKind.PLAIN, width=4).branch
        with pytest.raises(DimensionError, match="norm1.gain"):
            ResidualBlock(SkipConstruction(SkipKind.XSKIP_LN, lam=2.0), branch, [LayerNormParams.create(5)], width=4)

    def test_a_w_skip_of_another_width_is_refused_at_build(self):
        branch = fresh_block(SkipKind.PLAIN, width=4).branch
        w_skip = Tensor(np.ones(5), requires_grad=True)
        with pytest.raises(DimensionError, match="w_skip"):
            ResidualBlock(SkipConstruction(SkipKind.WSKIP_LN), branch, [LayerNormParams.create(4)], w_skip, width=4)

    def test_a_branch_of_another_width_is_refused_at_build(self):
        branch = fresh_block(SkipKind.PLAIN, width=5).branch
        with pytest.raises(DimensionError, match="branch.w1"):
            ResidualBlock(SkipConstruction(SkipKind.PLAIN), branch, width=4)

    def test_a_custom_branch_is_left_to_its_own_checks(self):
        block = ResidualBlock(SkipConstruction(SkipKind.PLAIN), lambda v: v, width=4)
        assert block.forward(leaf(np.ones((2, 4)))).data.tolist() == [[2.0] * 4] * 2

    @pytest.mark.parametrize("token, array, shape", [
        ("2rskip-bn", "branch.w1", (5, 3)),
        ("2rskip-bn", "branch.b1", (4,)),
        ("2rskip-bn", "branch.w2", (3, 5)),
        ("plain", "branch.b2", (5,)),
        ("2rskip-bn", "norm2.gain", (5,)),
        ("2rskip-ln", "norm2.bias", (5,)),
        ("2rskip-bn", "norm2.running_mean", (5,)),
        ("2xskip-bn", "norm1.running_var", (3,)),
        ("wskip-ln", "w_skip", (5,)),
    ])
    @pytest.mark.parametrize("mode", ["training", "inference"])
    @pytest.mark.parametrize("tape", [False, True])
    def test_an_array_reshaped_later_raises_dimension_error_on_both_paths(self, token, array, shape, mode, tape):
        block = build_block(SkipConstruction.parse(token), 4, 3, np.random.default_rng(0))
        for p in block.norms:
            if isinstance(p, BatchNormParams):
                p.mode = mode
        owner, _, name = array.rpartition(".")
        if name.startswith("running"):
            setattr(block.norms[int(owner[4:]) - 1], name, np.ones(shape))
        else:
            dict((n, p) for n, p, _ in block.parameters())[array].data = np.ones(shape)
        x = Tensor(np.random.default_rng(1).normal(size=(3, 4)))
        stats = [(p.running_mean.tobytes(), p.running_var.tobytes()) for p in block.norms if hasattr(p, "mode")]
        with pytest.raises(DimensionError, match=array.replace(".", r"\.")) as raised:
            if tape:
                block.forward(x)
            else:
                with no_grad():
                    block.forward(x)
        assert raised.type is DimensionError
        assert [(p.running_mean.tobytes(), p.running_var.tobytes()) for p in block.norms if hasattr(p, "mode")] == stats


class TestModel:
    def test_build_is_deterministic(self):
        cfg = ModelConfig(SkipConstruction(SkipKind.XSKIP_LN, lam=2.0), 4, 2, 8, 8, 3)
        a, b = build_model(cfg, seed=5), build_model(cfg, seed=5)
        for (na, pa, _), (_, pb, _) in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data, err_msg=na)

    def test_different_seeds_differ(self):
        cfg = ModelConfig(SkipConstruction(SkipKind.PLAIN), 2, 2, 8, 8, 3)
        a, b = build_model(cfg, seed=0), build_model(cfg, seed=1)
        assert not np.array_equal(a.in_w.data, b.in_w.data)

    def test_norm_choice_does_not_shift_branch_draws(self):
        # norm parameters consume no randomness, so one seed gives every
        # construction the same branch weights
        base = ModelConfig(SkipConstruction(SkipKind.XSKIP, lam=2.0), 3, 2, 8, 8, 3)
        normed = ModelConfig(SkipConstruction(SkipKind.XSKIP_LN, lam=2.0), 3, 2, 8, 8, 3)
        a, b = build_model(base, seed=7), build_model(normed, seed=7)
        for block_a, block_b in zip(a.blocks, b.blocks):
            np.testing.assert_array_equal(block_a.branch.w1.data, block_b.branch.w1.data)
            np.testing.assert_array_equal(block_a.branch.w2.data, block_b.branch.w2.data)

    @pytest.mark.parametrize("change", [
        dict(depth=2), dict(depth=4), dict(width=5), dict(hidden=4), dict(d_in=3), dict(classes=2),
        dict(construction=SkipConstruction.parse("3rskip-ln")), dict(construction=SkipConstruction.parse("2xskip-ln")),
    ], ids=["fewer-blocks", "more-blocks", "width", "hidden", "in-projection", "out-projection", "levels", "kind"])
    def test_a_model_that_does_not_match_its_config_is_refused(self, change):
        cfg = ModelConfig(SkipConstruction.parse("2rskip-ln"), 3, 2, 6, 5, 3)
        model = build_model(cfg, seed=0)
        parts = model.in_w, model.in_b, model.blocks, model.out_w, model.out_b
        assert ResidualModel(*parts, cfg).config == cfg
        with pytest.raises(ConfigError, match="do not match the config"):
            ResidualModel(*parts, replace(cfg, **change))

    def test_plain_stack_with_zeroed_branches_is_affine(self):
        cfg = ModelConfig(SkipConstruction(SkipKind.PLAIN), 4, 3, 6, 5, 2)
        model = build_model(cfg, seed=9)
        for block in model.blocks:
            block.branch.zero_()
        x = np.random.default_rng(9).normal(size=(5, 3))
        expected = (x @ model.in_w.data + model.in_b.data) @ model.out_w.data + model.out_b.data
        np.testing.assert_array_equal(model.forward(x).data, expected)

    def test_depth_zero_config_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(SkipConstruction(SkipKind.PLAIN), 0, 2, 8, 8, 3)

    def test_block_width_mismatch_raises(self):
        block = fresh_block(SkipKind.XSKIP_LN, lam=2.0)
        with pytest.raises(DimensionError):
            block.forward(leaf(np.zeros((2, 5))))

    def test_set_norm_mode_reaches_every_batch_norm(self):
        cfg = ModelConfig(SkipConstruction(SkipKind.RSKIP_BN, lam=2), 3, 2, 6, 4, 2)
        model = build_model(cfg, seed=0)
        model.set_norm_mode("inference")
        assert all(p.mode == "inference" for b in model.blocks for p in b.norms)

    @pytest.mark.parametrize("construction", ["2rskip-bn", "2rskip-ln"])
    def test_set_norm_mode_refuses_an_unknown_mode(self, construction):
        model = build_model(ModelConfig(SkipConstruction.parse(construction), 3, 2, 6, 4, 2), seed=0)
        modes = [getattr(p, "mode", None) for b in model.blocks for p in b.norms]
        with pytest.raises(ContractError, match="unknown batch_norm mode 'bogus'"):
            model.set_norm_mode("bogus")
        assert [getattr(p, "mode", None) for b in model.blocks for p in b.norms] == modes

    def test_whole_model_gradcheck(self):
        from skipnorm import gradcheck, softmax_cross_entropy

        cfg = ModelConfig(SkipConstruction(SkipKind.RSKIP_LN, lam=2), 2, 3, 5, 4, 2)
        model = build_model(cfg, seed=11)
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(3, 3)))
        labels = rng.integers(0, 2, size=3)
        params = [p for _, p, _ in model.parameters()]
        report = gradcheck(lambda *_: softmax_cross_entropy(model.forward(x), labels), params)
        assert report.passed, report


class TestSizeLimit:
    """Every size check charges blocks._footprint; tests/test_footprint.py
    holds that rule to what a model and a training step allocate."""

    def test_the_benchmark_model_is_far_below_the_limit(self):
        cfg = ModelConfig(SkipConstruction.parse("4rskip-ln"), depth=16, d_in=2, width=64, hidden=64, classes=3)
        assert 100 * blocks._param_count(cfg) < MAX_DOUBLES
        assert 4 * blocks._footprint(cfg, 256, recorded=True) < MAX_DOUBLES

    @pytest.mark.parametrize("token", ["plain", "wskip-ln", "3rskip-ln", "2rskip-bn", "20000rskip-ln"])
    def test_a_model_of_more_than_max_doubles_is_refused(self, token, monkeypatch):
        cfg = ModelConfig(SkipConstruction.parse(token), 2, 5, 16, 9, 3)
        monkeypatch.setattr(errors, "MAX_DOUBLES", blocks._footprint(cfg))
        assert ModelConfig(cfg.construction, 2, 5, 16, 9, 3) == cfg
        monkeypatch.setattr(errors, "MAX_DOUBLES", blocks._footprint(cfg) - 1)
        with pytest.raises(ConfigError, match="the model would hold"):
            ModelConfig(cfg.construction, 2, 5, 16, 9, 3)

    @pytest.mark.parametrize("geometry", [(10**8, 1, 1), (1, 10**8, 1), (1, 1, 10**8), (3, 10**5, 10**5)],
                             ids=["depth", "width", "hidden", "width-and-hidden"])
    def test_each_oversize_dimension_is_refused(self, geometry):
        depth, width, hidden = geometry
        with pytest.raises(ConfigError, match="the model would hold"):
            ModelConfig(SkipConstruction.parse("2xskip-ln"), depth, 2, width, hidden, 3)

    # 400000rSkip+LN at width 1 has 8e5 parameter doubles, but its levels'
    # Python objects are charged too
    @pytest.mark.parametrize("token, width, hidden", [("100000000rskip-ln", 8, 8), ("plain", 10**8, 8),
                                                      ("rskip-bn", 8, 10**8), ("400000rskip-ln", 1, 1)])
    def test_an_oversize_block_is_refused_before_any_draw(self, token, width, hidden):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ConfigError, match="would hold"):
            build_block(SkipConstruction.parse(token), width, hidden, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("token, width, hidden", [("2rskip-ln", 5, 3), ("2rskip-ln", 3, 5), ("plain", 3, 5),
                                                      ("2rskip-bn", 3, 5)])
    def test_a_batch_is_refused_by_its_recorded_forward(self, token, width, hidden, monkeypatch):
        cfg = ModelConfig(SkipConstruction.parse(token), 2, 2, width, hidden, 3)
        model = build_model(cfg, seed=0)
        charge = blocks._footprint(cfg, 4, recorded=True)
        monkeypatch.setattr(errors, "MAX_DOUBLES", charge)
        assert model.forward(np.zeros((4, 2))).data.shape == (4, 3)
        monkeypatch.setattr(errors, "MAX_DOUBLES", charge - 1)
        with pytest.raises(ConfigError, match="the forward of the batch would hold"):
            model.forward(np.zeros((4, 2)))

    def test_a_forward_without_a_tape_is_charged_one_block(self, monkeypatch):
        # as evaluation runs, in batches four times the training batch
        cfg = ModelConfig(SkipConstruction.parse("2rskip-ln"), 2, 2, 5, 3, 3)
        model = build_model(cfg, seed=0)
        charge = blocks._footprint(cfg, 4)
        assert charge == blocks._footprint(replace(cfg, depth=7), 4) < blocks._footprint(cfg, 4, recorded=True)
        monkeypatch.setattr(errors, "MAX_DOUBLES", charge)
        with no_grad():
            assert model.forward(np.zeros((4, 2))).data.shape == (4, 3)
            with pytest.raises(ConfigError, match="the forward of the batch would hold"):
                model.forward(np.zeros((5, 2)))
        with pytest.raises(ConfigError, match="the forward of the batch would hold"):
            model.forward(np.zeros((4, 2)))

    @pytest.mark.parametrize("token", ["plain", "wskip-ln", "3rskip-ln"])
    def test_a_block_of_exactly_the_limit_is_built(self, token, monkeypatch):
        # a block is sized as a model of that one block
        construction = SkipConstruction.parse(token)
        charge = blocks._footprint(ModelConfig(construction, 1, 1, 4, 3, 1))
        monkeypatch.setattr(errors, "MAX_DOUBLES", charge)
        build_block(construction, 4, 3, np.random.default_rng(0))
        monkeypatch.setattr(errors, "MAX_DOUBLES", charge - 1)
        with pytest.raises(ConfigError):
            build_block(construction, 4, 3, np.random.default_rng(0))


class TestEffectiveScale:
    def test_scaled_ln_reports_lambda_exactly(self):
        block = fresh_block(SkipKind.XSKIP_LN, lam=3.0)
        x = leaf(np.random.default_rng(12).normal(size=(4, 6)))
        assert effective_scale(block, x) == 3.0

    def test_learned_vector_reports_mean_gain(self):
        block = fresh_block(SkipKind.WSKIP_LN)
        block.w_skip.data = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        x = leaf(np.zeros((2, 6)))
        assert effective_scale(block, x) == 3.5

    def test_recursive_matches_manual_witness_ratio(self):
        from skipnorm import ratio_general

        rng = np.random.default_rng(13)
        block = fresh_block(SkipKind.RSKIP_LN, lam=3, seed=13)
        for p in block.norms:
            p.gain.data = rng.uniform(0.5, 1.5, size=6)
        x = leaf(rng.normal(size=(4, 6)))
        _, _, wit = block.witness(x)
        assert effective_scale(block, x) == pytest.approx(float(ratio_general(wit).mean()), abs=1e-12)

    def test_undefined_for_unnormalized_kinds(self):
        x = leaf(np.zeros((2, 6)))
        with pytest.raises(ContractError):
            effective_scale(fresh_block(SkipKind.PLAIN), x)
        with pytest.raises(ContractError):
            effective_scale(fresh_block(SkipKind.XSKIP, lam=2.0), x)

    def test_witness_requires_layer_norm(self):
        block = fresh_block(SkipKind.XSKIP_BN, lam=2.0)
        with pytest.raises(ContractError):
            block.witness(leaf(np.zeros((3, 6))))

    def test_one_level_scale_is_mean_shortcut_over_residual_without_a_forward(self):
        # no input is needed, so none is given
        assert effective_scale(fresh_block(SkipKind.CONTRACTED_F_LN, residual_scale=3.0), None) == 1.0 / 3.0
        assert effective_scale(fresh_block(SkipKind.CONTRACTED_F_LN, residual_scale=0.5), None) == 2.0
        assert effective_scale(fresh_block(SkipKind.RSKIP_LN, lam=1), None) == 1.0
        assert effective_scale(fresh_block(SkipKind.XSKIP_LN, lam=0.5), None) == 0.5

    def test_undefined_for_batch_norm_kinds(self):
        x = leaf(np.zeros((2, 6)))
        for block in (fresh_block(SkipKind.XSKIP_BN, lam=2.0), fresh_block(SkipKind.RSKIP_BN, lam=2)):
            with pytest.raises(ContractError, match="undefined"):
                effective_scale(block, x)


class TestCheckpoints:
    def test_round_trip_is_bit_exact(self, tmp_path):
        cfg = ModelConfig(SkipConstruction(SkipKind.RSKIP_LN, lam=2), 3, 2, 8, 6, 3)
        model = build_model(cfg, seed=14)
        rng = np.random.default_rng(14)
        for _, p, _ in model.parameters():
            p.data = p.data + 0.01 * rng.normal(size=p.data.shape)
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded, loaded_cfg = load_model(path)
        assert loaded_cfg == cfg
        for (na, pa, _), (_, pb, _) in zip(model.parameters(), loaded.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data, err_msg=na)
        x = rng.normal(size=(4, 2))
        np.testing.assert_array_equal(model.forward(x).data, loaded.forward(x).data)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        cfg = ModelConfig(SkipConstruction(SkipKind.PLAIN), 1, 2, 4, 4, 2)
        save_model(build_model(cfg, seed=0), path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"WHAT"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            load_model(path)

    # versions 1 and 2, which lack the batch-norm statistics or modes, were
    # written before version 3 and are no longer read
    @pytest.mark.parametrize("version", [0, 1, 2, 4, 99])
    @pytest.mark.parametrize("token", ["plain", "2rskip-bn"])
    def test_unsupported_version_rejected(self, tmp_path, monkeypatch, token, version):
        path = tmp_path / "model.bin"
        cfg = ModelConfig(SkipConstruction.parse(token), 1, 2, 4, 4, 2)
        save_model(build_model(cfg, seed=0), path)
        path.write_bytes(with_header(path.read_bytes(), version=version))

        def forbidden(*args):
            raise AssertionError("the payload was read")

        monkeypatch.setattr(blocks, "_vectored", forbidden)
        with pytest.raises(FormatError, match=f"unsupported version {version}$"):
            load_model(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        cfg = ModelConfig(SkipConstruction(SkipKind.PLAIN), 1, 2, 4, 4, 2)
        save_model(build_model(cfg, seed=0), path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError, match="bytes"):
            load_model(path)

    def test_payload_cut_short_after_the_size_check_rejected(self, tmp_path, monkeypatch):
        """A file that shrinks between the size check and the reads."""
        path = tmp_path / "model.bin"
        cfg = ModelConfig(SkipConstruction(SkipKind.RSKIP_BN, lam=2), 1, 2, 4, 4, 2)
        save_model(build_model(cfg, seed=0), path)
        size = path.stat().st_size
        path.write_bytes(path.read_bytes()[:-8])
        monkeypatch.setattr(
            blocks,
            "os",
            SimpleNamespace(fstat=lambda fd: SimpleNamespace(st_size=size, st_mode=os.fstat(fd).st_mode),
                            preadv=os.preadv, sysconf=os.sysconf, O_RDONLY=os.O_RDONLY),
        )
        with pytest.raises(FormatError, match="ended before its payload"):
            load_model(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(b"SKNM\x01")
        with pytest.raises(FormatError, match="header"):
            load_model(path)


def header_fields(raw):
    return list(blocks._HEADER.unpack_from(raw))


def with_header(raw, **changes):
    names = ["magic", "version", "kind", "lam", "residual_scale", "depth", "d_in", "width", "hidden", "classes", "count"]
    fields = header_fields(raw)
    for name, value in changes.items():
        fields[names.index(name)] = value
    return blocks._HEADER.pack(*fields) + raw[blocks._HEADER.size:]


def load_peak_bytes(path):
    tracemalloc.start()
    try:
        with pytest.raises(FormatError) as info:
            load_model(path)
        return tracemalloc.get_traced_memory()[1], info.value
    finally:
        tracemalloc.stop()


class TestCheckpointFormat:
    def trained(self, token):
        from skipnorm import DatasetSpec, TrainConfig, gen_synthetic, train

        data = gen_synthetic(DatasetSpec("spiral", classes=3, n_train=64, n_test=32, noise=0.2, seed=2))
        cfg = TrainConfig(SkipConstruction.parse(token), depth=3, width=6, hidden=5, epochs=2, batch_size=16, lr=0.02, seed=2)
        return train(cfg, data)[1], data

    @pytest.mark.parametrize("token", ["2rskip-bn", "2xskip-bn"])
    def test_batch_norm_statistics_survive_a_round_trip(self, tmp_path, token):
        model, data = self.trained(token)
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded, _ = load_model(path)
        for block, twin in zip(model.blocks, loaded.blocks):
            for p, q in zip(block.norms, twin.norms):
                assert p.running_mean.tobytes() == q.running_mean.tobytes()
                assert p.running_var.tobytes() == q.running_var.tobytes()
        model.set_norm_mode("inference")
        loaded.set_norm_mode("inference")
        expected = model.forward(data.x_test).data
        assert loaded.forward(data.x_test).data.tobytes() == expected.tobytes()

    def test_only_batch_norm_checkpoints_carry_statistics(self, tmp_path):
        # two statistics of width 6 and one mode per norm, 2 norms per block, 3 blocks
        for token, stats in (("2rskip-bn", (2 * 6 + 1) * 2 * 3), ("2rskip-ln", 0), ("wskip-ln", 0)):
            model, _ = self.trained(token)
            path = tmp_path / "model.bin"
            save_model(model, path)
            assert path.stat().st_size == blocks._HEADER.size + 8 * (model.param_count() + stats)

    def test_loading_builds_no_random_initialisation(self, tmp_path, monkeypatch):
        path = tmp_path / "model.bin"
        model, _ = self.trained("wskip-ln")
        save_model(model, path)

        def forbidden(*args, **kwargs):
            raise AssertionError("load_model drew a random initialisation")

        monkeypatch.setattr(blocks, "build_model", forbidden)
        monkeypatch.setattr(blocks.AffineReluBranch, "init", classmethod(forbidden))
        monkeypatch.setattr(np.random, "default_rng", forbidden)
        loaded, cfg = load_model(path)
        assert cfg == model.config
        for (name, p, decay), (_, q, decay_q) in zip(model.parameters(), loaded.parameters()):
            assert p.data.tobytes() == q.data.tobytes() and decay == decay_q, name
            assert q.data.flags.writeable and q.requires_grad

    @pytest.mark.parametrize("field, value", [("width", 6000), ("depth", 10000), ("hidden", 50000), ("d_in", 0), ("depth", 0)])
    def test_corrupted_geometry_fails_before_allocating(self, tmp_path, field, value):
        path = tmp_path / "model.bin"
        cfg = ModelConfig(SkipConstruction(SkipKind.RSKIP_BN, lam=2), 2, 2, 8, 6, 3)
        save_model(build_model(cfg, seed=0), path)
        raw = path.read_bytes()
        path.write_bytes(with_header(raw, **{field: value}))
        peak, _ = load_peak_bytes(path)
        assert peak < 4 * len(raw) + 64 * 1024
        # a count rewritten to agree with the corrupted geometry is caught
        # by the file length instead
        if value:
            forged = ModelConfig(cfg.construction, **{**dict(depth=2, d_in=2, width=8, hidden=6, classes=3), field: value})
            path.write_bytes(with_header(raw, **{field: value, "count": blocks._param_count(forged)}))
            peak, error = load_peak_bytes(path)
            assert "bytes" in str(error)
            assert peak < 4 * len(raw) + 64 * 1024

    def test_corrupted_construction_fields_raise_format_error(self, tmp_path):
        path = tmp_path / "model.bin"
        cfg = ModelConfig(SkipConstruction(SkipKind.XSKIP_LN, lam=2.0), 1, 2, 4, 4, 2)
        save_model(build_model(cfg, seed=0), path)
        raw = path.read_bytes()
        for changes in (dict(lam=float("nan")), dict(lam=float("inf")), dict(residual_scale=2.0), dict(kind=99)):
            path.write_bytes(with_header(raw, **changes))
            with pytest.raises(FormatError):
                load_model(path)


def moved_model(token, depth, width, hidden, seed=0):
    """A model with every parameter, and every batch-norm running
    statistic, moved off its initial value."""
    construction = SkipConstruction.parse(token)
    model = build_model(ModelConfig(construction, depth, 2, width, hidden, 3), seed)
    rng = np.random.default_rng(seed)
    for _, p, _ in model.parameters():
        p.data = rng.normal(size=p.data.shape)
    if construction.uses_bn:
        model.set_norm_mode("training")
        model.forward(rng.normal(size=(3, 2)))
    return model


def batch_norms(model):
    return [p for b in model.blocks for p in b.norms if isinstance(p, BatchNormParams)]


def checkpoint_arrays(model):
    bns = batch_norms(model)
    stats = [s for n in bns for s in (n.running_mean, n.running_var)]
    modes = [np.array([{"training": 0.0, "inference": 1.0}[n.mode] for n in bns])] if bns else []
    return [p.data for _, p, _ in model.parameters()] + stats + modes


def reference_bytes(model):
    """The checkpoint format spelt out: the header, then every array as
    little-endian doubles."""
    cfg, c = model.config, model.config.construction
    header = blocks._HEADER.pack(b"SKNM", 3, list(SkipKind).index(c.kind), c.lam, c.residual_scale, cfg.depth,
                                 cfg.d_in, cfg.width, cfg.hidden, cfg.classes, model.param_count())
    return header + b"".join(np.asarray(a, dtype="<f8").tobytes() for a in checkpoint_arrays(model))


def short_transfers(io, limit, calls):
    """A stand-in for os.pwritev or os.preadv that moves at most ``limit``
    bytes a call, so transfers stop in the middle of an array."""
    def transfer(fd, buffers, offset):
        kept, room = [], limit
        for b in buffers:
            if not room:
                break
            kept.append(memoryview(b).cast("B")[:room])
            room -= len(kept[-1])
        calls.append(offset)
        return io(fd, kept, offset)

    return transfer


class TestVectoredCheckpointIO:
    def test_more_arrays_than_iov_max_round_trip_byte_identically(self, tmp_path):
        model = moved_model("2rskip-bn", depth=300, width=1, hidden=1)
        assert len(checkpoint_arrays(model)) > os.sysconf("SC_IOV_MAX")
        path = tmp_path / "model.bin"
        save_model(model, path)
        assert path.read_bytes() == reference_bytes(model)
        loaded, _ = load_model(path)
        assert reference_bytes(loaded) == reference_bytes(model)

    @pytest.mark.parametrize("limit, iov_max", [(1, 1024), (13, 3), (8 * 29 + 5, 2), (1000, 1)])
    def test_partial_transfers_resume_mid_array(self, tmp_path, monkeypatch, limit, iov_max):
        model = moved_model("2rskip-bn", depth=3, width=5, hidden=4)
        expected = reference_bytes(model)
        writes, reads = [], []
        monkeypatch.setattr(os, "sysconf", lambda name: iov_max)
        monkeypatch.setattr(os, "pwritev", short_transfers(os.pwritev, limit, writes))
        monkeypatch.setattr(os, "preadv", short_transfers(os.preadv, limit, reads))
        path = tmp_path / "model.bin"
        save_model(model, path)
        assert path.read_bytes() == expected
        loaded, _ = load_model(path)
        assert reference_bytes(loaded) == expected
        payload = len(expected) - blocks._HEADER.size
        assert len(writes) >= payload / limit and len(reads) >= payload / limit

    def test_a_transfer_that_makes_no_progress_raises(self, tmp_path, monkeypatch):
        path = tmp_path / "model.bin"
        save_model(moved_model("2xskip-ln", 2, 4, 3), path)
        monkeypatch.setattr(os, "preadv", lambda fd, buffers, offset: 0)
        with pytest.raises(FormatError, match="ended before its payload"):
            load_model(path)
        monkeypatch.setattr(os, "pwritev", lambda fd, buffers, offset: 0)
        with pytest.raises(OSError, match="no progress"):
            save_model(moved_model("2xskip-ln", 2, 4, 3), path)

    @pytest.mark.parametrize("old", [b"", b"\xab" * 7, b"\xab" * 100_000, "longer checkpoint", "shorter checkpoint"])
    def test_saving_over_a_file_leaves_exactly_the_new_bytes(self, tmp_path, old):
        model = moved_model("wskip-ln", 2, 4, 3)
        path = tmp_path / "model.bin"
        if old == "longer checkpoint":
            save_model(moved_model("2rskip-bn", 4, 6, 5, seed=1), path)
        elif old == "shorter checkpoint":
            save_model(moved_model("plain", 1, 1, 1, seed=1), path)
        else:
            path.write_bytes(old)
        save_model(model, path)
        assert path.read_bytes() == reference_bytes(model)

    @pytest.mark.parametrize("step", ["pwritev", "ftruncate", "pwrite"])
    def test_a_save_cut_short_reads_back_as_a_bad_magic(self, tmp_path, monkeypatch, step):
        """Killed after the magic is zeroed: during the payload, before the
        length is set, or before the header is written."""
        path = tmp_path / "model.bin"
        save_model(moved_model("2rskip-ln", 2, 4, 3, seed=1), path)
        real, calls = getattr(os, step), []

        def killed(*args):
            calls.append(args)
            if step != "pwrite" or len(calls) > 1:  # the first pwrite zeroes the magic
                raise OSError("killed")
            return real(*args)

        monkeypatch.setattr(os, step, killed)
        with pytest.raises(OSError, match="killed"):
            save_model(moved_model("2rskip-ln", 2, 4, 3, seed=2), path)
        monkeypatch.undo()
        with pytest.raises(FormatError, match="magic"):
            load_model(path)

    def test_a_target_that_is_not_a_regular_file_is_refused_before_any_write(self, tmp_path, monkeypatch):
        def forbidden(*args):
            raise AssertionError("wrote to a refused target")

        monkeypatch.setattr(os, "pwrite", forbidden)
        monkeypatch.setattr(os, "pwritev", forbidden)
        with pytest.raises(OSError, match="not a regular file"):
            save_model(moved_model("plain", 1, 2, 2), os.devnull)
        with pytest.raises(IsADirectoryError):
            save_model(moved_model("plain", 1, 2, 2), tmp_path)


class TestBranchWidths:
    @pytest.mark.parametrize("d, hidden", [(0, 3), (3, 0), (-2, 3), (3, -1)])
    def test_branch_refuses_a_width_below_one(self, d, hidden):
        with pytest.raises(ConfigError, match="width"):
            AffineReluBranch.init(d, hidden, np.random.default_rng(0))

    def test_build_block_refuses_a_zero_hidden_width(self):
        with pytest.raises(ConfigError):
            build_block(SkipConstruction(SkipKind.PLAIN), 3, 0, np.random.default_rng(0))


class TestParseLambdaText:
    def test_lambda_may_be_given_as_text(self):
        assert SkipConstruction.parse("xskip", "2.5") == SkipConstruction.parse("xskip", 2.5)
        assert SkipConstruction.parse("rskip-ln", "3").levels == 3

    @pytest.mark.parametrize("text", ["abc", "", "nan", "inf", "-1", "0"])
    def test_bad_lambda_text_is_a_config_error(self, text):
        for token in ("xskip-ln", "rskip-ln"):
            with pytest.raises(ConfigError):
                SkipConstruction.parse(token, text)

    @pytest.mark.parametrize("token, lam", [("2xskip", 3), ("2rskip-ln", "5"), ("0.5xskip-ln", 0.5),
                                            ("1rskip-bn", "1")])
    def test_lambda_given_twice_is_a_config_error(self, token, lam):
        with pytest.raises(ConfigError, match="twice"):
            SkipConstruction.parse(token, lam)


# the 14 presets
PRESET_TOKENS = ["plain", "0.5xskip", "1xskip", "2xskip", "0.5xskip-ln", "2xskip-ln", "1rskip-ln", "3rskip-ln",
                 "wskip-ln", "2xskip-bn", "1rskip-bn", "3rskip-bn", "contracted-f-ln:1", "contracted-f-ln:3"]


@st.composite
def presets(draw):
    """Any construction preset: every kind, several lambdas and residual scales."""
    kind = draw(st.sampled_from(list(SkipKind)))
    if kind in (SkipKind.RSKIP_LN, SkipKind.RSKIP_BN):
        return SkipConstruction(kind, lam=draw(st.integers(1, 4)))
    if kind in (SkipKind.XSKIP, SkipKind.XSKIP_LN, SkipKind.XSKIP_BN):
        return SkipConstruction(kind, lam=draw(st.sampled_from([0.5, 1.0, 2.0, 3.25])))
    if kind is SkipKind.CONTRACTED_F_LN:
        return SkipConstruction(kind, residual_scale=draw(st.sampled_from([0.25, 1.0, 3.0])))
    return SkipConstruction(kind)


class TestCheckpointProperty:
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        construction=presets(),
        depth=st.integers(1, 3),
        d_in=st.integers(1, 4),
        width=st.integers(1, 5),
        hidden=st.integers(1, 4),
        classes=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_save_load_save_is_byte_identical(self, tmp_path, construction, depth, d_in, width, hidden, classes,
                                              seed):
        # distinct values in every parameter, and batch-norm running
        # statistics moved off their defaults by one training-mode forward,
        # so any disagreement between the checkpoint layout and the order of
        # parameters() changes the second file
        rng = np.random.default_rng(seed)
        model = build_model(ModelConfig(construction, depth, d_in, width, hidden, classes), seed)
        for _, p, _ in model.parameters():
            p.data = rng.normal(size=p.data.shape)
        if construction.uses_bn:
            model.set_norm_mode("training")
            model.forward(rng.normal(size=(3, d_in)))
            assert all((p.running_var != 1.0).any() for b in model.blocks for p in b.norms)
        first, second = tmp_path / "first.bin", tmp_path / "second.bin"
        save_model(model, first)
        loaded, cfg = load_model(first)
        assert cfg == model.config
        save_model(loaded, second)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("token", PRESET_TOKENS)
    @settings(max_examples=15, deadline=None)
    @given(
        depth=st.integers(1, 4),
        d_in=st.integers(1, 5),
        width=st.integers(1, 6),
        hidden=st.integers(1, 5),
        classes=st.integers(1, 4),
    )
    def test_closed_form_sizes_match_the_built_model(self, token, depth, d_in, width, hidden, classes):
        # the header check trusts both closed forms before it allocates anything
        cfg = ModelConfig(SkipConstruction.parse(token), depth, d_in, width, hidden, classes)
        model = build_model(cfg, 0)
        assert blocks._param_count(cfg) == model.param_count()
        bns = batch_norms(model)
        stats = [s for p in bns for s in (p.running_mean, p.running_var)]
        assert blocks._stats_count(cfg) == sum(s.size for s in stats) + len(bns)  # one mode each
        # save_model holds a model to these shapes before it opens its file
        assert blocks._layout(cfg) == [p.data.shape for _, p, _ in model.parameters()] + [s.shape for s in stats]


class TestSaveRefusesAModelItsConfigDoesNotDescribe:
    """A model changed after it was built, so that its arrays are no longer
    shaped as its config builds them, is refused before its file is opened:
    its checkpoint would not load, or would load as another model."""

    CFG = ModelConfig(SkipConstruction.parse("2rskip-ln"), 2, 2, 6, 5, 3)

    def swapped_norm(self):
        model = build_model(self.CFG, 0)
        model.blocks[0].norms[0] = LayerNormParams.create(9)
        return model

    def shifted_biases(self):
        # the same total, so the header's parameter count cannot tell
        model = build_model(self.CFG, 0)
        model.in_b.data = np.arange(4.0)
        model.blocks[1].branch.b1.data = np.zeros(7)
        assert model.param_count() == blocks._param_count(self.CFG)
        return model

    def resized_statistic(self):
        model = build_model(replace(self.CFG, construction=SkipConstruction.parse("2rskip-bn")), 0)
        batch_norms(model)[1].running_var = np.ones(5)
        return model

    @pytest.mark.parametrize("change", ["swapped_norm", "shifted_biases", "resized_statistic"])
    def test_refused_before_the_file_is_opened(self, tmp_path, change):
        path = tmp_path / "model.bin"
        with pytest.raises(ContractError, match="not shaped as its config"):
            save_model(getattr(self, change)(), path)
        assert not path.exists()


class TestCheckpointHoldsTheWholeModel:
    @pytest.mark.parametrize("mode", ["training", "inference"])
    @pytest.mark.parametrize("token", PRESET_TOKENS)
    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        depth=st.integers(1, 3),
        d_in=st.integers(1, 4),
        width=st.integers(1, 5),
        hidden=st.integers(1, 4),
        classes=st.integers(1, 4),
        batch=st.integers(2, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_loaded_model_is_the_saved_one(self, tmp_path, token, mode, depth, d_in, width, hidden, classes,
                                             batch, seed):
        rng = np.random.default_rng(seed)
        model = build_model(ModelConfig(SkipConstruction.parse(token), depth, d_in, width, hidden, classes), seed)
        for _, p, _ in model.parameters():
            p.data = rng.normal(size=p.data.shape)
        for p in batch_norms(model):
            p.running_mean, p.running_var = rng.normal(size=width), rng.uniform(0.1, 3.0, size=width)
        model.set_norm_mode(mode)
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded, cfg = load_model(path)
        assert cfg == model.config and loaded.config == model.config
        assert [(n, p.data.tobytes()) for n, p, _ in loaded.parameters()] == [
            (n, p.data.tobytes()) for n, p, _ in model.parameters()
        ]
        assert [(p.running_mean.tobytes(), p.running_var.tobytes(), p.mode) for p in batch_norms(loaded)] == [
            (p.running_mean.tobytes(), p.running_var.tobytes(), p.mode) for p in batch_norms(model)
        ]
        # no set_norm_mode on either: each runs in the mode it holds
        x = rng.normal(size=(batch, d_in))
        assert loaded.forward(x).data.tobytes() == model.forward(x).data.tobytes()


class TestBatchNormModes:
    def test_a_trained_model_loads_in_the_inference_mode_training_left_it_in(self, tmp_path):
        model, data = TestCheckpointFormat().trained("2rskip-bn")
        assert {p.mode for p in batch_norms(model)} == {"inference"}
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded, _ = load_model(path)
        assert {p.mode for p in batch_norms(loaded)} == {"inference"}
        assert loaded.forward(data.x_test).data.tobytes() == model.forward(data.x_test).data.tobytes()
        assert [p.running_var.tobytes() for p in batch_norms(loaded)] == [
            p.running_var.tobytes() for p in batch_norms(model)
        ]

    def test_modes_are_stored_per_norm_after_the_statistics(self, tmp_path):
        model = moved_model("2rskip-bn", depth=2, width=3, hidden=2)
        norms = batch_norms(model)
        for p, mode in zip(norms, ["inference", "training", "training", "inference"]):
            p.mode = mode
        path = tmp_path / "model.bin"
        save_model(model, path)
        raw = path.read_bytes()
        assert struct.unpack("<4d", raw[-32:]) == (1.0, 0.0, 0.0, 1.0)
        loaded, _ = load_model(path)
        assert [p.mode for p in batch_norms(loaded)] == ["inference", "training", "training", "inference"]

    @pytest.mark.parametrize("code", [0.5, 2.0, -1.0, float("nan"), float("inf")])
    def test_a_stored_mode_other_than_0_or_1_is_a_format_error(self, tmp_path, code):
        path = tmp_path / "model.bin"
        save_model(moved_model("1rskip-bn", depth=1, width=3, hidden=2), path)
        path.write_bytes(path.read_bytes()[:-8] + struct.pack("<d", code))
        with pytest.raises(FormatError, match="mode"):
            load_model(path)

    def test_an_unknown_mode_is_refused_before_the_file_is_opened(self, tmp_path):
        model = moved_model("2xskip-bn", depth=2, width=3, hidden=2)
        batch_norms(model)[-1].mode = "frozen"
        fresh = tmp_path / "fresh.bin"
        with pytest.raises(ContractError, match="frozen"):
            save_model(model, fresh)
        assert not fresh.exists()
        existing = tmp_path / "existing.bin"
        save_model(moved_model("2xskip-bn", depth=2, width=3, hidden=2, seed=1), existing)
        before = existing.read_bytes()
        with pytest.raises(ContractError, match="frozen"):
            save_model(model, existing)
        assert existing.read_bytes() == before


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("call", [
    "load_model(path)",
    "save_model(build_model(ModelConfig(SkipConstruction(SkipKind.PLAIN), 1, 2, 4, 4, 2), 0), path)",
], ids=["load", "save"])
def test_a_fifo_with_no_peer_is_refused_at_once(tmp_path, call):
    """In a child process with a timeout, so a call that blocks fails the
    test instead of hanging the suite."""
    fifo = tmp_path / "model.bin"
    os.mkfifo(fifo)
    code = (
        "import sys\n"
        "from skipnorm import ModelConfig, SkipConstruction, SkipKind, build_model, load_model, save_model\n"
        "path = sys.argv[1]\n"
        "try:\n"
        f"    {call}\n"
        "except OSError as exc:\n"
        "    sys.exit(f'refused: {exc}')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", code, str(fifo)], env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 1 and proc.stderr == f"refused: {fifo}: not a regular file\n"
