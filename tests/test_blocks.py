"""Block constructions: equivalences, parameter ownership, checkpoints."""

import tracemalloc
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
    save_model,
    tsum,
)
from skipnorm import blocks
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

    def test_no_blocks_reduces_to_affine_composition(self):
        rng = np.random.default_rng(8)
        in_w, in_b = leaf(rng.normal(size=(3, 6))), leaf(rng.normal(size=6))
        out_w, out_b = leaf(rng.normal(size=(6, 2))), leaf(rng.normal(size=2))
        model = ResidualModel(in_w, in_b, [], out_w, out_b)
        x = rng.normal(size=(5, 3))
        expected = (x @ in_w.data + in_b.data) @ out_w.data + out_b.data
        np.testing.assert_array_equal(model.forward(x).data, expected)

    def test_plain_stack_with_zeroed_branches_is_affine(self):
        cfg = ModelConfig(SkipConstruction(SkipKind.PLAIN), 4, 3, 6, 5, 2)
        model = build_model(cfg, seed=9)
        model.zero_branches()
        x = np.random.default_rng(9).normal(size=(5, 3))
        expected = (x @ model.in_w.data + model.in_b.data) @ model.out_w.data + model.out_b.data
        np.testing.assert_array_equal(model.forward(x).data, expected)

    def test_depth_zero_config_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(SkipConstruction(SkipKind.PLAIN), 0, 2, 8, 8, 3)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_w_skip_init_rejected(self, value):
        with pytest.raises(ConfigError):
            ModelConfig(SkipConstruction(SkipKind.WSKIP_LN), 2, 2, 8, 8, 3, w_skip_init=value)

    def test_block_width_mismatch_raises(self):
        block = fresh_block(SkipKind.XSKIP_LN, lam=2.0)
        with pytest.raises(DimensionError):
            block.forward(leaf(np.zeros((2, 5))))

    def test_set_norm_mode_reaches_every_batch_norm(self):
        cfg = ModelConfig(SkipConstruction(SkipKind.RSKIP_BN, lam=2), 3, 2, 6, 4, 2)
        model = build_model(cfg, seed=0)
        model.set_norm_mode("inference")
        assert all(p.mode == "inference" for b in model.blocks for p in b.norms)

    def test_whole_model_gradcheck(self):
        from skipnorm import gradcheck, softmax_cross_entropy

        cfg = ModelConfig(SkipConstruction(SkipKind.RSKIP_LN, lam=2), 2, 3, 5, 4, 2)
        model = build_model(cfg, seed=11)
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(3, 3)))
        labels = rng.integers(0, 2, size=3)
        params = [p for _, p, _ in model.parameters()]
        report = gradcheck(
            lambda *_: softmax_cross_entropy(model.forward(x), labels), params, tol=1e-4
        )
        assert report.passed, report


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

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        cfg = ModelConfig(SkipConstruction(SkipKind.PLAIN), 1, 2, 4, 4, 2)
        save_model(build_model(cfg, seed=0), path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
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
        monkeypatch.setattr(blocks, "os", SimpleNamespace(fstat=lambda fd: SimpleNamespace(st_size=size)))
        with pytest.raises(FormatError, match="ended before its payload"):
            load_model(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(b"SKNM\x01")
        with pytest.raises(FormatError, match="header"):
            load_model(path)

    def test_model_without_config_cannot_be_saved(self, tmp_path):
        model = ResidualModel(leaf(np.zeros((2, 4))), leaf(np.zeros(4)), [], leaf(np.zeros((4, 2))), leaf(np.zeros(2)))
        with pytest.raises(ContractError):
            save_model(model, tmp_path / "model.bin")


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
        for token, stats in (("2rskip-bn", 2 * 2 * 6 * 3), ("2rskip-ln", 0), ("wskip-ln", 0)):
            model, _ = self.trained(token)
            path = tmp_path / "model.bin"
            save_model(model, path)
            assert path.stat().st_size == blocks._HEADER.size + 8 * (model.param_count() + stats)

    def test_version_1_is_read_only_without_batch_norm(self, tmp_path):
        path = tmp_path / "model.bin"
        model, _ = self.trained("2rskip-ln")
        save_model(model, path)
        path.write_bytes(with_header(path.read_bytes(), version=1))
        loaded, _ = load_model(path)
        assert [p.data.tobytes() for _, p, _ in loaded.parameters()] == [
            p.data.tobytes() for _, p, _ in model.parameters()
        ]
        model, _ = self.trained("2rskip-bn")
        save_model(model, path)
        v1 = with_header(path.read_bytes(), version=1)[: blocks._HEADER.size + 8 * model.param_count()]
        path.write_bytes(v1)
        with pytest.raises(FormatError, match="running statistics"):
            load_model(path)

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

    @pytest.mark.parametrize("field, value", [("width", 6000), ("depth", 100000), ("hidden", 50000), ("d_in", 0), ("depth", 0)])
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
