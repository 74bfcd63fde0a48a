"""Gradient-norm sweeps, amplification probes, and the check batteries."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skipnorm import (
    AffineReluBranch,
    BatchNormParams,
    ConfigError,
    ContractError,
    DimensionError,
    GradCheckReport,
    GradReport,
    ModelConfig,
    ResidualModel,
    SkipConstruction,
    SkipKind,
    Tensor,
    add,
    amplification_probe,
    build_model,
    decomposition_check,
    effective_scale,
    effective_scale_sweep,
    gradcheck_battery,
    gradient_norm_sweep,
    matmul,
    no_grad,
    relu,
    softmax_cross_entropy,
)
from skipnorm import errors
from skipnorm.blocks import _footprint


def toy_model(kind, lam=1.0, depth=6, residual_scale=1.0, seed=0):
    cfg = ModelConfig(
        SkipConstruction(kind, lam=lam, residual_scale=residual_scale),
        depth=depth, d_in=2, width=8, hidden=6, classes=3,
    )
    return build_model(cfg, seed=seed)


def toy_batches(n_batches=3, rows=4, d_in=2, classes=3, seed=0):
    rng = np.random.default_rng(seed)
    return [
        (rng.normal(size=(rows, d_in)), rng.integers(0, classes, size=rows))
        for _ in range(n_batches)
    ]


class TestGradReport:
    def test_spread_is_max_over_min(self):
        report = GradReport("x", (1.0, 4.0, 2.0), samples=8)
        assert report.spread == 4.0

    def test_spread_with_a_zero_norm_is_infinite(self):
        assert GradReport("x", (0.0, 1.0), samples=1).spread == float("inf")

    def test_validation(self):
        with pytest.raises(ContractError):
            GradReport("x", (1.0,), samples=0)
        with pytest.raises(ContractError):
            GradReport("x", (-1.0,), samples=2)


class TestGradientNormSweep:
    def test_zero_branch_scaled_stack_decays_geometrically(self):
        # with zero branches the backward pass multiplies by lambda per
        # block, so block k carries lambda^(depth-1-k) relative to the top
        for lam in (0.5, 2.0, 3.0):
            model = toy_model(SkipKind.XSKIP, lam=lam, depth=8)
            for block in model.blocks:
                block.branch.zero_()
            report = gradient_norm_sweep(model, toy_batches())
            top = report.block_norms[-1]
            for k, norm in enumerate(report.block_norms):
                expected = top * lam ** (len(report.block_norms) - 1 - k)
                assert abs(norm - expected) / expected <= 1e-9, (lam, k)

    def test_zero_branch_plain_stack_is_flat(self):
        model = toy_model(SkipKind.PLAIN, depth=8)
        for block in model.blocks:
            block.branch.zero_()
        report = gradient_norm_sweep(model, toy_batches())
        assert len(set(report.block_norms)) == 1

    def test_result_is_independent_of_batch_split(self):
        model = toy_model(SkipKind.XSKIP_LN, lam=2.0, depth=4)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(8, 2))
        labels = rng.integers(0, 3, size=8)
        whole = gradient_norm_sweep(model, [(x, labels)])
        split = gradient_norm_sweep(model, [(x[:3], labels[:3]), (x[3:], labels[3:])])
        np.testing.assert_allclose(split.block_norms, whole.block_norms, rtol=1e-12)

    def test_sweep_is_deterministic(self):
        model = toy_model(SkipKind.RSKIP_LN, lam=2.0, depth=4)
        batches = toy_batches()
        a = gradient_norm_sweep(model, batches)
        b = gradient_norm_sweep(model, batches)
        assert a.block_norms == b.block_norms

    def test_report_carries_label_and_sample_count(self):
        model = toy_model(SkipKind.XSKIP, lam=2.0, depth=3)
        report = gradient_norm_sweep(model, toy_batches(n_batches=2, rows=4))
        assert report.label == "2xSkip"
        assert report.samples == 8
        assert len(report.block_norms) == 3

    def test_empty_batch_set_rejected(self):
        model = toy_model(SkipKind.PLAIN, depth=2)
        with pytest.raises(ContractError):
            gradient_norm_sweep(model, [])


def two_tape_gradient_sweep(model, batches):
    """The gradient-norm sweep as it was before it freed anything: every
    gradient of a batch's tape is kept, and that tape is still referenced
    while the next batch's forward builds a new one."""
    totals = np.zeros(len(model.blocks))
    samples = 0
    for x, labels in batches:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[0] == 0:
            continue
        model.zero_grad()
        outs = []
        logits = model.forward(Tensor(x), block_outputs=outs)
        loss = softmax_cross_entropy(logits, labels)
        loss.backward()
        for k, y in enumerate(outs):
            totals[k] += np.linalg.norm(y.grad, axis=1).sum() * x.shape[0]
        samples += x.shape[0]
    return tuple(float(t / samples) for t in totals), samples


class ComposedBranch(AffineReluBranch):
    """The affine-relu branch as five tape nodes of the public ops."""

    def __call__(self, x):
        return add(matmul(relu(add(matmul(x, self.w1), self.b1)), self.w2), self.b2)


ONE_OF_EACH_KIND = {
    c.kind: c
    for c in map(SkipConstruction.parse, ("plain", "1.5xskip", "0.7xskip-ln", "3rskip-ln", "wskip-ln",
                                          "1.5xskip-bn", "2rskip-bn", "contracted-f-ln:2.5"))
}


def generic_model(construction, seed, depth, d_in, width, hidden, classes):
    """An untrained model with norm parameters and skip gains moved off
    their init, batch norms in training mode."""
    model = build_model(ModelConfig(construction, depth, d_in, width, hidden, classes), seed=seed)
    rng = np.random.default_rng(seed)
    for block in model.blocks:
        for p in block.norms:
            p.gain.data = rng.uniform(0.3, 1.7, size=p.dim)
            p.bias.data = 0.5 * rng.normal(size=p.dim)
        if block.w_skip is not None:
            block.w_skip.data = 1.0 + 0.4 * rng.normal(size=block.w_skip.data.shape)
    return model


def batch_norm_stats(model):
    return [
        (p.running_mean.tobytes(), p.running_var.tobytes())
        for block in model.blocks for p in block.norms if isinstance(p, BatchNormParams)
    ]


class TestGradientNormSweepTape:
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(list(SkipKind)),
        depth=st.integers(1, 4),
        dims=st.tuples(st.integers(1, 4), st.integers(1, 7), st.integers(1, 6), st.integers(2, 4)),
        rows=st.lists(st.sampled_from([0, 2, 3, 5, 8]), min_size=1, max_size=4).filter(any),
        seed=st.integers(0, 2**16),
    )
    def test_bit_identical_to_the_two_tape_sweep(self, kind, depth, dims, rows, seed):
        d_in, width, hidden, classes = dims
        construction = ONE_OF_EACH_KIND[kind]
        swept = generic_model(construction, seed, depth, d_in, width, hidden, classes)
        reference = generic_model(construction, seed, depth, d_in, width, hidden, classes)
        rng = np.random.default_rng(seed + 1)
        batches = [(rng.normal(size=(n, d_in)), rng.integers(0, classes, size=n)) for n in rows]

        report = gradient_norm_sweep(swept, batches)
        assert (report.block_norms, report.samples) == two_tape_gradient_sweep(reference, batches)
        assert batch_norm_stats(swept) == batch_norm_stats(reference)
        # the parameters hold the last batch's gradients, as before
        for (_, p, _), (_, q, _) in zip(swept.parameters(), reference.parameters()):
            assert p.grad.tobytes() == q.grad.tobytes()

    def test_peak_memory_is_one_batch_tape(self):
        model = toy_model(SkipKind.RSKIP_LN, lam=2, depth=8, seed=1)
        rng = np.random.default_rng(1)
        batches = [(rng.normal(size=(128, 2)), rng.integers(0, 3, size=128)) for _ in range(4)]
        fused = [block.branch for block in model.blocks]
        composed = [ComposedBranch(b.w1, b.b1, b.w2, b.b2) for b in fused]

        def traced_peak(sweep, batches):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            sweep(model, batches)
            return tracemalloc.get_traced_memory()[1] - before

        def peaks(branches):
            for block, branch in zip(model.blocks, branches):
                block.branch = branch
            one, four = traced_peak(gradient_norm_sweep, batches[:1]), traced_peak(gradient_norm_sweep, batches)
            return one, four, traced_peak(two_tape_gradient_sweep, batches[:1])

        for block, branch in zip(model.blocks, composed):
            block.branch = branch
        gradient_norm_sweep(model, batches)  # parameter grads now exist, as before each measurement
        tracemalloc.start()
        try:
            one, four, keep_all = peaks(composed)
            fused_one, fused_four, fused_keep_all = peaks(fused)
        finally:
            tracemalloc.stop()
        # on the branch as five tape nodes, the graph these bounds were set on:
        # keeping the previous batch's whole tape alive made this about 2
        assert four <= 1.25 * one, (one, four)
        # dropping the interior gradients saves about 30% of one batch's peak
        assert one <= 0.85 * keep_all, (one, keep_all)
        # the branch as one node: the same two properties, and a smaller peak
        assert fused_four <= 1.25 * fused_one, (fused_one, fused_four)
        assert fused_one < fused_keep_all, (fused_one, fused_keep_all)
        assert fused_one <= 0.8 * one, (fused_one, one)


def parameter_flags(model):
    return [p.requires_grad for _, p, _ in model.parameters()]


@pytest.fixture
def forward_flags(monkeypatch):
    """Every ResidualModel.forward records its model's parameter flags."""
    calls = []
    forward = ResidualModel.forward

    def recording(self, *args, **kwargs):
        calls.append(parameter_flags(self))
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(ResidualModel, "forward", recording)
    return calls


class TestGradientNormSweepFreezing:
    @pytest.mark.parametrize("construction", list(ONE_OF_EACH_KIND.values()), ids=lambda c: c.label())
    def test_parameters_are_frozen_on_every_nonempty_batch_but_the_last(self, construction, forward_flags):
        model = generic_model(construction, 3, 2, 2, 5, 4, 3)
        batches = toy_batches(n_batches=3)
        empty = (np.zeros((0, 2)), np.zeros(0, int))
        gradient_norm_sweep(model, [empty, batches[0], empty, batches[1], batches[2], empty])
        n = len(parameter_flags(model))
        assert forward_flags == [[False] * n, [False] * n, [True] * n]
        assert parameter_flags(model) == [True] * n
        assert all(p.grad is not None for _, p, _ in model.parameters())

    def test_flags_are_restored_after_an_error_mid_sweep(self, forward_flags, monkeypatch):
        model = toy_model(SkipKind.WSKIP_LN, depth=3)
        small, large = toy_batches(n_batches=1, rows=4)[0], toy_batches(n_batches=1, rows=5)[0]
        # the 4-row forward fits and the 5-row one does not, so the second
        # batch passes every up-front check and raises inside its forward
        monkeypatch.setattr(errors, "MAX_DOUBLES", _footprint(model.config, 4, recorded=True))
        with pytest.raises(ConfigError, match="the forward of the batch would hold"):
            gradient_norm_sweep(model, [small, large, small])
        n = len(parameter_flags(model))
        assert forward_flags == [[False] * n, [False] * n]
        assert parameter_flags(model) == [True] * n

    @pytest.mark.parametrize("bad, error", [
        (lambda x, y: (x, np.where(np.arange(len(y)) == 0, 3, y)), IndexError),  # a label out of range
        (lambda x, y: (np.ones((len(x), 3)), y), DimensionError),  # a wrong width
        (lambda x, y: (x, y[:-1]), DimensionError),  # a wrong label count
        (lambda x, y: (x, y.astype(float)), ContractError),  # float labels
    ], ids=["label-out-of-range", "wrong-width", "wrong-label-count", "float-labels"])
    def test_a_bad_last_batch_raises_before_any_forward(self, bad, error, forward_flags):
        model = generic_model(ONE_OF_EACH_KIND[SkipKind.RSKIP_BN], 3, 2, 2, 5, 4, 3)
        good = toy_batches(n_batches=1, rows=4)[0]
        gradient_norm_sweep(model, [good])  # running statistics moved and every .grad set
        stats, grads = batch_norm_stats(model), [p.grad.tobytes() for _, p, _ in model.parameters()]
        forward_flags.clear()
        with pytest.raises(error):
            gradient_norm_sweep(model, [good, bad(*good)])
        assert forward_flags == []
        assert batch_norm_stats(model) == stats
        assert [p.grad.tobytes() for _, p, _ in model.parameters()] == grads

    def test_an_effective_scale_sweep_checks_every_batch_first(self, monkeypatch):
        model = toy_model(SkipKind.RSKIP_LN, lam=2, depth=2)
        monkeypatch.setattr(type(model.blocks[0]), "witness", lambda *_: pytest.fail("a forward ran"))
        with pytest.raises(DimensionError):
            effective_scale_sweep(model, [np.ones((4, 2)), np.ones((4, 3))])

    def test_a_frozen_model_stays_frozen_and_is_swept(self):
        frozen, reference = toy_model(SkipKind.XSKIP, lam=2.0), toy_model(SkipKind.XSKIP, lam=2.0)
        for _, p, _ in frozen.parameters():
            p.requires_grad = False
        batches = toy_batches()
        assert gradient_norm_sweep(frozen, batches) == gradient_norm_sweep(reference, batches)
        assert not any(parameter_flags(frozen))
        assert all(p.grad is None for _, p, _ in frozen.parameters())

    def test_a_partly_frozen_model_keeps_its_flags(self):
        construction = ONE_OF_EACH_KIND[SkipKind.WSKIP_LN]
        partly = generic_model(construction, 5, 3, 2, 6, 4, 3)
        reference = generic_model(construction, 5, 3, 2, 6, 4, 3)
        flags = [k % 3 != 0 for k in range(len(parameter_flags(partly)))]
        for (_, p, _), flag in zip(partly.parameters(), flags):
            p.requires_grad = flag
        batches = toy_batches(n_batches=3)
        assert gradient_norm_sweep(partly, batches) == gradient_norm_sweep(reference, batches)
        assert parameter_flags(partly) == flags
        for (_, p, _), (_, q, _), flag in zip(partly.parameters(), reference.parameters(), flags):
            if flag:
                assert p.grad.tobytes() == q.grad.tobytes()
            else:
                assert p.grad is None


class TestEffectiveScaleSweep:
    def test_untrained_scaled_ln_model_reports_lambda_everywhere(self):
        model = toy_model(SkipKind.XSKIP_LN, lam=3.0, depth=5)
        report = effective_scale_sweep(model, [b[0] for b in toy_batches()])
        assert report.per_block == (3.0,) * 5
        assert report.average == 3.0

    def test_recursive_per_block_matches_manual_witness(self):
        from skipnorm import ratio_general

        model = toy_model(SkipKind.RSKIP_LN, lam=2.0, depth=3, seed=3)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 2))
        report = effective_scale_sweep(model, [x])
        outs = []
        model.forward(Tensor(x), block_outputs=outs)
        ins = [model.project_in(x)] + outs[:-1]
        for block, h, got in zip(model.blocks, ins, report.per_block):
            _, _, wit = block.witness(Tensor(h.data))
            assert got == pytest.approx(float(ratio_general(wit).mean()), abs=1e-12)

    def test_labeled_batches_are_accepted_too(self):
        model = toy_model(SkipKind.XSKIP_LN, lam=2.0, depth=2)
        assert effective_scale_sweep(model, toy_batches()).average == 2.0

    def test_undefined_for_unnormalized_model(self):
        model = toy_model(SkipKind.XSKIP, lam=2.0, depth=2)
        with pytest.raises(ContractError):
            effective_scale_sweep(model, [np.zeros((2, 2))])

    def test_empty_batch_set_rejected(self):
        model = toy_model(SkipKind.XSKIP_LN, lam=2.0, depth=2)
        with pytest.raises(ContractError):
            effective_scale_sweep(model, [])

    def test_a_nan_batch_is_refused_rather_than_reported(self):
        model = toy_model(SkipKind.RSKIP_LN, lam=2, depth=2)
        batch = np.random.default_rng(0).normal(size=(4, 2))
        batch[1, 0] = np.nan
        with pytest.raises(ContractError, match="sigma must be strictly positive"):
            effective_scale_sweep(model, [batch])


def two_pass_scale_sweep(model, batches):
    """The effective-scale sweep as two passes per batch: a full model
    forward that collects the block inputs, then effective_scale on each
    block input, which runs that block again for its witness."""
    totals = [0.0] * len(model.blocks)
    samples = 0
    for batch in batches:
        x = np.asarray(batch[0] if isinstance(batch, tuple) else batch, dtype=np.float64)
        outs = []
        with no_grad():
            model.forward(Tensor(x), block_outputs=outs)
            ins = [model.project_in(x)] + outs[:-1]
            for i, (block, h) in enumerate(zip(model.blocks, ins)):
                totals[i] += effective_scale(block, Tensor(h.data)) * x.shape[0]
        samples += x.shape[0]
    per_block = tuple(t / samples for t in totals)
    return per_block, float(np.mean(per_block))


def scale_model(construction, seed, depth=4):
    """An untrained model with its norm parameters and skip gains moved
    off their init, so every block's scale is generic."""
    cfg = ModelConfig(construction, depth=depth, d_in=3, width=8, hidden=6, classes=3)
    model = build_model(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    for block in model.blocks:
        for p in block.norms:
            p.gain.data = rng.uniform(0.3, 1.7, size=p.dim)
            p.bias.data = 0.5 * rng.normal(size=p.dim)
        if block.w_skip is not None:
            block.w_skip.data = 1.0 + 0.4 * rng.normal(size=block.w_skip.data.shape)
    return model


SCALE_CONSTRUCTIONS = (
    [SkipConstruction(SkipKind.XSKIP_LN, lam=lam) for lam in (0.5, 1.0, 2.0, 3.7)]
    + [SkipConstruction(SkipKind.RSKIP_LN, lam=lam) for lam in (1, 2, 3, 4)]
    + [SkipConstruction(SkipKind.WSKIP_LN)]
    + [SkipConstruction(SkipKind.CONTRACTED_F_LN, residual_scale=c) for c in (0.5, 3.0)]
)


class TestEffectiveScaleSweepPasses:
    @settings(max_examples=60, deadline=None)
    @given(
        construction=st.sampled_from(SCALE_CONSTRUCTIONS),
        seed=st.integers(0, 2**16),
        rows=st.lists(st.integers(1, 9), min_size=1, max_size=4),
        labelled=st.booleans(),
    )
    def test_bit_identical_to_the_two_pass_sweep(self, construction, seed, rows, labelled):
        model = scale_model(construction, seed)
        rng = np.random.default_rng(seed + 1)
        batches = [rng.normal(size=(n, 3)) for n in rows]
        if labelled:
            batches = [(x, rng.integers(0, 3, size=len(x))) for x in batches]
        report = effective_scale_sweep(model, batches)
        per_block, average = two_pass_scale_sweep(model, batches)
        assert report.per_block == per_block
        assert report.average == average
        assert report.samples == sum(rows)

    def test_recursive_per_block_equals_effective_scale_bit_for_bit(self):
        # 8 rows: weighting a scale by the row count and dividing it back out is exact
        model = scale_model(SkipConstruction(SkipKind.RSKIP_LN, lam=3), seed=7)
        x = np.random.default_rng(7).normal(size=(8, 3))
        outs = []
        with no_grad():
            model.forward(Tensor(x), block_outputs=outs)
            ins = [model.project_in(x)] + outs[:-1]
            expected = tuple(effective_scale(block, Tensor(h.data)) for block, h in zip(model.blocks, ins))
        assert len(set(expected)) == len(expected)  # generic, input-dependent scales
        assert effective_scale_sweep(model, [x]).per_block == expected

    @pytest.mark.parametrize("construction, calls_per_batch", [
        (SkipConstruction(SkipKind.RSKIP_LN, lam=3), 4),
        (SkipConstruction(SkipKind.XSKIP_LN, lam=2.0), 0),
        (SkipConstruction(SkipKind.WSKIP_LN), 0),
        (SkipConstruction(SkipKind.CONTRACTED_F_LN, residual_scale=3.0), 0),
    ])
    def test_block_forwards_per_batch(self, construction, calls_per_batch, monkeypatch):
        model = scale_model(construction, seed=5, depth=4)
        calls = []
        branch = AffineReluBranch.__call__

        def counted(f, x):
            calls.append(f)
            return branch(f, x)

        monkeypatch.setattr(AffineReluBranch, "__call__", counted)
        rng = np.random.default_rng(0)
        effective_scale_sweep(model, [rng.normal(size=(n, 3)) for n in (5, 2, 7)])
        assert calls == [block.branch for block in model.blocks[:calls_per_batch]] * 3

    @pytest.mark.parametrize("construction", [
        SkipConstruction(SkipKind.RSKIP_LN, lam=2),
        SkipConstruction(SkipKind.XSKIP_LN, lam=2.0),
        SkipConstruction(SkipKind.WSKIP_LN),
    ])
    def test_malformed_batches_raise_as_a_forward_would(self, construction):
        model = scale_model(construction, seed=1)
        good = np.zeros((2, 3))
        for bad in (np.zeros((2, 4)), np.zeros(3), np.zeros((1, 2, 3))):
            with pytest.raises(DimensionError) as swept:
                effective_scale_sweep(model, [good, bad])
            with pytest.raises(DimensionError) as forwarded:
                model.forward(Tensor(bad))
            assert str(swept.value) == str(forwarded.value)
        with pytest.raises(ContractError):
            effective_scale_sweep(model, [])


    def test_contracted_model_reports_the_inverse_residual_scale(self):
        model = scale_model(SkipConstruction(SkipKind.CONTRACTED_F_LN, residual_scale=3.0), seed=2)
        report = effective_scale_sweep(model, [np.ones((3, 3))])
        assert report.per_block == (1.0 / 3.0,) * 4

    def test_undefined_for_multi_level_batch_norm(self):
        model = scale_model(SkipConstruction(SkipKind.RSKIP_BN, lam=2), seed=1)
        with pytest.raises(ContractError, match="2rSkip"):
            effective_scale_sweep(model, [np.zeros((2, 3))])


class TestEmptyBatches:
    """A batch of no rows contributes nothing to either sweep; one of the
    wrong width still fails as a forward would."""

    @pytest.mark.parametrize("construction", [
        SkipConstruction(SkipKind.RSKIP_LN, lam=2),
        SkipConstruction(SkipKind.XSKIP_LN, lam=2.0),
        SkipConstruction(SkipKind.CONTRACTED_F_LN, residual_scale=3.0),
    ])
    def test_scale_sweep_skips_an_empty_batch(self, construction):
        model = scale_model(construction, seed=7, depth=2)
        x = np.random.default_rng(7).normal(size=(3, 3))
        with_empty = effective_scale_sweep(model, [np.zeros((0, 3)), x, (np.zeros((0, 3)), np.zeros(0, int))])
        assert with_empty == effective_scale_sweep(model, [x])
        assert all(np.isfinite(with_empty.per_block))

    def test_scale_sweep_of_only_empty_batches_is_rejected(self):
        model = scale_model(SkipConstruction(SkipKind.RSKIP_LN, lam=2), seed=7, depth=2)
        with pytest.raises(ContractError):
            effective_scale_sweep(model, [np.zeros((0, 3))])

    @pytest.mark.parametrize("construction", [
        SkipConstruction(SkipKind.RSKIP_LN, lam=2),
        SkipConstruction(SkipKind.XSKIP_LN, lam=2.0),
    ])
    def test_scale_sweep_rejects_an_empty_batch_of_the_wrong_width(self, construction):
        model = scale_model(construction, seed=7, depth=2)
        bad = np.zeros((0, 4))
        with pytest.raises(DimensionError) as swept:
            effective_scale_sweep(model, [np.ones((2, 3)), bad])
        with pytest.raises(DimensionError) as forwarded:
            model.forward(Tensor(bad))
        assert str(swept.value) == str(forwarded.value)

    @pytest.mark.parametrize("kind, lam", [(SkipKind.RSKIP_LN, 2), (SkipKind.RSKIP_BN, 2), (SkipKind.XSKIP, 2.0)])
    def test_gradient_sweep_skips_an_empty_batch(self, kind, lam):
        model = toy_model(kind, lam=lam, depth=2)
        batches = toy_batches(n_batches=2)
        empty = (np.zeros((0, 2)), np.zeros(0, int))
        with_empty = gradient_norm_sweep(model, [batches[0], empty, batches[1]])
        assert with_empty == gradient_norm_sweep(model, batches)

    def test_gradient_sweep_rejects_an_empty_batch_of_the_wrong_width(self):
        model = toy_model(SkipKind.RSKIP_LN, lam=2, depth=2)
        bad = np.zeros((0, 5))
        with pytest.raises(DimensionError) as swept:
            gradient_norm_sweep(model, toy_batches(n_batches=1) + [(bad, np.zeros(0, int))])
        with pytest.raises(DimensionError) as forwarded:
            model.forward(Tensor(bad))
        assert str(swept.value) == str(forwarded.value)


class TestAmplificationProbe:
    def test_boundary_gradients_follow_the_power_law(self):
        depth = 10
        for lam in (0.5, 2.0, 3.0):
            grads = amplification_probe(SkipConstruction(SkipKind.XSKIP, lam=lam), depth, width=6)
            assert len(grads) == depth + 1
            for k, g in enumerate(grads):
                expected = float(lam) ** (depth - k)
                rel = np.abs(g - expected) / expected
                assert rel.max() <= 1e-9, (lam, k)

    def test_identity_scale_passes_gradient_through_exactly(self):
        grads = amplification_probe(SkipConstruction(SkipKind.XSKIP, lam=1.0), 8, width=6)
        np.testing.assert_array_equal(grads[0], np.ones_like(grads[0]))

    def test_power_of_two_scale_is_exact(self):
        grads = amplification_probe(SkipConstruction(SkipKind.XSKIP, lam=2.0), 12, width=4)
        np.testing.assert_array_equal(grads[0], 2.0**12)

    def test_depth_must_be_positive(self):
        with pytest.raises(ConfigError):
            amplification_probe(SkipConstruction(SkipKind.XSKIP, lam=2.0), 0, width=4)


class TestBatteries:
    def test_gradcheck_battery_covers_ops_and_blocks(self):
        rows = gradcheck_battery(instances=2, seed=0)
        names = [name for name, _, _, _ in rows]
        assert sum(1 for n in names if n.startswith("op:")) == 11
        assert sum(1 for n in names if n.startswith("block:")) == 13
        assert all(ok for _, _, _, ok in rows), [r for r in rows if not r[3]]

    def test_gradcheck_battery_row_names_are_pinned(self):
        names = [name for name, _, _, _ in gradcheck_battery(instances=1, seed=0)]
        assert names == [
            "op:add", "op:add-vector", "op:scale", "op:ewmul", "op:ewmul-vector", "op:matmul", "op:relu",
            "op:softmax_cross_entropy", "op:layer_norm", "op:batch_norm-training", "op:batch_norm-inference",
            "block:plain", "block:0.5xSkip", "block:3xSkip", "block:2xSkip+LN", "block:1rSkip+LN",
            "block:2rSkip+LN", "block:3rSkip+LN", "block:4rSkip+LN", "block:wSkip+LN", "block:2xSkip+BN",
            "block:2rSkip+BN", "block:LN(x+0.5F)", "block:LN(x+3F)",
        ]

    def test_gradcheck_battery_checks_every_kind(self):
        names = [name for name, _, _, _ in gradcheck_battery(instances=1, seed=0)]
        for kind in SkipKind:
            # the kind's label at lambda = residual scale = 1, any number standing for the 1
            pattern = "block:" + re.escape(SkipConstruction(kind).label()).replace("1", "[0-9.]+")
            assert any(re.fullmatch(pattern, name) for name in names), f"no battery row for {kind.value}"

    def test_every_battery_row_carries_the_fixed_tol(self):
        rows = gradcheck_battery(instances=1, seed=0)
        assert len(rows) == 24 and all(tol == 1e-4 for _, _, tol, _ in rows)

    def test_gradcheck_battery_is_deterministic(self):
        assert gradcheck_battery(instances=2, seed=5) == gradcheck_battery(instances=2, seed=5)

    def test_gradcheck_battery_needs_an_instance(self):
        with pytest.raises(ConfigError, match="instance"):
            gradcheck_battery(instances=0)

    def test_decomposition_check_needs_an_instance(self):
        with pytest.raises(ConfigError, match="instance"):
            decomposition_check(lams=(1,), instances=0)

    def test_decomposition_check_needs_a_lambda(self):
        with pytest.raises(ConfigError, match="at least one lambda"):
            decomposition_check(lams=(), instances=1)

    def test_a_nan_error_fails_its_battery_row(self, monkeypatch):
        from skipnorm import diagnostics

        real = diagnostics.gradcheck
        calls = []

        def nan_on_second_call(f, inputs, **kwargs):
            report = real(f, inputs, **kwargs)
            calls.append(report)
            return GradCheckReport(float("nan")) if len(calls) == 2 else report

        monkeypatch.setattr(diagnostics, "gradcheck", nan_on_second_call)
        name, worst, tol, passed = gradcheck_battery(instances=3, seed=0)[0]
        assert name == "op:add" and np.isnan(worst) and not passed

    def test_a_nan_error_is_the_worst_decomposition_error(self, monkeypatch):
        from skipnorm import diagnostics

        real = diagnostics.unroll_decompose
        calls = []

        def nan_constant_first(witness, x, f):
            coef_x, coef_f, const = real(witness, x, f)
            calls.append(witness)
            return coef_x, coef_f, const + np.nan if len(calls) == 1 else const

        monkeypatch.setattr(diagnostics, "unroll_decompose", nan_constant_first)
        [(lam, rec, disc)] = decomposition_check(lams=(2,), instances=3)
        assert np.isnan(rec) and disc <= 1e-10

    def test_decomposition_check_is_tight(self):
        rows = decomposition_check(lams=(1, 2, 3), instances=10, seed=0)
        assert [lam for lam, _, _ in rows] == [1, 2, 3]
        for lam, rec, disc in rows:
            assert rec <= 1e-10, (lam, rec)
            assert disc <= 1e-10, (lam, disc)


class TestNonFiniteGradientNorms:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_report_rejects_a_non_finite_norm(self, bad):
        with pytest.raises(ContractError, match="finite"):
            GradReport("x", (1.0, bad), samples=2)

    def test_sweep_of_a_model_with_a_nan_parameter_raises(self):
        model = toy_model(SkipKind.XSKIP, lam=2.0, depth=2)
        model.in_w.data[0, 0] = np.nan
        with pytest.raises(ContractError, match="finite"):
            gradient_norm_sweep(model, toy_batches())


class TestDecompositionCheckInputs:
    def test_every_lambda_is_checked_before_any_instance_runs(self, monkeypatch):
        from skipnorm import diagnostics

        def no_instances(*args, **kwargs):
            raise AssertionError("an instance ran")

        monkeypatch.setattr(diagnostics, "build_block", no_instances)
        for lams in ((1, 1.5), (2, 0), (3, float("nan"))):
            with pytest.raises(ConfigError):
                decomposition_check(lams=lams, instances=2)

    def test_rows_report_the_integer_depth(self):
        rows = decomposition_check(lams=(1.0, 3.0), instances=2)
        assert [lam for lam, _, _ in rows] == [1, 3]
        assert all(type(lam) is int for lam, _, _ in rows)

    @pytest.mark.parametrize("width", [0, -2])
    def test_bad_width_refused(self, width):
        with pytest.raises(ConfigError, match="width"):
            decomposition_check(lams=(1,), width=width, instances=2)

    @pytest.mark.parametrize("width", [0, -2])
    def test_amplification_probe_refuses_a_bad_width(self, width):
        with pytest.raises(ConfigError, match="width"):
            amplification_probe(SkipConstruction(SkipKind.XSKIP, lam=2.0), depth=2, width=width)

    def test_amplification_probe_sizes_its_whole_stack_before_any_draw(self, monkeypatch):
        # at a limit that fits a depth-1 probe, and so each of its blocks, 2,000 blocks are refused
        from skipnorm import diagnostics, errors
        from skipnorm.blocks import _footprint

        construction = SkipConstruction.parse("0.5xskip")
        monkeypatch.setattr(errors, "MAX_DOUBLES", _footprint(ModelConfig(construction, 1, 8, 8, 8, 1), 2, True))
        assert len(amplification_probe(construction, 1, 8)) == 2

        def no_draws(*args, **kwargs):
            raise AssertionError("a block was drawn")

        monkeypatch.setattr(diagnostics, "build_block", no_draws)
        with pytest.raises(ConfigError, match="allowed"):
            amplification_probe(construction, 2000, 8)
