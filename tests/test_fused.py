"""The fused branch and skip-combination nodes, no-grad evaluation and
in-place gradient/SGD updates: every value and gradient must equal, bit
for bit, the same expression composed from the public ops."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skipnorm import (
    AffineReluBranch,
    BatchNormParams,
    ContractError,
    DimensionError,
    LayerNormParams,
    ModelConfig,
    SkipConstruction,
    SkipKind,
    Tensor,
    add,
    batch_norm,
    build_block,
    build_model,
    combine_norm,
    ewmul,
    layer_norm,
    matmul,
    no_grad,
    relu,
    scale,
    sgd_step,
    softmax_cross_entropy,
    tsum,
)
from skipnorm.normalization import EPS, MOMENTUM


def reference_branch(branch, x):
    """The affine-relu branch composed from the public ops: five tape nodes."""
    return add(matmul(relu(add(matmul(x, branch.w1), branch.b1)), branch.w2), branch.b2)


def reference_forward(block, x):
    """A block composed from the public ops, one tape node per op."""
    con, k = block.construction, block.construction.kind
    f = reference_branch(block.branch, x)
    if k is SkipKind.PLAIN:
        return add(x, f)
    if k is SkipKind.XSKIP:
        return add(scale(x, con.lam), f)
    if k is SkipKind.XSKIP_LN:
        return layer_norm(add(scale(x, con.lam), f), block.norms[0])
    if k is SkipKind.WSKIP_LN:
        return layer_norm(add(ewmul(x, block.w_skip), f), block.norms[0])
    if k is SkipKind.CONTRACTED_F_LN:
        return layer_norm(add(x, scale(f, con.residual_scale)), block.norms[0])
    if k is SkipKind.XSKIP_BN:
        return batch_norm(add(scale(x, con.lam), f), block.norms[0])
    norm = layer_norm if k is SkipKind.RSKIP_LN else batch_norm
    y = norm(add(x, f), block.norms[0])
    for p in block.norms[1:]:
        y = norm(add(x, y), p)
    return y


def bits(a):
    a = np.asarray(a)
    return a.shape, a.tobytes()


def constructions():
    lam = st.sampled_from([0.5, 1.0, 2.0, 3.0, 0.3])
    levels = st.integers(1, 4)
    return st.one_of(
        st.just(SkipConstruction(SkipKind.PLAIN)),
        lam.map(lambda v: SkipConstruction(SkipKind.XSKIP, lam=v)),
        lam.map(lambda v: SkipConstruction(SkipKind.XSKIP_LN, lam=v)),
        lam.map(lambda v: SkipConstruction(SkipKind.XSKIP_BN, lam=v)),
        levels.map(lambda v: SkipConstruction(SkipKind.RSKIP_LN, lam=v)),
        levels.map(lambda v: SkipConstruction(SkipKind.RSKIP_BN, lam=v)),
        st.just(SkipConstruction(SkipKind.WSKIP_LN)),
        lam.map(lambda v: SkipConstruction(SkipKind.CONTRACTED_F_LN, residual_scale=v)),
    )


def random_block(construction, width, hidden, rng, bn_mode):
    block = build_block(construction, width, hidden, rng)
    for name, p, _ in block.parameters():
        if not name.startswith("branch.w"):
            p.data = p.data + 0.3 * rng.normal(size=p.data.shape)
    for p in block.norms:
        if isinstance(p, BatchNormParams):
            p.mode = bn_mode
            p.running_mean = rng.normal(size=width)
            p.running_var = rng.uniform(0.5, 2.0, size=width)
    return block


def run(forward, block, x, upstream):
    """Output, every gradient and the norms' running statistics after one
    forward and backward; the block's state is restored afterwards."""
    stats = [(p.running_mean, p.running_var) for p in block.norms if isinstance(p, BatchNormParams)]
    x.zero_grad()
    for _, p, _ in block.parameters():
        p.zero_grad()
    out = forward(block, x)
    # x used once more after the block: its gradient then sums three or
    # more contributions, so their order shows in the bits
    tsum(ewmul(add(out, x), upstream)).backward()
    result = [bits(out.data), bits(x.grad)]
    result += [(name, bits(p.grad)) for name, p, _ in block.parameters()]
    bn = [p for p in block.norms if isinstance(p, BatchNormParams)]
    result += [(bits(p.running_mean), bits(p.running_var)) for p in bn]
    for p, (mean, var) in zip(bn, stats):
        p.running_mean, p.running_var = mean, var
    return result


class TestFusedBlock:
    @settings(max_examples=150, deadline=None)
    @given(
        construction=constructions(),
        batch=st.integers(2, 6),
        width=st.integers(2, 7),
        hidden=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        bn_mode=st.sampled_from(["training", "inference"]),
    )
    def test_output_and_every_gradient_match_the_composed_ops(self, construction, batch, width, hidden, seed, bn_mode):
        rng = np.random.default_rng(seed)
        block = random_block(construction, width, hidden, rng, bn_mode)
        x = Tensor(rng.normal(size=(batch, width)), requires_grad=True)
        upstream = Tensor(rng.normal(size=(batch, width)))
        fused = run(lambda b, v: b.forward(v), block, x, upstream)
        assert fused == run(reference_forward, block, x, upstream)

    @pytest.mark.parametrize("lam", [1, 2, 3, 4])
    def test_ln_witness_matches_the_composed_ops(self, lam):
        rng = np.random.default_rng(lam)
        block = random_block(SkipConstruction(SkipKind.RSKIP_LN, lam=lam), 5, 4, rng, "training")
        x = Tensor(rng.normal(size=(3, 5)))
        _, _, witness = block.witness(x)
        f = reference_branch(block.branch, x)
        composed = []
        y = f
        for p in block.norms:
            z = add(x, y)
            composed.append((bits(z.data.mean(axis=1)), bits(np.sqrt(z.data.var(axis=1) + EPS))))
            y = layer_norm(z, p)
        assert list(zip(map(bits, witness.mus), map(bits, witness.sigmas))) == composed


def with_specials(rng, shape, share):
    """Normal entries, a share of them replaced by 0.0, -0.0, inf, -inf
    or NaN."""
    a = rng.normal(size=shape)
    pick = rng.random(shape) < share
    a[pick] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], size=int(pick.sum()))
    return a


class TestFusedBranch:
    @settings(max_examples=200, deadline=None)
    @given(
        batch=st.integers(1, 9),
        width=st.integers(1, 70),
        hidden=st.integers(1, 70),
        frozen=st.lists(st.booleans(), min_size=5, max_size=5),
        share=st.sampled_from([0.0, 0.02, 0.3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_output_and_every_gradient_match_the_composed_ops(self, batch, width, hidden, frozen, share, seed):
        rng = np.random.default_rng(seed)
        w1 = with_specials(rng, (width, hidden), share)
        b1 = with_specials(rng, hidden, share)
        # pre-activations of exactly +-0.0: dead columns, and zero rows of x
        # meeting zero biases
        dead = rng.random(hidden) < 0.3
        w1[:, dead] = 0.0
        b1[dead] = rng.choice([0.0, -0.0], size=int(dead.sum()))
        x = with_specials(rng, (batch, width), share)
        x[rng.random(batch) < 0.3] = rng.choice([0.0, -0.0])
        b1[rng.random(hidden) < 0.3] = 0.0
        values = [x, w1, b1, with_specials(rng, (hidden, width), share), with_specials(rng, width, share)]
        leaves = [Tensor(v, requires_grad=not f) for v, f in zip(values, frozen)]
        branch = AffineReluBranch(*leaves[1:])
        upstream = [with_specials(rng, (batch, width), share) for _ in range(2)]

        results = []
        for forward in (branch, lambda v: reference_branch(branch, v)):
            for t in leaves:
                t.zero_grad()
            outs = []
            for g in upstream:  # the second pass adds into the first's gradients
                with np.errstate(all="ignore"):
                    out = forward(leaves[0])
                    if out.requires_grad:
                        out.backward(g)
                outs.append(bits(out.data))
            results.append(outs + [None if t.grad is None else bits(t.grad) for t in leaves])
        assert results[0] == results[1]
        assert [t.grad is None for t in leaves] == frozen

    def test_one_node_with_five_parents_and_none_without_a_tape(self):
        rng = np.random.default_rng(0)
        branch = AffineReluBranch.init(3, 4, rng)
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        out = branch(x)
        assert out._op == "affine_relu"
        assert out._parents == (x, branch.w1, branch.b1, branch.w2, branch.b2)
        assert all(p._parents == () for p in out._parents)
        with no_grad():
            out = branch(x)
        assert out._parents == () and out._backward is None and not out.requires_grad


def reference_norm(x, gain, bias, g, eps, axis):
    """Forward and backward of a standardizing norm written out with
    numpy's mean, as one expression per quantity."""
    mu = x.mean(axis=axis, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=axis, keepdims=True)
    sigma = np.sqrt(var + eps)
    xhat = centered / sigma
    out = gain * xhat + bias
    dxhat = g * gain
    dx = (
        dxhat
        - dxhat.mean(axis=axis, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=axis, keepdims=True)
    ) / sigma
    return out, (g * xhat).sum(axis=0), g.sum(axis=0), dx, mu, var


class TestNormKernels:
    @settings(max_examples=60, deadline=None)
    @given(batch=st.integers(2, 9), width=st.integers(1, 70), seed=st.integers(0, 2**32 - 1))
    def test_layer_and_batch_norm_match_the_written_out_formulas(self, batch, width, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(batch, width)) * rng.uniform(0.1, 10.0)
        g = rng.normal(size=(batch, width))
        for norm, params, axis in ((layer_norm, LayerNormParams.create(width), 1),
                                   (batch_norm, BatchNormParams.create(width), 0)):
            params.gain.data = 1.0 + 0.3 * rng.normal(size=width)
            params.bias.data = 0.3 * rng.normal(size=width)
            start = (params.running_mean, params.running_var) if axis == 0 else None
            x = Tensor(data, requires_grad=True)
            out = norm(x, params)
            out.backward(g)
            want = reference_norm(data, params.gain.data, params.bias.data, g, EPS, axis)
            assert [bits(out.data), bits(params.gain.grad), bits(params.bias.grad), bits(x.grad)] == [
                bits(v) for v in want[:4]
            ]
            if start is not None:
                m = MOMENTUM
                assert bits(params.running_mean) == bits((1.0 - m) * start[0] + m * want[4][0])
                assert bits(params.running_var) == bits((1.0 - m) * start[1] + m * want[5][0])

    def test_batch_norm_inference_matches_the_written_out_formula(self):
        rng = np.random.default_rng(5)
        p = BatchNormParams.create(6)
        p.mode = "inference"
        p.running_mean, p.running_var = rng.normal(size=6), rng.uniform(0.5, 2.0, size=6)
        p.gain.data, p.bias.data = rng.normal(size=6), rng.normal(size=6)
        x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        g = rng.normal(size=(4, 6))
        out = batch_norm(x, p)
        out.backward(g)
        denom = np.sqrt(p.running_var + EPS)
        xhat = (x.data - p.running_mean) / denom
        assert bits(out.data) == bits(p.gain.data * xhat + p.bias.data)
        assert bits(p.gain.grad) == bits((g * xhat).sum(axis=0))
        assert bits(x.grad) == bits(g * (p.gain.data / denom))


class TestCombineNorm:
    @settings(max_examples=100, deadline=None)
    @given(
        a=st.sampled_from([1.0, 0.5, 2.0, "learned"]),
        c=st.sampled_from([1.0, 0.25, 3.0]),
        norm=st.sampled_from([None, "ln", "bn-training", "bn-inference"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_scale_ewmul_add_and_norm(self, a, c, norm, seed):
        rng = np.random.default_rng(seed)
        n, d = 4, 5
        params = None
        if norm == "ln":
            params = LayerNormParams.create(d)
        elif norm is not None:
            params = BatchNormParams.create(d)
            params.mode = norm[3:]
            params.running_mean, params.running_var = rng.normal(size=d), rng.uniform(0.5, 2, size=d)
        if params is not None:
            params.gain.data = 1.0 + 0.3 * rng.normal(size=d)
            params.bias.data = 0.3 * rng.normal(size=d)
        if a == "learned":
            a = Tensor(1.0 + 0.2 * rng.normal(size=d), requires_grad=True)
        x = Tensor(rng.normal(size=(n, d)), requires_grad=True)
        y = Tensor(rng.normal(size=(n, d)), requires_grad=True)
        g = rng.normal(size=(n, d))
        leaves = [x, y] + ([a] if isinstance(a, Tensor) else [])
        leaves += [params.gain, params.bias] if params is not None else []

        def composed():
            ax = ewmul(x, a) if isinstance(a, Tensor) else scale(x, a)
            z = add(ax, scale(y, c))
            if norm is None:
                return z
            return layer_norm(z, params) if norm == "ln" else batch_norm(z, params)

        results = []
        for fn in (lambda: combine_norm(x, y, a, c, [] if params is None else [params]), composed):
            for t in leaves:
                t.zero_grad()
            out = fn()
            out.backward(g)
            results.append([bits(out.data)] + [bits(t.grad) for t in leaves])
        assert results[0] == results[1]

    def test_one_node_with_the_norm_parameters_as_parents(self):
        p = LayerNormParams.create(3)
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        y = Tensor(np.arange(6.0).reshape(2, 3))
        out = combine_norm(x, y, 2.0, 1.0, [p])
        assert out._op == "combine_norm"
        assert out._parents == (x, y, p.gain, p.bias)

    def test_shape_errors(self):
        x = Tensor(np.ones((2, 3)))
        with pytest.raises(DimensionError):
            combine_norm(x, Tensor(np.ones((2, 4))))
        with pytest.raises(DimensionError):
            combine_norm(x, x, Tensor(np.ones(4)))
        with pytest.raises(DimensionError):
            combine_norm(x, x, norms=[LayerNormParams.create(4)])

    def test_bn_training_needs_two_rows(self):
        x = Tensor(np.ones((1, 3)))
        with pytest.raises(ContractError):
            combine_norm(x, x, norms=[BatchNormParams.create(3)])

    def test_inputs_are_not_written(self):
        rng = np.random.default_rng(0)
        x, y = Tensor(rng.normal(size=(3, 4)), requires_grad=True), Tensor(rng.normal(size=(3, 4)))
        before = x.data.copy(), y.data.copy()
        out = combine_norm(x, y, 1.0, 1.0, [LayerNormParams.create(4)])
        out.backward(np.ones((3, 4)))
        assert bits(x.data) == bits(before[0]) and bits(y.data) == bits(before[1])
        assert not np.shares_memory(out.data, x.data) and not np.shares_memory(out.data, y.data)


def random_norm(kind, d, rng):
    """A norm of one kind ("ln", "bn-training" or "bn-inference") with
    gains, biases and running statistics away from their defaults."""
    if kind == "ln":
        p = LayerNormParams.create(d)
    else:
        p = BatchNormParams.create(d)
        p.mode = kind[3:]
        p.running_mean, p.running_var = rng.normal(size=d), rng.uniform(0.5, 2, size=d)
    p.gain.data = 1.0 + 0.3 * rng.normal(size=d)
    p.bias.data = 0.3 * rng.normal(size=d)
    return p


def recorded_ops(out):
    """The ops of the recorded nodes reachable from ``out``, itself included."""
    seen, stack = {out}, [out]
    while stack:
        for p in stack.pop()._parents:
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return sorted(t._op for t in seen if t._backward is not None)


class TestCombineNormChain:
    """A sequence of norms is one node for the whole chain
    y_k = N_k(a*x + c*y_{k-1}), equal bit for bit to nested one-level
    calls and to the chain composed from the public ops."""

    @settings(max_examples=150, deadline=None)
    @given(
        kinds=st.lists(st.sampled_from(["ln", "bn-training", "bn-inference"]), min_size=1, max_size=4),
        a=st.sampled_from([1.0, 0.5, 2.0, "learned"]),
        c=st.sampled_from([1.0, 0.25, 3.0]),
        frozen=st.lists(st.booleans(), min_size=11, max_size=11),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_nested_one_level_calls(self, kinds, a, c, frozen, seed):
        """Values, every gradient over two backward passes, and the running
        statistics. Each pass drops the interior gradients (retain=()):
        kept, the nested tape's inner nodes would resend their first-pass
        gradients in the second pass, which a chain has no nodes for."""
        rng = np.random.default_rng(seed)
        n, d = 4, 5
        norms = [random_norm(kind, d, rng) for kind in kinds]
        if a == "learned":
            a = Tensor(1.0 + 0.2 * rng.normal(size=d), requires_grad=True)
        x = Tensor(rng.normal(size=(n, d)), requires_grad=True)
        y = Tensor(rng.normal(size=(n, d)), requires_grad=True)
        leaves = [x, y] + ([a] if isinstance(a, Tensor) else []) + [t for p in norms for t in (p.gain, p.bias)]
        for t, f in zip(leaves, frozen):
            t.requires_grad = not f
        upstream = [rng.normal(size=(n, d)) for _ in range(2)]
        start = [(p.running_mean, p.running_var) for p in norms if isinstance(p, BatchNormParams)]

        def nested():
            out = y
            for p in norms:
                out = combine_norm(x, out, a, c, [p])
            return out

        def composed():
            out = y
            for p in norms:
                z = add(ewmul(x, a) if isinstance(a, Tensor) else scale(x, a), scale(out, c))
                out = layer_norm(z, p) if isinstance(p, LayerNormParams) else batch_norm(z, p)
            return out

        results = []
        for forward in (lambda: combine_norm(x, y, a, c, norms), nested, composed):
            for t in leaves:
                t.zero_grad()
            bn = [p for p in norms if isinstance(p, BatchNormParams)]
            for p, (mean, var) in zip(bn, start):
                p.running_mean, p.running_var = mean, var
            out = forward()
            if out.requires_grad:
                for g in upstream:
                    out.backward(g, retain=())
            results.append(
                [bits(out.data), out.requires_grad]
                + [None if t.grad is None else bits(t.grad) for t in leaves]
                + [(bits(p.running_mean), bits(p.running_var)) for p in bn]
            )
        assert results[0] == results[1] == results[2]

    def test_a_recursive_block_records_two_nodes_and_none_without_a_tape(self):
        rng = np.random.default_rng(0)
        block = build_block(SkipConstruction(SkipKind.RSKIP_LN, lam=4), 6, 5, rng)
        x = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        out = block.forward(x)
        assert recorded_ops(out) == ["affine_relu", "combine_norm"]
        norm_params = tuple(t for p in block.norms for t in (p.gain, p.bias))
        assert out._parents[2:] == norm_params
        with no_grad():
            out = block.forward(x)
        assert recorded_ops(out) == [] and out._parents == ()

    def test_the_tape_keeps_seven_row_by_width_arrays_per_block(self):
        """Of a recorded 4rSkip+LN block at 256x64 the tape keeps the branch's
        hidden activation and output, each level's standardized input and
        the block output; every other array is freed during the forward.
        The slack covers each level's per-row sigma and the node objects."""
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
        assert kept <= depth * (7 * array + array // 4)


def tiny_model(token, seed=0):
    cfg = ModelConfig(SkipConstruction.parse(token), depth=3, d_in=2, width=6, hidden=5, classes=3)
    return build_model(cfg, seed)


class TestNoGrad:
    @pytest.mark.parametrize("token", ["plain", "2xskip", "2xskip-ln", "3rskip-ln", "wskip-ln", "contracted-f-ln:3", "2rskip-bn"])
    def test_forward_is_bit_identical_and_records_nothing(self, token):
        model = tiny_model(token)
        model.set_norm_mode("inference")
        x = np.random.default_rng(1).normal(size=(7, 2))
        taped = model.forward(x)
        softmax_cross_entropy(taped, np.zeros(7, dtype=int)).backward()
        grads = [bits(p.grad) for _, p, _ in model.parameters()]
        with no_grad():
            outs = []
            logits = model.forward(x, block_outputs=outs)
        assert bits(logits.data) == bits(taped.data)
        for t in [logits] + outs:
            assert t._parents == () and t._backward is None and not t.requires_grad
        assert [bits(p.grad) for _, p, _ in model.parameters()] == grads
        with pytest.raises(ContractError):
            logits.backward(np.ones_like(logits.data))

    def test_leaves_keep_requires_grad_and_state_is_restored(self):
        with no_grad():
            leaf = Tensor(np.ones(2), requires_grad=True)
            with no_grad():
                pass
            assert not add(leaf, leaf).requires_grad
        assert leaf.requires_grad
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError
        assert add(leaf, leaf).requires_grad

    def test_gradcheck_evaluations_leave_no_tape(self):
        from skipnorm import gradcheck

        a = Tensor(np.linspace(-1.0, 1.0, 6).reshape(2, 3), requires_grad=True)
        seen = []

        def f(*_):
            out = tsum(scale(a, 2.0))
            seen.append(out.requires_grad)
            return out

        assert gradcheck(f, [a]).passed
        assert seen[0] and not any(seen[1:])


class TestGradBuffers:
    def test_shared_upstream_gradient_never_aliases(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        pa, pb = scale(a, 2.0), scale(b, 3.0)  # their backward runs last
        out = add(add(add(a, b), pa), pb)  # add(a, b) hands one g to both
        seed = np.arange(6.0).reshape(2, 3)
        out.backward(seed.copy())
        np.testing.assert_array_equal(a.grad, 3.0 * seed)
        np.testing.assert_array_equal(b.grad, 4.0 * seed)
        assert not np.shares_memory(a.grad, b.grad)

    def test_seed_is_copied_and_later_contributions_add_in_place(self):
        a = Tensor(np.ones(3), requires_grad=True)
        seed = np.array([1.0, 2.0, 3.0])
        out = add(a, a)
        out.backward(seed)
        buffer = a.grad
        np.testing.assert_array_equal(a.grad, 2.0 * seed)
        np.testing.assert_array_equal(seed, [1.0, 2.0, 3.0])
        add(a, a).backward(seed)
        assert a.grad is buffer
        np.testing.assert_array_equal(a.grad, 4.0 * seed)


class TestSgdInPlace:
    def test_update_is_in_place_and_bit_identical(self):
        rng = np.random.default_rng(3)
        p = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        p.grad = rng.normal(size=(4, 3))
        v = rng.normal(size=(4, 3))
        lr, momentum, decay = 0.02, 0.9, 2e-4  # the optimiser's fixed momentum and weight decay
        expected_v = momentum * v + (p.grad + decay * p.data)
        expected = p.data - lr * expected_v
        array = p.data
        sgd_step([("w", p, True)], [v], lr)
        assert p.data is array
        assert bits(p.data) == bits(expected) and bits(v) == bits(expected_v)
