"""Tape correctness: forward values, backward closures, gradcheck."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skipnorm import (
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
    build_model,
    combine_norm,
    ewmul,
    gradcheck,
    layer_norm,
    matmul,
    relu,
    scale,
    softmax_cross_entropy,
    tsum,
)


ONE_OF_EACH_KIND = {
    c.kind: c
    for c in map(SkipConstruction.parse, ("plain", "1.5xskip", "0.7xskip-ln", "3rskip-ln", "wskip-ln",
                                          "1.5xskip-bn", "2rskip-bn", "contracted-f-ln:2.5"))
}


def leaf(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


class TestForwardValues:
    def test_add_known_values(self):
        out = add(leaf([1.0, 2.0]), leaf([3.0, 4.0]))
        np.testing.assert_array_equal(out.data, [4.0, 6.0])

    def test_add_zero_is_identity(self):
        x = leaf([[1.5, -2.0], [0.25, 3.0]])
        out = add(x, leaf(np.zeros((2, 2))))
        np.testing.assert_array_equal(out.data, x.data)

    def test_scale_known_values(self):
        out = scale(leaf([1.0, 2.0]), 2.0)
        np.testing.assert_array_equal(out.data, [2.0, 4.0])

    def test_scale_by_one_is_bit_identical(self):
        x = leaf([[0.1, -7.0, 1e300]])
        np.testing.assert_array_equal(scale(x, 1.0).data, x.data)

    def test_ewmul_known_values(self):
        out = ewmul(leaf([1.0, 2.0]), leaf([3.0, 4.0]))
        np.testing.assert_array_equal(out.data, [3.0, 8.0])

    def test_matmul_known_values(self):
        out = matmul(leaf([[1.0, 2.0]]), leaf([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_matmul_identity(self):
        x = np.arange(6.0).reshape(2, 3)
        out = matmul(leaf(x), leaf(np.eye(3)))
        np.testing.assert_array_equal(out.data, x)

    def test_relu_known_values(self):
        out = relu(leaf([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.integers(1, 40),
        width=st.integers(1, 70),
        seed=st.integers(0, 2**32 - 1),
        share=st.sampled_from([0.05, 0.5, 1.0]),
        layout=st.sampled_from(["contiguous", "transposed", "strided"]),
    )
    def test_relu_is_bit_equal_to_the_where_form(self, rows, width, seed, share, layout):
        # the special values sit at random positions, so they land both in
        # numpy's SIMD loop and in its scalar tail (widths not a multiple
        # of the SIMD width), where -0.0 is handled differently
        rng = np.random.default_rng(seed)
        special = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                            1e-310, -1e-310, 2.2250738585072014e-308, -1.0, 1.0])
        a = rng.normal(size=(rows, width))
        hit = rng.random(a.shape) < share
        a[hit] = rng.choice(special, size=int(hit.sum()))
        if layout == "transposed":
            a = a.T
        elif layout == "strided":
            a = a[:, ::2]
        expected = np.where(a > 0.0, a, 0.0)
        out = relu(Tensor(a)).data
        assert out.shape == expected.shape and out.tobytes() == expected.tobytes()

    def test_sum_known_value(self):
        assert float(tsum(leaf([[1.0, 2.0], [3.0, 4.0]])).data) == 10.0

    def test_uniform_logits_loss_is_log_classes(self):
        logits = leaf(np.zeros((4, 5)))
        loss = softmax_cross_entropy(logits, np.array([0, 1, 2, 3]))
        assert abs(float(loss.data) - np.log(5.0)) < 1e-12

    def test_huge_logit_margin_does_not_overflow(self):
        loss = softmax_cross_entropy(leaf([[1000.0, 0.0]]), np.array([0]))
        assert float(loss.data) == 0.0


class TestBackward:
    def test_add_passes_gradient_through_unchanged(self):
        x, y = leaf([1.0, 2.0]), leaf([3.0, 4.0])
        tsum(add(x, y)).backward()
        np.testing.assert_array_equal(x.grad, [1.0, 1.0])
        np.testing.assert_array_equal(y.grad, [1.0, 1.0])

    def test_scale_multiplies_gradient_exactly(self):
        x = leaf([1.0, -2.0, 3.0])
        tsum(scale(x, 3.0)).backward()
        np.testing.assert_array_equal(x.grad, [3.0, 3.0, 3.0])

    def test_vector_broadcast_grad_sums_over_rows(self):
        x = leaf(np.arange(12.0).reshape(3, 4))
        v = leaf([1.0, 2.0, 3.0, 4.0])
        tsum(add(x, v)).backward()
        np.testing.assert_array_equal(v.grad, [3.0, 3.0, 3.0, 3.0])
        tsum(ewmul(x, v)).backward()
        np.testing.assert_array_equal(v.grad, [3.0, 3.0, 3.0, 3.0] + x.data.sum(axis=0))

    def test_relu_gradient_is_zero_at_zero(self):
        x = leaf([0.0])
        tsum(relu(x)).backward()
        np.testing.assert_array_equal(x.grad, [0.0])

    def test_two_backward_passes_accumulate_additively(self):
        x = leaf([1.0, 2.0])
        tsum(scale(x, 2.0)).backward()
        tsum(scale(x, 3.0)).backward()  # no reset between passes
        np.testing.assert_array_equal(x.grad, [5.0, 5.0])
        x.zero_grad()
        assert x.grad is None

    def test_diamond_reuse_sums_both_paths(self):
        x = leaf([2.0])
        tsum(add(scale(x, 3.0), scale(x, 5.0))).backward()
        np.testing.assert_array_equal(x.grad, [8.0])

    def test_grads_are_retained_on_intermediates(self):
        x = leaf([[1.0, 2.0]])
        mid = scale(x, 2.0)
        tsum(mid).backward()
        assert mid.grad is not None
        np.testing.assert_array_equal(mid.grad, [[1.0, 1.0]])

    def test_retain_keeps_listed_and_leaf_grads_only(self):
        x = leaf([[1.0, 2.0]])
        mid = scale(x, 2.0)
        top = relu(mid)
        out = tsum(top)
        out.backward(retain=[top])
        np.testing.assert_array_equal(x.grad, [[2.0, 2.0]])
        np.testing.assert_array_equal(top.grad, [[1.0, 1.0]])
        assert mid.grad is None and out.grad is None

    def test_retain_of_nothing_keeps_only_leaf_grads(self):
        x = leaf([3.0])
        mid = scale(x, 2.0)
        tsum(add(mid, mid)).backward(retain=())
        np.testing.assert_array_equal(x.grad, [4.0])
        assert mid.grad is None

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(list(SkipKind)),
        depth=st.integers(1, 3),
        width=st.integers(1, 5),
        rows=st.integers(2, 5),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_retain_changes_no_kept_gradient(self, kind, depth, width, rows, seed, data):
        # two identical tapes; one keeps every gradient, one only S
        cfg = ModelConfig(ONE_OF_EACH_KIND[kind], depth, 3, width, 4, 3)
        x = np.random.default_rng(seed).normal(size=(rows, 3))
        labels = np.arange(rows) % 3

        def tape():
            model = build_model(cfg, seed)
            loss = softmax_cross_entropy(model.forward(Tensor(x)), labels)
            return loss, _tape_nodes(loss)

        full_loss, full = tape()
        part_loss, part = tape()
        interior = [i for i, t in enumerate(part) if t._parents]
        kept = set(data.draw(st.lists(st.sampled_from(interior), unique=True))) if interior else set()
        full_loss.backward()
        part_loss.backward(retain=[part[i] for i in kept])
        for i, (a, b) in enumerate(zip(full, part)):
            if not b._parents or i in kept:
                assert a.grad.tobytes() == b.grad.tobytes(), (i, b)
            else:
                assert b.grad is None, (i, b)

    def test_backward_is_deterministic(self):
        rng = np.random.default_rng(7)
        w = rng.normal(size=(4, 4))
        xs = rng.normal(size=(3, 4))
        grads = []
        for _ in range(2):
            x = leaf(xs)
            tsum(relu(matmul(x, leaf(w)))).backward()
            grads.append(x.grad)
        np.testing.assert_array_equal(grads[0], grads[1])

    def test_backward_requires_grad(self):
        with pytest.raises(ContractError):
            Tensor([1.0]).backward()

    def test_backward_on_non_scalar_needs_seed(self):
        x = leaf([1.0, 2.0])
        with pytest.raises(ContractError):
            scale(x, 2.0).backward()

    def test_backward_with_explicit_seed(self):
        x = leaf([1.0, 2.0])
        scale(x, 2.0).backward(seed=[10.0, 20.0])
        np.testing.assert_array_equal(x.grad, [20.0, 40.0])

    def test_seed_shape_mismatch_raises(self):
        x = leaf([1.0, 2.0])
        with pytest.raises(DimensionError):
            scale(x, 2.0).backward(seed=[1.0, 2.0, 3.0])


def _tape_nodes(root):
    """Every node of root's tape that requires grad, in creation order."""
    seen, stack = {root}, [root]
    while stack:
        for p in stack.pop()._parents:
            if p.requires_grad and p not in seen:
                seen.add(p)
                stack.append(p)
    return sorted(seen, key=lambda t: t._id)


class TestShapeErrors:
    def test_add_incompatible_shapes(self):
        with pytest.raises(DimensionError):
            add(leaf(np.zeros((2, 3))), leaf(np.zeros(4)))

    def test_ewmul_incompatible_shapes(self):
        with pytest.raises(DimensionError):
            ewmul(leaf(np.zeros((2, 3))), leaf(np.zeros((3, 2))))

    def test_matmul_inner_extent_mismatch(self):
        with pytest.raises(DimensionError):
            matmul(leaf(np.zeros((2, 3))), leaf(np.zeros((4, 2))))

    def test_matmul_rejects_vectors(self):
        with pytest.raises(DimensionError):
            matmul(leaf(np.zeros(3)), leaf(np.zeros((3, 2))))

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            softmax_cross_entropy(leaf(np.zeros((2, 3))), np.array([0, 3]))

    def test_label_shape_mismatch(self):
        with pytest.raises(DimensionError):
            softmax_cross_entropy(leaf(np.zeros((2, 3))), np.array([0, 1, 2]))

    def test_cross_entropy_of_no_rows(self):
        with pytest.raises(DimensionError, match="at least one row"):
            softmax_cross_entropy(leaf(np.zeros((0, 3))), np.zeros(0, dtype=int))


class TestGradcheck:
    def test_every_op_passes_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = leaf(rng.normal(size=(3, 4)))
            y = leaf(rng.normal(size=(3, 4)))
            v = leaf(rng.normal(size=4))
            w = leaf(rng.normal(size=(4, 2)))
            labels = rng.integers(0, 2, size=3)
            cases = [
                (lambda a, b: tsum(add(a, b)), [x, y]),
                (lambda a, b: tsum(add(a, b)), [x, v]),
                (lambda a: tsum(scale(a, -1.7)), [x]),
                (lambda a, b: tsum(ewmul(a, b)), [x, y]),
                (lambda a, b: tsum(ewmul(a, b)), [x, v]),
                (lambda a, b: tsum(matmul(a, b)), [x, w]),
                (lambda a, b: softmax_cross_entropy(matmul(a, b), labels), [x, w]),
            ]
            for f, inputs in cases:
                report = gradcheck(f, inputs, tol=1e-6)
                assert report.passed, report

    def test_relu_passes_away_from_the_kink(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            data = rng.normal(size=(3, 5))
            data[np.abs(data) < 1e-3] = 0.5  # central differences straddle the kink otherwise
            report = gradcheck(lambda a: tsum(relu(a)), [leaf(data)], tol=1e-6)
            assert report.passed, report

    def test_linear_function_has_negligible_error(self):
        report = gradcheck(tsum, [leaf(np.arange(6.0).reshape(2, 3))])
        assert report.max_rel_err < 1e-9

    def test_corrupted_backward_rule_is_caught(self):
        def bad_double(x):
            out = Tensor(2.0 * x.data, x.requires_grad, (x,), "bad")
            out._backward = lambda g: x.accumulate_grad(2.02 * g)  # off by 1%
            return tsum(out)

        report = gradcheck(bad_double, [leaf([1.0, 2.0, 3.0])], tol=1e-4)
        assert not report.passed
        assert report.max_rel_err > 1e-3

    def test_nan_gradient_fails(self):
        # max() kept a leading 0.0 over NaN, so this reported 0.0 and passed
        report = gradcheck(_with_grad(lambda d: np.full_like(d, np.nan)), [leaf([1.0, 2.0, 3.0])])
        assert np.isnan(report.max_rel_err)
        assert not report.passed

    def test_nan_in_one_entry_fails_even_when_the_others_are_exact(self):
        report = gradcheck(_with_grad(lambda d: np.array([np.nan, 2.0])), [leaf([1.0, 2.0])])
        assert np.isnan(report.per_input[0]) and not report.passed

    def test_infinite_gradient_fails(self):
        report = gradcheck(_with_grad(lambda d: np.array([2.0, np.inf])), [leaf([1.0, 2.0])])
        assert not report.passed

    def test_nan_in_a_later_input_fails(self):
        def f(a, b):
            return add(tsum(scale(a, 2.0)), _with_grad(lambda d: np.full_like(d, np.nan))(b))

        report = gradcheck(f, [leaf([1.0, 2.0]), leaf([3.0])])
        assert report.per_input[0] < 1e-6 and np.isnan(report.per_input[1])
        assert np.isnan(report.max_rel_err) and not report.passed

    @pytest.mark.parametrize("eps", [0.0, -1e-5, float("nan"), float("inf"), float("-inf")])
    def test_meaningless_eps_rejected(self, eps):
        with pytest.raises(ContractError, match="eps"):
            gradcheck(tsum, [leaf([1.0, 2.0])], eps=eps)

    @pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
    def test_meaningless_tol_rejected(self, tol):
        with pytest.raises(ContractError, match="tol"):
            gradcheck(tsum, [leaf([1.0, 2.0])], tol=tol)

    def test_zero_tol_is_accepted(self):
        assert gradcheck(tsum, [leaf([1.0, 2.0])], tol=0.0).tol == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        op=st.sampled_from(["add", "add-vector", "scale", "ewmul", "matmul", "relu", "xent"]),
        rows=st.integers(1, 4),
        cols=st.integers(1, 5),
        seed=st.integers(0, 2**16),
        eps=st.sampled_from([1e-3, 1e-5, 1e-7]),
    )
    def test_errors_equal_the_scalar_loop(self, op, rows, cols, seed, eps):
        rng = np.random.default_rng(seed)
        a, b = leaf(rng.normal(size=(rows, cols))), leaf(rng.normal(size=(rows, cols)))
        v, w = leaf(rng.normal(size=cols)), leaf(rng.normal(size=(cols, 2)))
        labels = rng.integers(0, cols, size=rows)
        f, inputs = {
            "add": (lambda p, q: tsum(add(p, q)), [a, b]),
            "add-vector": (lambda p, q: tsum(add(p, q)), [a, v]),
            "scale": (lambda p: tsum(scale(p, -1.7)), [a]),
            "ewmul": (lambda p, q: tsum(ewmul(p, q)), [a, b]),
            "matmul": (lambda p, q: tsum(matmul(p, q)), [a, w]),
            "relu": (lambda p: tsum(relu(p)), [a]),
            "xent": (lambda p: softmax_cross_entropy(p, labels), [a]),
        }[op]
        report = gradcheck(f, inputs, eps=eps)
        per_input = scalar_gradcheck_errors(f, inputs, eps)
        assert report.per_input == per_input
        assert report.max_rel_err == max(per_input)

    def test_non_scalar_function_rejected(self):
        with pytest.raises(ContractError):
            gradcheck(lambda a: scale(a, 2.0), [leaf([1.0, 2.0])])

    def test_report_has_per_input_entries(self):
        x, y = leaf([1.0]), leaf([2.0])
        report = gradcheck(lambda a, b: tsum(ewmul(a, b)), [x, y])
        assert len(report.per_input) == 2


def _with_grad(rule):
    """tsum of 2x whose backward passes rule(x.data) instead of 2g."""

    def f(x):
        out = Tensor(2.0 * x.data, x.requires_grad, (x,), "rigged")
        out._backward = lambda g: x.accumulate_grad(rule(x.data))
        return tsum(out)

    return f


def scalar_gradcheck_errors(f, inputs, eps):
    """gradcheck's per-input worst relative error, one coordinate at a
    time in Python floats, as it was computed before the differences
    became arrays."""
    for t in inputs:
        t.zero_grad()
    f(*inputs).backward()
    per_input = []
    for t in inputs:
        worst = 0.0
        flat, aflat = t.data.reshape(-1), t.grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = float(f(*inputs).data)
            flat[i] = orig - eps
            fm = float(f(*inputs).data)
            flat[i] = orig
            n = (fp - fm) / (2.0 * eps)
            worst = max(worst, abs(aflat[i] - n) / max(1e-8, abs(aflat[i]) + abs(n)))
        per_input.append(worst)
    return per_input


def _norm_params(kind, gain, bias, stats):
    """Fresh LayerNormParams or BatchNormParams (in ``kind``'s mode)
    around the given gain and bias tensors; ``stats`` seeds BN's running
    statistics."""
    if kind is None:
        return None
    if kind == "ln":
        return LayerNormParams(gain, bias)
    mean, var = stats
    mode = "training" if kind == "bn-training" else "inference"
    return BatchNormParams(gain, bias, mean.copy(), var.copy(), mode=mode)


def _frozen_input_cases():
    """name -> (input shapes for (rows, width), function of the input
    tensors and the running statistics to the output tensor)."""
    row, vec = ("n", "d"), ("d",)
    cases = {
        "add": ([row, row], lambda t, _: add(*t)),
        "add-vector": ([row, vec], lambda t, _: add(*t)),
        "scale": ([row], lambda t, _: scale(t[0], -1.5)),
        "ewmul": ([row, row], lambda t, _: ewmul(*t)),
        "ewmul-vector": ([row, vec], lambda t, _: ewmul(*t)),
        "matmul": ([row, ("d", "n")], lambda t, _: matmul(*t)),
        "relu": ([row], lambda t, _: relu(t[0])),
        "sum": ([row], lambda t, _: tsum(t[0])),
        "softmax_cross_entropy": ([row], lambda t, _: softmax_cross_entropy(t[0], np.arange(t[0].shape[0]) % t[0].shape[1])),
        "layer_norm": ([row, vec, vec], lambda t, s: layer_norm(t[0], _norm_params("ln", t[1], t[2], s))),
    }
    for mode in ("bn-training", "bn-inference"):
        cases[f"batch_norm-{mode[3:]}"] = (
            [row, vec, vec], lambda t, s, mode=mode: batch_norm(t[0], _norm_params(mode, t[1], t[2], s))
        )
    for norm in (None, "ln", "bn-training", "bn-inference"):
        for c in (1.0, 2.5):
            cases[f"combine_norm-{norm}-c{c}"] = (
                [row, row] + [vec, vec] * (norm is not None),
                lambda t, s, norm=norm, c=c: combine_norm(
                    t[0], t[1], a=2.0, c=c, norm=_norm_params(norm, *t[2:], s) if norm else None
                ),
            )
            cases[f"combine_norm-{norm}-c{c}-learned"] = (
                [row, row, vec] + [vec, vec] * (norm is not None),
                lambda t, s, norm=norm, c=c: combine_norm(
                    t[0], t[1], a=t[2], c=c, norm=_norm_params(norm, *t[3:], s) if norm else None
                ),
            )
    return cases


FROZEN_INPUT_CASES = _frozen_input_cases()


class TestFrozenInputs:
    """A rule skips the gradients of inputs that do not require grad;
    every other gradient is unchanged, byte for byte."""

    @settings(max_examples=500, deadline=None)
    @given(
        name=st.sampled_from(sorted(FROZEN_INPUT_CASES)),
        rows=st.integers(2, 9),
        width=st.integers(1, 12),
        frozen=st.lists(st.booleans(), min_size=5, max_size=5),
        order=st.sampled_from("CF"),
        seed=st.integers(0, 2**16),
    )
    def test_frozen_inputs_get_no_gradient_and_the_rest_are_unchanged(self, name, rows, width, frozen, order,
                                                                      seed):
        shapes, f = FROZEN_INPUT_CASES[name]
        rng = np.random.default_rng(seed)
        sizes = {"n": rows, "d": width}
        arrays = [np.asarray(rng.normal(size=[sizes[k] for k in s]), order=order) for s in shapes]
        stats = (rng.normal(size=width), rng.uniform(0.5, 2.0, size=width))
        frozen = frozen[:len(arrays)]

        def run(requires):
            inputs = [Tensor(a.copy(order="K"), requires_grad=r) for a, r in zip(arrays, requires)]
            out = f(inputs, stats)
            if out.requires_grad:
                seed_grad = None if out.data.ndim == 0 else np.asarray(
                    np.random.default_rng(seed + 1).normal(size=out.shape), order=order
                )
                out.backward(seed_grad)
            return out, inputs

        _, every = run([True] * len(arrays))
        out, some = run([not x for x in frozen])
        assert out.requires_grad == (not all(frozen))
        for t, all_in, is_frozen in zip(some, every, frozen):
            if is_frozen:
                assert t.grad is None
            else:
                assert t.grad.tobytes() == all_in.grad.tobytes()
