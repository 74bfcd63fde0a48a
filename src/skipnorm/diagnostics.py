"""Per-block gradient-norm sweeps and effective-scale probes.

These measurements characterize how a construction conditions the
backward pass: a non-unit shortcut scale without normalization makes
per-block gradient norms grow or shrink geometrically with depth, while
the normalized constructions keep them flat.
"""

from dataclasses import dataclass

import numpy as np

from .blocks import SkipConstruction, SkipKind, _input_free_scale, build_block
from .errors import ContractError, _check_seed
from .normalization import BatchNormParams, LayerNormParams, batch_norm, layer_norm
from .ratio import ratio_general, unroll_decompose
from .tensor import (
    Tensor,
    _check_matmul_shapes,
    _worst,
    add,
    ewmul,
    gradcheck,
    matmul,
    no_grad,
    relu,
    scale,
    softmax_cross_entropy,
    tsum,
)

__all__ = [
    "GradReport",
    "ScaleReport",
    "gradient_norm_sweep",
    "effective_scale_sweep",
    "amplification_probe",
    "gradcheck_battery",
    "decomposition_check",
]


@dataclass(frozen=True)
class GradReport:
    """Mean L2 norm of the loss gradient at each block output.

    ``block_norms[k]`` is the average over all sampled rows of
    ||d loss / d y_k||_2, block 0 nearest the input.
    """

    label: str
    block_norms: tuple
    samples: int

    def __post_init__(self):
        if self.samples <= 0:
            raise ContractError("a gradient report needs at least one sample")
        if not all(0 <= n < np.inf for n in self.block_norms):
            raise ContractError(f"gradient norms must be finite and non-negative, got {self.block_norms}")

    @property
    def spread(self):
        """max/min across blocks; inf when some block's norm is 0."""
        lo, hi = min(self.block_norms), max(self.block_norms)
        return float("inf") if lo == 0.0 else hi / lo


@dataclass(frozen=True)
class ScaleReport:
    """Per-block effective shortcut/residual scale and its model average."""

    label: str
    per_block: tuple
    average: float
    samples: int


def gradient_norm_sweep(model, batches):
    """Average per-block output-gradient norms over a set of batches.

    ``batches`` is a sequence of (inputs, labels) arrays. Row gradients
    of the batch-mean softmax cross-entropy are rescaled by the batch
    size, which turns them into per-sample loss gradients; summed in
    block order and divided by the total row count, the result is then
    independent of how the rows were split into batches (for row-local
    models); a batch of no rows contributes nothing. Batch-normalized
    models are swept in whatever mode they are in; training mode
    updates their running statistics as a side effect.

    Peak memory is one batch's tape: each batch's tape is freed before
    the next batch's forward, and its backward keeps only the block
    outputs' gradients. The parameters' ``.grad`` hold the last nonempty
    batch's gradients afterwards, and only that batch computes any: the
    batches before it run with every parameter frozen
    (``requires_grad=False``) and an input that requires grad, so their
    backward passes skip the weight GEMMs and the bias, gain and skip
    gain reductions. Each parameter's own flag is restored afterwards,
    also when the sweep raises; a parameter frozen by the caller stays
    frozen and gets no gradient.
    """
    batches = list(batches)
    params = [p for _, p, _ in model.parameters()]
    flags = [p.requires_grad for p in params]
    remaining = sum(np.shape(x)[:1] != (0,) for x, _ in batches)  # nonempty batches not yet run

    def block_norms(x, labels):
        nonlocal remaining
        remaining -= 1
        for p, flag in zip(params, flags):
            p.requires_grad = flag and not remaining
        return _block_grad_norms(model, x, labels)

    try:
        norms, samples = _row_weighted(model, batches, block_norms, "gradient_norm_sweep")
    finally:
        for p, flag in zip(params, flags):
            p.requires_grad = flag
    return GradReport(model.blocks[0].construction.label(), norms, samples)


def _row_weighted(model, batches, values, what):
    """The row-weighted mean over (inputs, payload) batches of the
    per-block ``values(x, payload)``, and the row count. Every batch is
    shape-checked as a forward would be; one of no rows adds nothing."""
    if not model.blocks:
        raise ContractError(f"{what} needs at least one block")
    totals = np.zeros(len(model.blocks))
    samples = 0
    for x, payload in batches:
        x = np.asarray(x, dtype=np.float64)
        _check_matmul_shapes(x, model.in_w.data)  # the shape error a forward would raise
        if x.shape[0] == 0:
            continue
        for k, v in enumerate(values(x, payload)):
            totals[k] += v * x.shape[0]
        samples += x.shape[0]
    if samples == 0:
        raise ContractError(f"{what} needs a nonempty sample set")
    return tuple(float(t / samples) for t in totals), samples


def _block_grad_norms(model, x, labels):
    """Sum over the rows of x of ||d loss / d y_k||_2, one per block.
    The batch's tape is unreferenced once this returns."""
    outs = []
    loss = softmax_cross_entropy(model.forward(Tensor(x, requires_grad=True), block_outputs=outs), labels)
    # parameter gradients left by an earlier backward were allocated last,
    # above its freed tape; freed before this forward, they let the allocator
    # hand that whole region back to the system and fault it in again
    # (4rSkip+LN at width 64: ~6k page faults a sweep instead of under 1k)
    model.zero_grad()
    loss.backward(retain=outs)
    return [np.linalg.norm(y.grad, axis=1).sum() for y in outs]


def effective_scale_sweep(model, batches):
    """Per-block effective scale averaged over a set of input batches.

    Only defined for layer-normalized blocks; the per-block value is
    row-weighted across batches. ``batches`` holds input arrays or
    (inputs, labels) pairs. A batch costs at most one forward, and no
    tape. A one-level block's scale does not depend on the input, so a
    model of such blocks (xSkip+LN, wSkip+LN, LN(x+cF)) runs no forward
    and its batches are only checked for the shape a forward would
    accept. Otherwise each multi-level block's witness is captured
    during the one pass that produces the block inputs, and the output
    projection is never computed. A batch of no rows contributes nothing.
    """
    fixed = [_input_free_scale(block) for block in model.blocks]
    inputs = ((b[0] if isinstance(b, tuple) else b, None) for b in batches)
    per_block, samples = _row_weighted(
        model, inputs, lambda x, _: _witness_scales(model, x, fixed), "effective_scale_sweep"
    )
    label = model.blocks[0].construction.label()
    return ScaleReport(label, per_block, float(np.mean(per_block)), samples)


def _witness_scales(model, x, fixed):
    """Each block's effective scale on the rows of x: ``fixed`` when no
    block needs a witness, else from one forward through the blocks that
    captures every witness; a block with an input-free scale keeps it."""
    if None not in fixed:
        return fixed
    scales = []
    with no_grad():
        h = model.project_in(x)
        for block, scale in zip(model.blocks, fixed):
            h, _, witness = block.witness(h)
            scales.append(float(ratio_general(witness).mean()) if scale is None else scale)
    return scales


def amplification_probe(construction, depth, width, seed=0):
    """Backward magnification through a bare zero-branch block stack.

    Builds ``depth`` blocks with every branch forced to the zero map,
    runs a random two-row input through them, seeds the top with an
    all-ones upstream gradient, and returns the gradient at each of the
    depth+1 block boundaries (index 0 is the stack input, index depth the stack
    output). With branches at zero the scaled kinds multiply the
    gradient by exactly lambda per block, so boundary k carries
    lambda^(depth-k) per coordinate.
    """
    if depth < 1:
        raise ContractError("amplification probe needs depth >= 1")
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(depth):
        block = build_block(construction, width, hidden=width, rng=rng)
        block.branch.zero_()
        blocks.append(block)
    x = Tensor(rng.normal(0.0, 1.0, (2, width)), requires_grad=True)
    boundaries = [x]
    h = x
    for block in blocks:
        h = block.forward(h)
        boundaries.append(h)
    tsum(h).backward()
    return [b.grad.copy() for b in boundaries]


def _randomized(p, rng):
    """Move norm parameters ``p`` off their init so their gradients are generic."""
    p.gain.data = 1.0 + 0.3 * rng.normal(size=p.dim)
    p.bias.data = 0.3 * rng.normal(size=p.dim)
    return p


# every block construction the battery checks, as construction tokens
_BATTERY_PRESETS = (
    "plain", "0.5xskip", "3xskip", "2xskip-ln", "1rskip-ln", "2rskip-ln", "3rskip-ln", "4rskip-ln",
    "wskip-ln", "2xskip-bn", "2rskip-bn", "contracted-f-ln:0.5", "contracted-f-ln:3",
)


def gradcheck_battery(instances=20, seed=0, tol=1e-4):
    """Finite-difference check of every op and every block construction.

    Returns rows (target, max_rel_err, tol, passed), one per case, each
    aggregated over ``instances`` seeded random instances (at least one;
    a NaN error is the worst and fails its row). The battery is
    deterministic for a given seed.
    """
    if instances < 1:
        raise ContractError(f"gradcheck_battery needs at least one instance per case, got {instances}")
    _check_seed(seed)
    rng = np.random.default_rng(seed)

    def leaf(shape, away=0.0):
        data = rng.normal(0.0, 1.0, shape)
        if away:
            data = np.sign(data) * (np.abs(data) + away)
        return Tensor(data, requires_grad=True)

    def binary(op, a_shape, b_shape):
        def case():
            a, b = leaf(a_shape), leaf(b_shape)
            return lambda *_: tsum(op(a, b)), [a, b]

        return case

    def scale_case():
        a = leaf((2, 5))
        c = float(rng.uniform(-3.0, 3.0))
        return lambda *_: tsum(scale(a, c)), [a]

    def relu_case():
        # entries bounded away from the kink so central differences stay clean
        a = leaf((3, 4), away=1e-3)
        return lambda *_: tsum(relu(a)), [a]

    def xent_case():
        logits = leaf((4, 3))
        labels = rng.integers(0, 3, size=4)
        return lambda *_: softmax_cross_entropy(logits, labels), [logits]

    def layer_norm_case():
        x = leaf((4, 6))
        p = _randomized(LayerNormParams.create(6), rng)
        return lambda *_: tsum(layer_norm(x, p)), [x, p.gain, p.bias]

    def batch_norm_train_case():
        x = leaf((6, 4))
        p = _randomized(BatchNormParams.create(4), rng)
        # normalized columns sum to zero, so an unweighted sum would hide
        # the input gradient entirely
        c = Tensor(rng.normal(size=(6, 4)))
        return lambda *_: tsum(ewmul(batch_norm(x, p), c)), [x, p.gain, p.bias]

    def batch_norm_inference_case():
        x = leaf((3, 4))
        p = BatchNormParams.create(4)
        p.mode = "inference"
        p.running_mean = rng.normal(size=4)
        p.running_var = rng.uniform(0.5, 2.0, size=4)
        _randomized(p, rng)
        return lambda *_: tsum(batch_norm(x, p)), [x, p.gain, p.bias]

    def block_case(construction):
        # batch norm absorbs any shift of its input that is uniform across
        # the batch: the branch output bias always produces one, a hidden
        # bias does whenever its relu unit is active on every row, and
        # inner norm biases do recursively. Gradients along such invariant
        # directions are (near-)zero by construction and finite differences
        # there measure only rounding noise, so the bias directions are
        # left to exact invariance tests.
        skip_names = set()
        if construction.uses_bn:
            skip_names.update({"branch.b1", "branch.b2"})
            skip_names.update(f"norm{k}.bias" for k in range(1, construction.levels))

        def case():
            block = build_block(construction, width=5, hidden=4, rng=rng)
            for p in block.norms:
                _randomized(p, rng)
            if block.w_skip is not None:
                block.w_skip.data = 1.0 + 0.2 * rng.normal(size=5)
            x = leaf((3, 5))
            c = Tensor(rng.normal(size=(3, 5)))  # see batch_norm_train_case
            inputs = [x] + [p for name, p, _ in block.parameters() if name not in skip_names]
            return lambda *_: tsum(ewmul(block.forward(x), c)), inputs

        return case

    cases = [
        ("op:add", binary(add, (3, 4), (3, 4))),
        ("op:add-vector", binary(add, (3, 4), (4,))),
        ("op:scale", scale_case),
        ("op:ewmul", binary(ewmul, (2, 5), (2, 5))),
        ("op:ewmul-vector", binary(ewmul, (2, 5), (5,))),
        ("op:matmul", binary(matmul, (3, 4), (4, 2))),
        ("op:relu", relu_case),
        ("op:softmax_cross_entropy", xent_case),
        ("op:layer_norm", layer_norm_case),
        ("op:batch_norm-training", batch_norm_train_case),
        ("op:batch_norm-inference", batch_norm_inference_case),
    ]
    cases += [(f"block:{c.label()}", block_case(c)) for c in map(SkipConstruction.parse, _BATTERY_PRESETS)]
    rows = []
    for name, case in cases:
        worst = _worst([gradcheck(*case(), tol=tol).max_rel_err for _ in range(instances)])
        rows.append((name, worst, tol, worst <= tol))
    return rows


def decomposition_check(lams=(1, 2, 3, 4), width=8, instances=100, seed=0, batch=4):
    """Verify the unrolled decomposition against live recursive forwards.

    Every lambda is checked as a recursion depth first; then for each,
    runs ``instances`` random blocks of ``batch`` rows, captures their
    witnesses, and returns rows (integer depth, max reconstruction error,
    max closed-form ratio discrepancy). The reconstruction error is the
    worst absolute deviation of coef_x*x + coef_f*f + const from the
    actual block output; the discrepancy is the worst relative gap
    between ratio_general and coef_x/coef_f where coef_f is nonzero.
    ``instances`` and ``batch`` must be at least one.
    """
    if instances < 1:
        raise ContractError(f"decomposition_check needs at least one instance per depth, got {instances}")
    if batch < 1:
        raise ContractError(f"decomposition_check needs at least one row per instance, got {batch}")
    _check_seed(seed)
    constructions = [SkipConstruction(SkipKind.RSKIP_LN, lam=lam) for lam in lams]
    rng = np.random.default_rng(seed)
    rows = []
    for construction in constructions:
        recs, discs = [], []
        for _ in range(instances):
            block = build_block(construction, width, hidden=width, rng=rng)
            for p in block.norms:
                # positive gains bounded away from zero keep the ratio regular
                p.gain.data = rng.uniform(0.3, 1.7, size=width)
                p.bias.data = 0.5 * rng.normal(size=width)
            for name in ("b1", "b2"):
                getattr(block.branch, name).data = 0.3 * rng.normal(
                    size=getattr(block.branch, name).data.shape
                )
            x = Tensor(rng.normal(0.0, 1.0, (batch, width)))
            with no_grad():
                y, f, witness = block.witness(x)
            coef_x, coef_f, const = unroll_decompose(witness, x.data, f.data)
            rebuilt = coef_x * x.data + coef_f * f.data + const
            recs.append(float(np.abs(rebuilt - y.data).max()))
            ratio = ratio_general(witness)
            mask = np.abs(coef_f) > 1e-8
            oracle = coef_x[mask] / coef_f[mask]
            disc = np.abs(ratio[mask] - oracle) / np.abs(oracle)
            discs.append(float(disc.max()) if disc.size else 0.0)
        rows.append((construction.levels, _worst(recs), _worst(discs)))
    return rows
