"""Dense float64 tensors with reverse-mode automatic differentiation.

The graph is a dynamic tape: every operation appends a node holding the
backward rule as a closure over the saved forward values. Calling
``backward()`` on an output clears ``.grad`` on the interior nodes it
reaches and replays them in strict reverse creation order, accumulating
gradients into ``.grad`` of every node that requires them (interior ones
too, unless ``retain`` says otherwise); only leaves sum across passes.

Inside ``with no_grad():`` operations compute the same values but record
nothing: their outputs do not require grad, hold no parents and no
backward closure, so every intermediate is freed as soon as it is no
longer referenced. Evaluation, sweeps and finite differences use it.
A residual block with the built-in branch then calls no op at all: it
runs as one kernel on raw arrays, the branch in place and the skip chain
through the norms' own kernels, and makes one Tensor, its output. The
kernel applies the recorded ops' ufuncs to the same operands in the same
order, so its output is bit-identical to theirs.

``backward(retain=...)`` names the interior nodes whose gradients the
caller will read; every other interior node drops its ``.grad`` as soon
as its backward rule has passed it on, so a pass holds the gradients of
the nodes still to be visited rather than of the whole tape. Leaves
(parameters and inputs) always keep theirs. By default every gradient
is kept.

A backward rule computes a parent's gradient only if that parent
requires grad when the rule runs: a frozen parameter
(``requires_grad=False``) costs no weight GEMM and no reduction, and
the gradients still computed are bit-identical. A tape whose parameters
are all frozen still records when its input requires grad; its backward
then computes the interior gradients alone.

``.grad`` owns its buffer. The first contribution a tensor receives is
copied, and later ones are added into that copy in place, so one array
may be handed to several tensors as their upstream gradient without
their gradients ever aliasing. Code that assigns ``.grad`` directly
hands that array over to the tensor.

Everything is double precision: data and backward seeds of a bool,
integer or float dtype are converted, and any other (complex, str,
object) raises ContractError. Broadcasting is deliberately restricted
to the one pattern the residual constructions need: a 1-D vector of
length ``d`` combined with an array whose trailing axis is ``d``.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DimensionError, _check_batch

__all__ = [
    "Tensor",
    "add",
    "scale",
    "ewmul",
    "matmul",
    "relu",
    "tsum",
    "softmax_cross_entropy",
    "gradcheck",
    "GradCheckReport",
    "no_grad",
]

_ids = itertools.count()
_recording = True


class no_grad:
    """Record no tape inside the block; values are unchanged. The switch
    is process-wide, not per thread; leaving the block, by an exception
    too, restores the state it found."""

    __slots__ = ("_previous",)

    def __enter__(self):
        global _recording
        self._previous, _recording = _recording, False

    def __exit__(self, *exc):
        global _recording
        _recording = self._previous


def _float64(data, what):
    """``data`` as a float64 array: one already float64 is returned as it
    is, one of a bool, integer or float dtype is converted, and nested
    sequences of unequal lengths or any other dtype (complex, str, object)
    raise ContractError rather than being parsed or losing an imaginary
    part."""
    try:
        data = np.asarray(data)
    except ValueError as exc:  # nested sequences of unequal lengths
        raise ContractError(f"{what} is not an array: {exc}") from None
    if data.dtype != np.float64:
        if data.dtype.kind not in "biuf":
            raise ContractError(f"{what} must be real numbers (bool, integer or float), got dtype {data.dtype}")
        data = np.asarray(data, dtype=np.float64)
    return data


def _records(tensors):
    """Whether an op on these tensors records a tape node."""
    return _recording and any(t.requires_grad for t in tensors)


class Tensor:
    """A node of the differentiation tape.

    ``data`` is always a float64 ndarray: real data of another dtype is
    converted, and other data is refused. ``grad`` is lazily created and
    accumulates additively: a leaf sums the contributions of backward
    passes until reset, an interior node holds the latest pass's alone.
    Leaf tensors are created directly; interior nodes are created by the
    operations below and carry a backward closure plus references to
    their parents. An interior node that does not require grad, or is
    made under :func:`no_grad`, keeps neither.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op", "_id")

    def __init__(self, data, requires_grad=False, _parents=(), _op="leaf", _backward=None):
        self.data = _float64(data, "tensor data")
        self.grad = None
        self.requires_grad = bool(requires_grad) and (_recording or not _parents)
        self._parents = tuple(_parents) if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None
        self._op = _op
        self._id = next(_ids)

    def zero_grad(self):
        self.grad = None

    def accumulate_grad(self, g):
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64, copy=True)
        else:
            self.grad += g

    def backward(self, seed=None, *, retain=None):
        """Run reverse-mode differentiation from this node.

        ``seed`` is the upstream gradient; it defaults to 1.0 and is then
        only valid for scalar outputs. Nodes are visited exactly once, in
        reverse creation order, which is a valid topological order
        because the tape is built dynamically: every contribution to a
        node's gradient has arrived by the time its rule runs.

        ``retain`` is None (the pass keeps every gradient) or an iterable
        of tensors: an interior node that is not among them then drops
        its ``.grad`` right after its rule has passed it on. Leaves keep
        theirs either way.
        """
        if not self.requires_grad:
            raise ContractError("backward() on a tensor that does not require grad")
        if seed is None:
            if self.data.size != 1:
                raise ContractError("backward() without a seed requires a scalar output")
            seed = np.ones_like(self.data)
        else:
            seed = _float64(seed, "a backward seed")
            if seed.shape != self.data.shape:
                raise DimensionError(f"seed shape {seed.shape} != output shape {self.data.shape}")

        keep = None if retain is None else set(retain)
        nodes = _reachable(self)
        for node in nodes:
            if node._backward is not None:
                node.grad = None  # a stale interior gradient would be sent again
        self.accumulate_grad(seed)
        for node in sorted(nodes, key=lambda t: t._id, reverse=True):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                if keep is not None and node not in keep:
                    node.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op}, requires_grad={self.requires_grad})"


def _reachable(root):
    seen = {root}
    stack = [root]
    while stack:
        for p in stack.pop()._parents:
            if p not in seen and p.requires_grad:
                seen.add(p)
                stack.append(p)
    return seen


def _accumulate(t, g):
    if t.requires_grad:
        t.accumulate_grad(g)


def _check_binary_shapes(a, b, opname):
    """Equal shapes, or b a 1-D vector matching a's trailing axis."""
    if a.data.shape == b.data.shape:
        return False
    if b.data.ndim == 1 and a.data.ndim >= 1 and a.data.shape[-1] == b.data.shape[0]:
        return True
    raise DimensionError(
        f"{opname}: shape {b.data.shape} is neither equal to {a.data.shape} "
        f"nor broadcastable over its trailing axis"
    )


def _reduce_to_vector(g, ndim):
    # sum out the leading axes a trailing-axis broadcast expanded over
    return g.sum(axis=tuple(range(ndim - 1)))


def add(a, b):
    """Elementwise sum, the additive combination of shortcut and residual."""
    broadcast = _check_binary_shapes(a, b, "add")

    def backward(g):
        _accumulate(a, g)
        if b.requires_grad:
            b.accumulate_grad(_reduce_to_vector(g, a.data.ndim) if broadcast else g)

    return Tensor(a.data + b.data, a.requires_grad or b.requires_grad, (a, b), "add", backward)


def scale(a, c):
    """Multiply by a fixed real scalar (the shortcut modulating factor)."""
    c = float(c)

    def backward(g):
        _accumulate(a, c * g)

    return Tensor(c * a.data, a.requires_grad, (a,), "scale", backward)


def ewmul(a, b):
    """Entrywise product; b may be a per-feature vector."""
    broadcast = _check_binary_shapes(a, b, "ewmul")

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g * b.data)
        if b.requires_grad:
            gb = g * a.data
            b.accumulate_grad(_reduce_to_vector(gb, a.data.ndim) if broadcast else gb)

    return Tensor(a.data * b.data, a.requires_grad or b.requires_grad, (a, b), "ewmul", backward)


def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError(f"matmul expects 2-D operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"matmul inner extents disagree: {a.data.shape} @ {b.data.shape}")

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g @ b.data.T)
        if b.requires_grad:
            b.accumulate_grad(a.data.T @ g)

    return Tensor(a.data @ b.data, a.requires_grad or b.requires_grad, (a, b), "matmul", backward)


def relu(a):
    # gradient at exactly 0 is defined as 0, hence the strict inequality;
    # a call that records no tape needs no mask
    mask = a.data > 0.0 if _records((a,)) else None

    def backward(g):
        _accumulate(a, g * mask)

    # bit-equal to np.where(a > 0.0, a, 0.0) and several times faster: fmax
    # maps NaN and negatives to +0.0 but may keep a -0.0 input (numpy's
    # scalar loop does, its SIMD loop does not), and adding +0.0 turns
    # -0.0 into +0.0 while leaving every other value as it is
    out = np.fmax(a.data, 0.0)
    out += 0.0
    return Tensor(out, a.requires_grad, (a,), "relu", backward)


def tsum(a):
    """Sum of all entries, as a scalar tensor."""

    def backward(g):
        _accumulate(a, np.broadcast_to(g, a.data.shape))

    return Tensor(a.data.sum(), a.requires_grad, (a,), "sum", backward)


def softmax_cross_entropy(logits, labels):
    """Mean negative log-likelihood of integer class labels.

    Computed with max-subtraction so arbitrarily large logits cannot
    overflow. The backward rule is the closed form
    (softmax - onehot) / batch. The labels pass the batch rule of
    ``skipnorm.errors``; the logits, values of the network, are not
    refused for being non-finite, so a diverging run shows in its loss.
    """
    if logits.data.ndim != 2:
        raise DimensionError(f"logits must be [batch, classes], got {logits.data.shape}")
    batch, classes = logits.data.shape
    if batch == 0:
        raise DimensionError("softmax_cross_entropy needs at least one row")
    labels = _check_batch(labels, batch, classes)

    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logprobs = shifted - logsumexp
    loss = -logprobs[np.arange(batch), labels].mean()

    def backward(g):
        delta = np.exp(logprobs)
        delta[np.arange(batch), labels] -= 1.0
        _accumulate(logits, float(g) * delta / batch)

    return Tensor(loss, logits.requires_grad, (logits,), "softmax_xent", backward)


_STEP = 1e-5  # gradcheck's central-difference step
_TOL = 1e-4  # gradcheck's gate on the relative error


@dataclass(frozen=True)
class GradCheckReport:
    """Outcome of comparing analytic gradients to central differences."""

    max_rel_err: float
    per_input: list[float] = field(default_factory=list)
    tol = _TOL  # unannotated, so a class constant and not a field

    @property
    def passed(self):
        return self.max_rel_err <= _TOL


def _worst(errors):
    """The largest of ``errors`` as ``max`` picks it (0.0 for none, the
    element itself otherwise), or the first NaN among them: ``max`` keeps
    whichever of a number and a NaN comes first."""
    worst = 0.0
    for e in errors:
        if e != e:
            return e
        worst = max(worst, e)
    return worst


def gradcheck(f, inputs):
    """Check analytic gradients of a scalar-valued tensor function.

    Every coordinate of every input is perturbed by +-1e-5 and the
    central difference, evaluated without a tape, is compared against
    the gradient produced by ``backward()``. Relative error is
    |a - n| / max(1e-8, |a| + |n|); the check passes iff the maximum
    over all coordinates is <= 1e-4. A NaN error (a NaN or infinite
    gradient or difference) is the maximum, so it fails.
    """
    inputs = list(inputs)
    for t in inputs:
        t.zero_grad()
    out = f(*inputs)
    if out.data.size != 1:
        raise ContractError("gradcheck requires a scalar-valued function")
    out.backward()
    analytic = [
        t.grad.copy() if t.grad is not None else np.zeros_like(t.data) for t in inputs
    ]

    per_input = []
    with no_grad():
        for t, a in zip(inputs, analytic):
            flat = t.data.reshape(-1)
            fp, fm = np.empty(flat.size), np.empty(flat.size)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + _STEP
                fp[i] = float(f(*inputs).data)
                flat[i] = orig - _STEP
                fm[i] = float(f(*inputs).data)
                flat[i] = orig
            a = a.reshape(-1)
            n = (fp - fm) / (2.0 * _STEP)
            with np.errstate(invalid="ignore"):  # inf/inf: a NaN error, which fails
                rel = np.abs(a - n) / np.maximum(1e-8, np.abs(a) + np.abs(n))
            per_input.append(_worst(rel))

    return GradCheckReport(_worst(per_input), per_input)
