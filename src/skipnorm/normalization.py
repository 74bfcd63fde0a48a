"""Parameterized layer normalization and batch normalization.

Both norms use population variance, and sigma is defined as the exact
forward denominator sqrt(var + EPS). The unrolled-coefficient analysis
in :mod:`skipnorm.ratio` relies on capturing that same denominator, so
the reconstruction identity is exact rather than eps-approximate.

:func:`combine_norm` fuses a residual block's whole skip combination,
the chain y_k = N_k(a*x + c*y_{k-1}) of one to L nested norms, into one
tape node. It runs the same forward and backward kernels as
:func:`layer_norm` and :func:`batch_norm`, so its values and gradients
equal the composed ops bit for bit. Per level the tape keeps only the
norm's standardized input xhat and its per-row or per-feature sigma; an
inner level's output is overwritten by the next level's input, and its
gradient is handed to the level below without a ``.grad`` copy.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError
from .tensor import Tensor, _accumulate, _records

__all__ = ["LayerNormParams", "BatchNormParams", "layer_norm", "batch_norm", "combine_norm"]

EPS = 1e-5  # added to every variance under the square root
MOMENTUM = 0.1  # a batch norm's running-statistics update rate


@dataclass
class LayerNormParams:
    """Trainable gain/bias of one layer-normalization instance."""

    gain: Tensor
    bias: Tensor

    def __post_init__(self):
        if self.gain.data.ndim != 1 or self.gain.data.shape != self.bias.data.shape:
            raise DimensionError("gain and bias must be 1-D vectors of equal length")

    @classmethod
    def create(cls, d):
        """Fresh parameters: gain 1, bias 0."""
        return cls(gain=Tensor(np.ones(d), requires_grad=True), bias=Tensor(np.zeros(d), requires_grad=True))

    @property
    def dim(self):
        return self.gain.data.shape[0]


@dataclass
class BatchNormParams:
    """Batch-norm parameters plus running statistics.

    ``mode`` selects between mini-batch statistics ("training", running
    stats updated as an exponential moving average) and the frozen
    running statistics ("inference", output independent of the batch).
    """

    gain: Tensor
    bias: Tensor
    running_mean: np.ndarray
    running_var: np.ndarray
    mode: str = "training"

    def __post_init__(self):
        d = self.gain.data.shape[0]
        if self.bias.data.shape != (d,) or self.running_mean.shape != (d,) or self.running_var.shape != (d,):
            raise DimensionError("gain, bias, and running statistics must share one length")

    @classmethod
    def create(cls, d):
        return cls(
            gain=Tensor(np.ones(d), requires_grad=True),
            bias=Tensor(np.zeros(d), requires_grad=True),
            running_mean=np.zeros(d),
            running_var=np.ones(d),
        )

    @property
    def dim(self):
        return self.gain.data.shape[0]


def _require_2d(x, d, opname):
    if x.ndim != 2:
        raise DimensionError(f"{opname} expects [batch, d] input, got {x.shape}")
    if x.shape[1] != d:
        raise DimensionError(f"{opname}: input width {x.shape[1]} != parameter width {d}")


# The kernels below are the one implementation of each norm's forward and
# backward, shared by the layer_norm/batch_norm nodes and the fused
# combine_norm node. A forward takes the input array and whether the
# caller owns it (an owned array is overwritten in place) and returns the
# output array plus a function mapping the output gradient g to
# (d gain, d bias, d input). d gain and d bias are None unless the gain
# or bias requires grad, and d input is None when the caller says no
# input needs it. The d input array is fresh, so the caller may
# overwrite it. Means are sum / count, which numpy's mean computes bit
# for bit the same way.


def _standardize(z, p, axis, owned):
    """gain * (z - mu) / sigma + bias with mu and the population variance
    taken along ``axis``; returns (out, xhat, mu, var, sigma) with the
    statistics kept 2-D."""
    n = z.shape[axis]
    mu = z.sum(axis=axis, keepdims=True) / n
    centered = np.subtract(z, mu, out=z if owned else None)
    work = centered * centered
    var = work.sum(axis=axis, keepdims=True) / n
    sigma = np.sqrt(var + EPS)
    xhat = np.divide(centered, sigma, out=centered)
    out = np.multiply(p.gain.data, xhat, out=work)
    out += p.bias.data
    return out, xhat, mu, var, sigma


def _standardize_backward(p, xhat, sigma, axis):
    n = xhat.shape[axis]

    def grads(g, need_x):
        dw = db = work = None
        if p.gain.requires_grad:
            work = g * xhat
            dw = work.sum(axis=0)
        if p.bias.requires_grad:
            db = g.sum(axis=0)
        if not need_x:
            return dw, db, None
        dxhat = g * p.gain.data
        # full derivative through mu and sigma
        m1 = dxhat.sum(axis=axis, keepdims=True) / n
        work = np.multiply(dxhat, xhat, out=work)  # a fresh array when d gain was skipped
        m2 = work.sum(axis=axis, keepdims=True) / n
        np.multiply(xhat, m2, out=work)
        dxhat -= m1
        dxhat -= work
        dxhat /= sigma
        return dw, db, dxhat

    return grads


def _layer_norm_forward(z, p, owned, stats_out=None):
    out, xhat, mu, _, sigma = _standardize(z, p, 1, owned)
    if stats_out is not None:
        stats_out.append((mu[:, 0].copy(), sigma[:, 0].copy()))
    return out, _standardize_backward(p, xhat, sigma, 1)


def _batch_norm_forward(z, p, owned):
    if p.mode == "inference":
        denom = np.sqrt(p.running_var + EPS)
        xhat = np.subtract(z, p.running_mean, out=z if owned else None)
        xhat /= denom
        out = p.gain.data * xhat
        out += p.bias.data

        def grads(g, need_x):
            return (
                (g * xhat).sum(axis=0) if p.gain.requires_grad else None,
                g.sum(axis=0) if p.bias.requires_grad else None,
                g * (p.gain.data / denom) if need_x else None,
            )

        return out, grads

    if p.mode != "training":
        raise ContractError(f"unknown batch_norm mode {p.mode!r}")
    if z.shape[0] < 2:
        raise ContractError("batch_norm training mode requires batch size >= 2")
    out, xhat, mu, var, sigma = _standardize(z, p, 0, owned)
    p.running_mean = (1.0 - MOMENTUM) * p.running_mean + MOMENTUM * mu[0]
    p.running_var = (1.0 - MOMENTUM) * p.running_var + MOMENTUM * var[0]
    return out, _standardize_backward(p, xhat, sigma, 0)


def _norm_node(x, p, out, grads, op):
    w, b = p.gain, p.bias

    def backward(g):
        dw, db, dx = grads(g, x.requires_grad)
        _accumulate(w, dw)
        _accumulate(b, db)
        _accumulate(x, dx)

    return Tensor(out, x.requires_grad or w.requires_grad or b.requires_grad, (x, w, b), op, backward)


def layer_norm(x, p):
    """Per-row normalization y = gain * (x - mu) / sigma + bias.

    mu is the row mean and sigma = sqrt(population variance + EPS), the
    denominator actually used in forward.
    """
    _require_2d(x.data, p.dim, "layer_norm")
    out, grads = _layer_norm_forward(x.data, p, False)
    return _norm_node(x, p, out, grads, "layer_norm")


def batch_norm(x, p):
    """Per-feature normalization over the batch axis.

    Training mode normalizes by mini-batch statistics and updates the
    running statistics in place; inference mode uses only the running
    statistics, so the output of a row never depends on the rest of the
    batch.
    """
    _require_2d(x.data, p.dim, "batch_norm")
    out, grads = _batch_norm_forward(x.data, p, False)
    return _norm_node(x, p, out, grads, "batch_norm")


def combine_norm(x, y, a=1.0, c=1.0, norms=(), stats_out=None):
    """One tape node for a residual block's skip combination: the chain
    y_k = N_k(a*x + c*y_{k-1}), k = 1..L, with y_0 = ``y``.

    ``a`` is a float or a per-feature vector tensor (a learned shortcut
    gain) and ``c`` a float. ``norms`` is a sequence of LayerNormParams
    and BatchNormParams (each in its current mode) applied innermost
    first; an empty one gives the bare a*x + c*y. If ``stats_out`` is a
    list, every layer-norm level appends its per-row (mu, sigma), the
    mean and the exact forward denominator, innermost first.

    Values and gradients are bit-identical to the same chain composed
    from ``scale``/``ewmul``, ``add`` and the norms, one node per op: the
    same ufuncs run on the same operands in the same order, a factor of
    exactly 1.0 is skipped (multiplying by it is exact), and backward
    adds the contributions to x, ``a`` and the norm parameters outermost
    level first, as that tape does. Of each level the node keeps only
    the norm's backward closure over (xhat, sigma): a level's input is
    summed into the previous level's output buffer, and its input
    gradient goes straight to the level below, never into a ``.grad``.
    A call that records no tape keeps nothing. ``x`` and ``y`` are read,
    never written; only a residual block, through a private entry, hands
    over its built-in branch's output buffer, which this node then reuses
    for the first level's a*x + c*y instead of allocating beside it.
    """
    return _combine_norm(x, y, a, c, norms, stats_out, False)


def _combine_norm(x, y, a, c, norms, stats_out, owned):
    """:func:`combine_norm`; ``owned`` says that y's buffer is private to
    the call: no one reads it again, the node's backward included, so the
    first level writes into it."""
    if x.data.shape != y.data.shape:
        raise DimensionError(f"combine_norm: shapes {x.data.shape} and {y.data.shape} differ")
    for p in norms:
        _require_2d(x.data, p.dim, "combine_norm")
    learned = isinstance(a, Tensor)
    c = float(c)
    if learned:
        if a.data.ndim != 1 or x.data.shape[-1:] != a.data.shape:
            raise DimensionError(f"combine_norm: gain {a.data.shape} does not match input {x.data.shape}")
        ax = x.data * a.data
    else:
        a = float(a)
        ax = x.data if a == 1.0 else x.data * a
    # concatenated, not tuple(generator): a tuple built from an iterator is
    # allocated at a guessed size and shrunk, which strands its memory in
    # the interpreter's free list of the final size, one tuple per call
    parents = (x, y) + ((a,) if learned else ())
    for p in norms:
        parents += (p.gain, p.bias)
    records = _records(parents)
    levels = max(len(norms), 1)
    backwards = []  # each level's norm backward, innermost first, if the call records
    z = y.data  # from level 2 on, the previous level's output: a private buffer
    for k in range(levels):
        private = k or owned
        if c != 1.0:
            z = np.multiply(z, c, out=z if private else None)
            private = True
        # a*x + c*y_{k-1}, the operands in the order the composed ops take
        # them, into z if it is private, else into a fresh array
        first, second = (z, ax) if ax is x.data and c != 1.0 else (ax, z)
        z = np.add(first, second, out=z if private else None)
        if not norms:
            break
        if isinstance(norms[k], LayerNormParams):
            z, grads = _layer_norm_forward(z, norms[k], True, stats_out)
        else:
            z, grads = _batch_norm_forward(z, norms[k], True)
        if records:
            backwards.append(grads)

    def backward(g):
        shortcut = x.requires_grad or learned and a.requires_grad
        below = [y.requires_grad]  # below[k]: whether level k's input y_{k-1} needs a gradient
        for p in norms[:-1]:
            below.append(below[-1] or shortcut or p.gain.requires_grad or p.bias.requires_grad)
        for k in reversed(range(levels)):
            if norms:
                dw, db, g = backwards[k](g, shortcut or below[k])
                _accumulate(norms[k].gain, dw)
                _accumulate(norms[k].bias, db)
                if g is None:
                    return
            if learned:
                if x.requires_grad:
                    x.accumulate_grad(g * a.data)
                if a.requires_grad:
                    a.accumulate_grad((g * x.data).sum(axis=tuple(range(g.ndim - 1))))
            elif x.requires_grad:
                x.accumulate_grad(g if a == 1.0 else a * g)
            if not below[k]:
                return
            if c != 1.0:
                if norms:
                    g *= c  # the norm's input gradient is private to this call
                else:
                    g = c * g
        y.accumulate_grad(g)

    return Tensor(z, records, parents, "combine_norm", backward)
