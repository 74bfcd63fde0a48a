"""Parameterized layer normalization and batch normalization.

Both norms use population variance, and sigma is defined as the exact
forward denominator sqrt(var + eps). The unrolled-coefficient analysis
in :mod:`skipnorm.ratio` relies on capturing that same denominator, so
the reconstruction identity is exact rather than eps-approximate.

:func:`combine_norm` fuses a residual block's skip combination
N(a*x + c*y) into one tape node. It runs the same forward and backward
kernels as :func:`layer_norm` and :func:`batch_norm`, so its values and
gradients equal the composed ops bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError
from .tensor import Tensor, _accumulate

__all__ = ["LayerNormParams", "BatchNormParams", "layer_norm", "batch_norm", "combine_norm"]

DEFAULT_EPS = 1e-5


@dataclass
class LayerNormParams:
    """Trainable gain/bias of one layer-normalization instance."""

    gain: Tensor
    bias: Tensor
    eps: float = DEFAULT_EPS

    def __post_init__(self):
        if self.gain.data.ndim != 1 or self.gain.data.shape != self.bias.data.shape:
            raise DimensionError("gain and bias must be 1-D vectors of equal length")
        if self.eps <= 0:
            raise ContractError("eps must be positive")

    @classmethod
    def create(cls, d, eps=DEFAULT_EPS):
        """Fresh parameters: gain 1, bias 0."""
        return cls(
            gain=Tensor(np.ones(d), requires_grad=True),
            bias=Tensor(np.zeros(d), requires_grad=True),
            eps=eps,
        )

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
    momentum: float = 0.1
    eps: float = DEFAULT_EPS
    mode: str = "training"

    def __post_init__(self):
        if not 0.0 < self.momentum < 1.0:
            raise ContractError("momentum must lie in (0, 1)")
        if self.eps <= 0:
            raise ContractError("eps must be positive")
        d = self.gain.data.shape[0]
        if self.bias.data.shape != (d,) or self.running_mean.shape != (d,) or self.running_var.shape != (d,):
            raise DimensionError("gain, bias, and running statistics must share one length")

    @classmethod
    def create(cls, d, momentum=0.1, eps=DEFAULT_EPS):
        return cls(
            gain=Tensor(np.ones(d), requires_grad=True),
            bias=Tensor(np.zeros(d), requires_grad=True),
            running_mean=np.zeros(d),
            running_var=np.ones(d),
            momentum=momentum,
            eps=eps,
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
    sigma = np.sqrt(var + p.eps)
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
        denom = np.sqrt(p.running_var + p.eps)
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
    m = p.momentum
    p.running_mean = (1.0 - m) * p.running_mean + m * mu[0]
    p.running_var = (1.0 - m) * p.running_var + m * var[0]
    return out, _standardize_backward(p, xhat, sigma, 0)


def _norm_node(x, p, out, grads, op):
    w, b = p.gain, p.bias

    def backward(g):
        dw, db, dx = grads(g, x.requires_grad)
        _accumulate(w, dw)
        _accumulate(b, db)
        _accumulate(x, dx)

    return Tensor(out, x.requires_grad or w.requires_grad or b.requires_grad, (x, w, b), op, backward)


def layer_norm(x, p, stats_out=None):
    """Per-row normalization y = gain * (x - mu) / sigma + bias.

    mu is the row mean and sigma = sqrt(population variance + eps), the
    denominator actually used in forward. If ``stats_out`` is a list,
    the per-row (mu, sigma) pair is appended to it so callers can record
    a decomposition witness.
    """
    _require_2d(x.data, p.dim, "layer_norm")
    out, grads = _layer_norm_forward(x.data, p, False, stats_out)
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


def combine_norm(x, y, a=1.0, c=1.0, norm=None, stats_out=None):
    """One tape node for N(a*x + c*y), a residual block's skip combination.

    ``a`` is a float or a per-feature vector tensor (a learned shortcut
    gain), ``c`` a float, and ``norm`` LayerNormParams, BatchNormParams
    (in its current mode) or None for no normalization; ``stats_out``
    records the layer-norm witness as in :func:`layer_norm`. Values and
    gradients are bit-identical to the same expression composed from
    ``scale``/``ewmul``, ``add`` and the norm: the same ufuncs run in the
    same order, a factor of exactly 1.0 is skipped (multiplying by it is
    exact), and the input gradient reaches x and y once each.
    """
    if x.data.shape != y.data.shape:
        raise DimensionError(f"combine_norm: shapes {x.data.shape} and {y.data.shape} differ")
    if norm is not None:
        _require_2d(x.data, norm.dim, "combine_norm")
    learned = isinstance(a, Tensor)
    c = float(c)
    if learned:
        if a.data.ndim != 1 or x.data.shape[-1:] != a.data.shape:
            raise DimensionError(f"combine_norm: gain {a.data.shape} does not match input {x.data.shape}")
        ax = x.data * a.data
    else:
        a = float(a)
        ax = x.data if a == 1.0 else x.data * a
    cy = y.data if c == 1.0 else y.data * c
    # the sum goes into whichever term is already a private buffer
    if ax is not x.data:
        z = np.add(ax, cy, out=ax)
    elif cy is not y.data:
        z = np.add(cy, ax, out=cy)
    else:
        z = ax + cy
    if norm is None:
        out, grads = z, None
    elif isinstance(norm, LayerNormParams):
        out, grads = _layer_norm_forward(z, norm, True, stats_out)
    else:
        out, grads = _batch_norm_forward(z, norm, True)

    def backward(g):
        if grads is not None:
            dw, db, g = grads(g, x.requires_grad or y.requires_grad or learned and a.requires_grad)
            _accumulate(norm.gain, dw)
            _accumulate(norm.bias, db)
            if g is None:
                return
        if learned:
            if x.requires_grad:
                x.accumulate_grad(g * a.data)
            if a.requires_grad:
                a.accumulate_grad((g * x.data).sum(axis=tuple(range(g.ndim - 1))))
        elif x.requires_grad:
            x.accumulate_grad(g if a == 1.0 else a * g)
        if not y.requires_grad:
            return
        if c == 1.0:
            y.accumulate_grad(g)
        elif grads is not None:
            g *= c  # the norm's input gradient is private to this call
            y.accumulate_grad(g)
        else:
            y.accumulate_grad(c * g)

    parents = (x, y) + ((a,) if learned else ()) + ((norm.gain, norm.bias) if norm is not None else ())
    requires = any(t.requires_grad for t in parents)
    return Tensor(out, requires, parents, "combine_norm", backward)
