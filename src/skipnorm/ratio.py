"""Unrolled linear decomposition of recursive LN-skip blocks.

A recursive block y_1 = LN_1(x + F(x)), y_k = LN_k(x + y_{k-1}) is, for
fixed per-level statistics, affine in the pair (x, F(x)):

    y_lam = coef_x * x + coef_f * F(x) + const

with coefficients built from the captured gains w_j and the denominators
sigma_j each level actually divided by. ``unroll_decompose`` produces
those coefficients by recursive expansion; ``ratio_general`` evaluates
the matching closed form of the shortcut/residual ratio

    coef_x / coef_f = 1 + sum_{i=1}^{lam-1} prod_{j=1}^{i} sigma_j / w_j

where level j=1 is the innermost normalization. The sum has lam-1
terms: the outermost level's gain and denominator scale both
coefficients equally and cancel from the ratio. Writing the upper bound
as lam instead adds a spurious product over all lam levels and no
longer reproduces the decomposition (the lam=2 case must reduce to
sigma_1/w_1 + 1).

Each term of that sum is an outer product of a per-row factor
P_i = prod sigma_j and a per-feature factor Q_i = prod 1/w_j, so the
ratio's mean over rows and features separates:

    mean(ratio) = 1 + sum_{i=1}^{lam-1} mean_r(P_i) * mean_f(Q_i)

``_mean_ratio`` takes the effective scale this way, in O(lam(B + d))
instead of the O(lam*B*d) of averaging ``ratio_general``. The two agree
to a few ulps, not bit for bit: the summation order differs.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, SingularRatioError

__all__ = ["RatioWitness", "unroll_decompose", "ratio_general"]


@dataclass(frozen=True)
class RatioWitness:
    """Per-level statistics recorded during one recursive-block forward.

    Level j holds (sigma_j, mu_j, w_j, b_j): the eps-adjusted denominator
    and mean per row, and the gain and bias vectors of that level's
    normalization. Level count equals the block's recursion depth.
    """

    sigmas: tuple  # each [batch]
    mus: tuple     # each [batch]
    gains: tuple   # each [d]
    biases: tuple  # each [d]

    def __post_init__(self):
        n = len(self.sigmas)
        if n < 1:
            raise ContractError("witness must carry at least one level")
        if not (len(self.mus) == len(self.gains) == len(self.biases) == n):
            raise ContractError("witness level lists must have equal length")
        for s in self.sigmas:
            if not np.all(s > 0):  # a NaN sigma fails too
                raise ContractError("witness sigma must be strictly positive")

    @property
    def levels(self):
        return len(self.sigmas)


def _witness_shapes(witness, x, f):
    x = np.asarray(x, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    if x.ndim != 2 or x.shape != f.shape:
        raise ContractError(f"x and f must be equal [batch, d] arrays, got {x.shape} and {f.shape}")
    batch, d = x.shape
    for s, m, w, b in zip(witness.sigmas, witness.mus, witness.gains, witness.biases):
        if s.shape != (batch,) or m.shape != (batch,):
            raise ContractError("witness row statistics do not match the batch size")
        if w.shape != (d,) or b.shape != (d,):
            raise ContractError("witness gain/bias do not match the feature width")
    return x, f


def unroll_decompose(witness, x, f):
    """Coefficients (coef_x, coef_f, const) of the block output in (x, f).

    Expanding the recursion level by level: with s_k = w_k / sigma_k
    (per row and feature),

        A_1 = B_1 = s_1,              C_1 = b_1 - s_1 * mu_1
        A_k = s_k * (1 + A_{k-1}),    B_k = s_k * B_{k-1},
        C_k = s_k * (C_{k-1} - mu_k) + b_k

    Because sigma is the exact forward denominator, the reconstruction
    coef_x*x + coef_f*f + const equals the block output to rounding.
    """
    x, f = _witness_shapes(witness, x, f)

    coef_x = coef_f = const = None
    for sigma, mu, w, b in zip(witness.sigmas, witness.mus, witness.gains, witness.biases):
        s = w[None, :] / sigma[:, None]
        mu_col = mu[:, None]
        if coef_x is None:
            coef_x = s
            coef_f = s.copy()
            const = b[None, :] - s * mu_col
        else:
            coef_x = s * (1.0 + coef_x)
            coef_f = s * coef_f
            const = s * (const - mu_col) + b[None, :]
    return coef_x, coef_f, const


def _check_gains(witness):
    """SingularRatioError if a gain of any level has an exactly-zero entry."""
    for j, w in enumerate(witness.gains):
        if (w == 0.0).any():
            raise SingularRatioError(f"gain of level {j + 1} has an exactly-zero entry")


def ratio_general(witness):
    """Closed-form shortcut/residual coefficient ratio, per row and feature.

    Equals coef_x / coef_f from :func:`unroll_decompose` on the same
    witness. Raises if any gain entry is exactly zero, since the ratio
    is then undefined rather than silently infinite.
    """
    _check_gains(witness)
    batch = witness.sigmas[0].shape[0]
    d = witness.gains[0].shape[0]
    ratio = np.ones((batch, d))
    running = np.ones((batch, d))
    # sum over the lam-1 inner products sigma_j / w_j, innermost first
    for sigma, w in zip(witness.sigmas[:-1], witness.gains[:-1]):
        running = running * (sigma[:, None] / w[None, :])
        ratio = ratio + running
    return ratio


def _mean_ratio(witness):
    """``ratio_general(witness).mean()`` from the separable form in the
    module docstring, without building the [batch, d] ratio. Raises as
    ``ratio_general`` does on a zero gain entry of any level."""
    _check_gains(witness)
    scale = 1.0
    rows = cols = 1.0
    for sigma, w in zip(witness.sigmas[:-1], witness.gains[:-1]):
        rows = rows * sigma
        # kept per feature and averaged per term, so a per-feature skip
        # gain a would enter as mean_f(a * cols)
        cols = cols / w
        scale += rows.sum() / len(rows) * (cols.sum() / len(cols))  # np.mean's sum / count
    return float(scale)
