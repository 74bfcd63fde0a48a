"""Unrolled linear decomposition of layer-normalized skip blocks.

An LN block y_k = LN_k(a*x + c*y_{k-1}), k = 1..L, y_0 = F(x), with a
shortcut gain a (a float or a per-feature vector) and a residual scale
c > 0, is for fixed per-level statistics affine in (x, F(x)):

    y_L = coef_x * x + coef_f * F(x) + const

with coefficients built from a, c, the captured gains w_j and the
denominators sigma_j each level actually divided by. ``unroll_decompose``
produces them by recursive expansion; ``ratio_general`` evaluates the
matching closed form of the shortcut/residual ratio

    coef_x / coef_f = (a/c) * (1 + sum_{i=1}^{L-1} prod_{j=1}^{i} sigma_j / (c * w_j))

where level j=1 is the innermost normalization. The sum has L-1 terms:
the outermost level's gain and denominator scale both coefficients
equally and cancel from the ratio, so one level gives a/c whatever the
input. An upper bound of L adds a spurious product over all L levels
and no longer reproduces the decomposition.

Each term of that sum is an outer product of a per-row factor
P_i = prod sigma_j and a per-feature factor Q_i = prod 1/(c * w_j), so
the ratio's mean over rows and features separates:

    mean(ratio) = mean_f(a)/c + sum_{i=1}^{L-1} mean_r(P_i) * mean_f(a * Q_i) / c

``_mean_ratio`` takes the effective scale this way, in O(L(B + d))
instead of the O(L*B*d) of averaging ``ratio_general``. The two agree
to a few ulps, not bit for bit: the summation order differs.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, SingularRatioError

__all__ = ["RatioWitness", "unroll_decompose", "ratio_general"]


@dataclass(frozen=True)
class RatioWitness:
    """Per-level statistics recorded during one LN-block forward.

    Level j holds (sigma_j, mu_j, w_j, b_j): the eps-adjusted denominator
    and mean per row, and the gain and bias of that level's norm. ``a`` (a
    float or a [d] copy) and ``c`` are the block's skip gain and scale.
    Every sigma and mu is a [batch] vector and every gain and bias a [d]
    vector of one common length, so no level is broadcast against another.
    """

    sigmas: tuple  # each [batch]
    mus: tuple     # each [batch]
    gains: tuple   # each [d]
    biases: tuple  # each [d]
    a: object = 1.0
    c: float = 1.0

    def __post_init__(self):
        n = len(self.sigmas)
        if n < 1:
            raise ContractError("witness must carry at least one level")
        if not (len(self.mus) == len(self.gains) == len(self.biases) == n):
            raise ContractError("witness level lists must have equal length")
        for stats in ((*self.sigmas, *self.mus), (*self.gains, *self.biases)):
            shape, *others = {v.shape for v in stats}
            if others or len(shape) != 1:
                raise ContractError("witness sigmas and mus must share one 1-D shape, gains and biases another")
        # one [levels, batch] comparison: np.all per level costs 3 times more
        if not (np.array(self.sigmas) > 0).all():  # a NaN sigma fails too
            raise ContractError("witness sigma must be strictly positive")
        a, c = self.a, self.c  # a float by comparison: np.isfinite on one costs 100 times more
        if not (np.isfinite(a).all() and a.shape == self.gains[0].shape if isinstance(a, np.ndarray)
                else -np.inf < a < np.inf) or not 0.0 < c < np.inf:  # NaN fails both
            raise ContractError(f"witness needs a finite a, a float or shaped as a gain, and 0 < c < inf; got {a}, {c}")

    @property
    def levels(self):
        return len(self.sigmas)


def _witness_shapes(witness, x, f):
    x = np.asarray(x, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    shape = (len(witness.sigmas[0]), len(witness.gains[0]))
    if x.shape != shape or f.shape != shape:
        raise ContractError(f"x and f must be the witness's [batch, d] = {shape} arrays, got {x.shape} and {f.shape}")
    return x, f


def unroll_decompose(witness, x, f):
    """Coefficients (coef_x, coef_f, const) of the block output in (x, f).

    Expanding the recursion level by level: with s_k = w_k / sigma_k
    (per row and feature),

        A_1 = s_1 * a,                  B_1 = s_1 * c,            C_1 = b_1 - s_1 * mu_1
        A_k = s_k * (a + c * A_{k-1}),  B_k = s_k * (c * B_{k-1}),
        C_k = s_k * (c * C_{k-1} - mu_k) + b_k

    Because sigma is the exact forward denominator, the reconstruction
    coef_x*x + coef_f*f + const equals the block output to rounding.
    """
    x, f = _witness_shapes(witness, x, f)
    a, c = witness.a, witness.c

    coef_x = coef_f = const = None
    for sigma, mu, w, b in zip(witness.sigmas, witness.mus, witness.gains, witness.biases):
        s = w[None, :] / sigma[:, None]
        mu_col = mu[:, None]
        if coef_x is None:
            coef_x = s * a
            coef_f = s * c
            const = b[None, :] - s * mu_col
        else:
            coef_x = s * (a + c * coef_x)
            coef_f = s * (c * coef_f)
            const = s * (c * const - mu_col) + b[None, :]
    return coef_x, coef_f, const


def _check_gains(gains):
    """SingularRatioError if a gain of any level has an exactly-zero entry."""
    for j, w in enumerate(gains):
        if (w == 0.0).any():
            raise SingularRatioError(f"gain of level {j + 1} has an exactly-zero entry")


def ratio_general(witness):
    """Closed-form shortcut/residual coefficient ratio, per row and feature.

    Equals coef_x / coef_f from :func:`unroll_decompose` on the same
    witness. Raises if any gain entry is exactly zero, since the ratio
    is then undefined rather than silently infinite.
    """
    _check_gains(witness.gains)
    # both are rebound, never written in place, so they start as one array
    ratio = running = np.ones((witness.sigmas[0].shape[0], witness.gains[0].shape[0]))
    # sum over the L-1 inner products sigma_j / (c * w_j), innermost first
    for sigma, w in zip(witness.sigmas[:-1], witness.gains[:-1]):
        running = running * (sigma[:, None] / (witness.c * w)[None, :])
        ratio = ratio + running
    return ratio * (witness.a / witness.c)


def _mean_ratio(witness):
    """``ratio_general(witness).mean()`` from the separable form in the
    module docstring, without building the [batch, d] ratio. Raises as
    ``ratio_general`` does on a zero gain entry of any level."""
    _check_gains(witness.gains)
    return _separable_mean(witness.a, witness.c, witness.sigmas[:-1], witness.gains[:-1])


def _separable_mean(a, c, sigmas, gains):
    """The separable mean above over the inner levels given; with none, mean_f(a)/c."""
    scale = (a.sum() / a.size if isinstance(a, np.ndarray) else a) / c  # each mean is np.mean's sum / count
    rows = cols = 1.0
    for sigma, w in zip(sigmas, gains):
        rows = rows * sigma
        cols = cols / (c * w)
        scale += rows.sum() / len(rows) * ((a * cols).sum() / len(cols)) / c
    return float(scale)
