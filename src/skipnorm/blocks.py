"""Skip-connection constructions, residual blocks, and stacked models.

Every block computes some normalized combination of its input x and a
pluggable residual transform F(x) of equal width. The combination rule
is an algebraic :class:`SkipConstruction`; the default residual branch
is a two-layer affine+relu bottleneck, but any differentiable callable
of matching width works.
"""

import os
import struct
import sys
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigError, ContractError, DimensionError, FormatError, _check_batch, _check_count, _check_doubles, _check_real,
    _open_regular,
)
from . import tensor as _tape
from .normalization import BatchNormParams, LayerNormParams, _chain, _combine_norm
from .ratio import RatioWitness, _check_gains, _mean_ratio, _separable_mean
from .tensor import Tensor, _records, add, matmul, no_grad, relu

__all__ = [
    "SkipKind",
    "SkipConstruction",
    "AffineReluBranch",
    "ResidualBlock",
    "ModelConfig",
    "ResidualModel",
    "build_block",
    "build_model",
    "effective_scale",
    "save_model",
    "load_model",
]


class SkipKind(Enum):
    PLAIN = "plain"
    XSKIP = "xskip"
    XSKIP_LN = "xskip-ln"
    RSKIP_LN = "rskip-ln"
    WSKIP_LN = "wskip-ln"
    XSKIP_BN = "xskip-bn"
    RSKIP_BN = "rskip-bn"
    CONTRACTED_F_LN = "contracted-f-ln"


class _Lowering(NamedTuple):
    """One SkipKind as a point of the family y_k = N(a*x + c*y_{k-1}),
    k = 1..levels, with y_0 = F(x); no levels means the bare a*x + c*F.
    Lambda is unused, and stays 1, unless a or levels is "lam"."""

    norm: str  # "LN", "BN", or "" for none
    a: str  # shortcut: "1", "lam" (a real lambda > 0, printed :g), or "w" (the learned w_skip vector)
    c: str  # residual: "1", or "c" (residual_scale)
    levels: object  # 0, 1, or "lam" (an integer lambda >= 1)
    name: str  # label template over {lam} and {c}


_LOWERING = {
    SkipKind.PLAIN: _Lowering("", "1", "1", 0, "plain"),
    SkipKind.XSKIP: _Lowering("", "lam", "1", 0, "{lam}xSkip"),
    SkipKind.XSKIP_LN: _Lowering("LN", "lam", "1", 1, "{lam}xSkip+LN"),
    SkipKind.RSKIP_LN: _Lowering("LN", "1", "1", "lam", "{lam}rSkip+LN"),
    SkipKind.WSKIP_LN: _Lowering("LN", "w", "1", 1, "wSkip+LN"),
    SkipKind.XSKIP_BN: _Lowering("BN", "lam", "1", 1, "{lam}xSkip+BN"),
    SkipKind.RSKIP_BN: _Lowering("BN", "1", "1", "lam", "{lam}rSkip+BN"),
    SkipKind.CONTRACTED_F_LN: _Lowering("LN", "1", "c", 1, "LN(x+{c}F)"),
}
_NORM_PARAMS = {"LN": LayerNormParams, "BN": BatchNormParams}


@dataclass(frozen=True)
class SkipConstruction:
    """Combination rule of one residual block.

    ``lam`` is the shortcut scale: any positive real for the scaled
    kinds, an integer recursion depth >= 1 for the recursive kinds.
    ``residual_scale`` is the c of LN(x + c*F) and only meaningful for
    the contracted kind. Whichever field a kind does not use must stay
    at its default of 1.
    """

    kind: SkipKind
    lam: float = 1.0
    residual_scale: float = 1.0

    def __post_init__(self):
        if not isinstance(self.kind, SkipKind):
            raise ConfigError(f"kind must be a SkipKind, got {self.kind!r}")
        row = self._lowered
        if row.a == "lam":
            _check_real(self.lam, f"lambda of {self.kind.value}", strict=True)
        elif row.levels == "lam":
            _check_real(self.lam, f"lambda of {self.kind.value}", 1)
            if not float(self.lam).is_integer():
                raise ConfigError(f"{self.kind.value} requires integer lambda >= 1, got {self.lam}")
        elif self.lam != 1.0:
            raise ConfigError(f"{self.kind.value} does not use lambda; leave it at 1")
        if row.c == "c":
            _check_real(self.residual_scale, "residual_scale", strict=True)
        elif self.residual_scale != 1.0:
            raise ConfigError(f"{self.kind.value} does not use residual_scale; leave it at 1")

    @property
    def _lowered(self):
        return _LOWERING[self.kind]

    @property
    def levels(self):
        """Number of normalization instances a block of this kind owns."""
        levels = self._lowered.levels
        return int(self.lam) if levels == "lam" else levels

    @property
    def uses_lambda(self):
        return "lam" in (self._lowered.a, self._lowered.levels)

    @property
    def uses_ln(self):
        return self._lowered.norm == "LN"

    @property
    def uses_bn(self):
        return self._lowered.norm == "BN"

    def _lam_text(self):
        return f"{int(self.lam)}" if self._lowered.levels == "lam" else f"{self.lam:g}"

    def label(self):
        """Short method name, e.g. 2xSkip+LN or LN(x+3F)."""
        return self._lowered.name.format(lam=self._lam_text(), c=f"{self.residual_scale:g}")

    def arch(self):
        """Formula string for result tables: N(a.x + c.expr) nested once
        per level around F."""
        row = self._lowered
        a = {"1": "", "lam": self._lam_text(), "w": "w."}[row.a]
        c = f"{self.residual_scale:g}*" if row.c == "c" else ""
        expr = "F"
        for _ in range(max(self.levels, 1)):
            expr = f"{a}x+{c}{expr}"
            if row.norm:
                expr = f"{row.norm}({expr})"
        return expr

    def norm_label(self):
        return self._lowered.norm or "-"

    @classmethod
    def parse(cls, token, lam=None):
        """Parse a CLI token like ``xskip-ln``, ``2rskip-ln``, or
        ``contracted-f-ln:3``. A leading number or ``lam`` (a number or its
        text; not both) supplies lambda; the ``:c`` suffix the residual scale."""
        token = token.strip().lower()
        residual_scale = None
        if ":" in token:
            token, _, suffix = token.partition(":")
            residual_scale = _parse_number(suffix, f"residual scale in {token}:{suffix}")
        head = token
        digits = ""
        while head and (head[0].isdigit() or head[0] == "."):
            digits += head[0]
            head = head[1:]
        if digits:
            if lam is not None:
                raise ConfigError(f"lambda given twice: {token!r} has a prefix and lambda is {lam!r}")
            lam = _parse_number(digits, f"lambda prefix of {token!r}")
        try:
            kind = SkipKind(head)
        except ValueError:
            valid = ", ".join(k.value for k in SkipKind)
            raise ConfigError(f"unknown construction {token!r}; expected one of: {valid}")
        kwargs = {}
        if cls(kind).uses_lambda:
            kwargs["lam"] = 1.0 if lam is None else _parse_number(lam, f"lambda of {kind.value}")
        elif lam is not None:
            raise ConfigError(f"{kind.value} does not take lambda")
        if residual_scale is not None:
            if _LOWERING[kind].c != "c":
                raise ConfigError(f"{kind.value} does not take a residual scale (:{suffix})")
            kwargs["residual_scale"] = residual_scale
        return cls(kind, **kwargs)


def _parse_number(text, what):
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"cannot parse the {what}: {text!r} is not a number") from None


# damping on the branch's output layer at init: a freshly built branch
# then adds ~1% variance per block, so a deep identity-skip stack starts
# variance-stable and any geometric growth with depth is attributable to
# the skip construction itself rather than to branch initialization
BRANCH_OUT_GAIN = 0.1


class AffineReluBranch:
    """Default residual transform: relu(x @ w1 + b1) @ w2 + b2."""

    def __init__(self, w1, b1, w2, b2):
        self.w1, self.b1, self.w2, self.b2 = w1, b1, w2, b2

    @classmethod
    def init(cls, d, hidden, rng):
        """Fan-in-scaled normal init; relu layer gets the factor-2 variance
        and the output layer the damping above."""
        _check_count(d, "width", 1)
        _check_count(hidden, "hidden width", 1)
        return cls(
            w1=Tensor(rng.normal(0.0, np.sqrt(2.0 / d), (d, hidden)), requires_grad=True),
            b1=Tensor(np.zeros(hidden), requires_grad=True),
            w2=Tensor(rng.normal(0.0, BRANCH_OUT_GAIN * np.sqrt(1.0 / hidden), (hidden, d)), requires_grad=True),
            b2=Tensor(np.zeros(d), requires_grad=True),
        )

    def __call__(self, x):
        """One tape node for the whole branch. The forward runs the public
        ops without a tape, and the backward applies their rules in the
        order the composed tape would, so values and gradients are
        bit-identical to it. Only x, the hidden activation and the output
        are kept; the relu mask is rebuilt from the activation, which is
        positive exactly where the pre-activation is. With nothing to
        record (under no_grad, or nothing requires grad) the branch runs
        as one kernel on raw arrays, the same ufuncs on the same operands
        in the same order, in place, and only its result becomes a Tensor."""
        w1, b1, w2, b2 = self.w1, self.b1, self.w2, self.b2
        parents = (x, w1, b1, w2, b2)
        if not _records(parents):
            return Tensor(_affine_relu(x.data, w1.data, b1.data, w2.data, b2.data))
        with no_grad():
            hidden = relu(add(matmul(x, w1), b1))
            out = add(matmul(hidden, w2), b2)
        h = hidden.data

        def backward(g):
            if b2.requires_grad:
                b2.accumulate_grad(g.sum(axis=0))
            if w2.requires_grad:
                w2.accumulate_grad(h.T @ g)
            if not (x.requires_grad or w1.requires_grad or b1.requires_grad):
                return
            gz = g @ w2.data.T
            gz *= h > 0.0
            if b1.requires_grad:
                b1.accumulate_grad(gz.sum(axis=0))
            if w1.requires_grad:
                w1.accumulate_grad(x.data.T @ gz)
            if x.requires_grad:
                x.accumulate_grad(gz @ w1.data.T)

        return Tensor(out.data, True, parents, "affine_relu", backward)

    def parameters(self):
        yield "w1", self.w1, True
        yield "b1", self.b1, True
        yield "w2", self.w2, True
        yield "b2", self.b2, True

    def zero_(self):
        """Force F(x) = 0 identically (and a zero Jacobian, since the
        relu sits at its flat side)."""
        for _, p, _ in self.parameters():
            p.data[...] = 0.0


# the built-in branch's own __call__, captured here: a block runs its kernel
# only for a branch whose class still calls it, so a subclass that overrides
# __call__, or a patched class attribute, takes the generic path
_AFFINE_RELU_CALL = AffineReluBranch.__call__


def _affine_relu(x, w1, b1, w2, b2):
    """relu(x @ w1 + b1) @ w2 + b2 on raw arrays: ``matmul``, ``add`` and
    ``relu``'s ufuncs on the same operands in the same order, each result
    after a product written in place; returns a fresh array."""
    h = x @ w1
    h += b1
    np.fmax(h, 0.0, out=h)
    h += 0.0  # -0.0 to +0.0, as relu does
    z = h @ w2
    z += b2
    return z


class ResidualBlock:
    """One residual block: a construction, a branch, and its norms. Its
    norms, w_skip and a built-in branch must fit ``width``; one that does
    not raises DimensionError when the block is built."""

    def __init__(self, construction, branch, norms=(), w_skip=None, *, width):
        self.construction = construction
        self.branch = branch
        self.norms = list(norms)
        self.w_skip = w_skip
        self.width = width

        n = construction.levels
        if len(self.norms) != n:
            raise ConfigError(f"{construction.label()} owns {n} norms, got {len(self.norms)}")
        if len({id(p) for p in self.norms}) != len(self.norms):
            raise ConfigError("normalization parameter sets must be distinct objects")
        row = construction._lowered
        for p in self.norms:
            want = _NORM_PARAMS[row.norm]
            if not isinstance(p, want):
                raise ConfigError(f"{construction.label()} requires {want.__name__}")
        if row.a == "w":
            if w_skip is None:
                raise ConfigError(f"{construction.label()} requires a w_skip vector")
        elif w_skip is not None:
            raise ConfigError(f"{construction.label()} does not take w_skip")
        # y_k = N_k(a*x + c*y_{k-1}) with y_0 = F(x), one level per norm;
        # the unnormalized unit sum x + F stays the tape's plain add
        self._a = {"1": 1.0, "lam": float(construction.lam), "w": w_skip}[row.a]
        self._c = float(construction.residual_scale)
        self._sum = not row.norm and row.a == row.c == "1"
        self._bn = row.norm == "BN"
        self._check_widths()

    def _check_widths(self):
        """Raise DimensionError naming the first array that does not fit the
        block's width: a built-in branch maps width to width through one
        hidden width, and every norm vector, w_skip and running statistic
        is width long. Any other branch is left to its own checks."""
        w, b = self.width, self.branch
        found, want = [], []
        builtin = isinstance(b, AffineReluBranch)
        if builtin:
            h = b.w1.data.shape[1] if b.w1.data.ndim == 2 else None
            found += [b.w1.data.shape, b.b1.data.shape, b.w2.data.shape, b.b2.data.shape]
            want += [(w, h), (h,), (h, w), (w,)]
        stats = []
        for p in self.norms:
            found += [p.gain.data.shape, p.bias.data.shape]
            if isinstance(p, BatchNormParams):
                stats += [p.running_mean.shape, p.running_var.shape]
        if self.w_skip is not None:
            found.append(self.w_skip.data.shape)
        found += stats
        want += [(w,)] * (len(found) - len(want))
        if found != want:  # name the first misfit: parameters() first, then the running statistics
            names = [n for n, _, _ in self.parameters() if builtin or not n.startswith("branch.")]
            names += [f"norm{i}.running_{stat}" for i in range(1, len(self.norms) + 1) for stat in ("mean", "var")]
            name, got, need = next(t for t in zip(names, found, want) if t[1] != t[2])
            raise DimensionError(f"{name} has shape {got}, a block of width {w} needs {need}")

    def forward(self, x):
        """Apply the construction on the tape.

        When nothing records (always under no_grad) and the branch is the
        built-in one, the block runs as one kernel on raw arrays and only
        its result becomes a Tensor: the branch in place, then the skip
        chain in the branch output's buffer through the norms' own
        kernels. These are the ufuncs of the recorded path on the same
        operands in the same order, so the result is bit-identical to it.
        On either path an array that no longer fits the block's width
        raises DimensionError naming it, never numpy's ValueError, with
        the running statistics as they were."""
        return self._forward(x, None)[0]

    __call__ = forward

    def _forward(self, x, stats_out):
        """(y, F(x)) of the block; F(x) is None from the kernel unless
        ``stats_out`` is a list, which also keeps F(x) unwritten and gets
        each layer-norm level's (mu, sigma), innermost first."""
        if x.data.ndim != 2 or x.data.shape[1] != self.width:
            raise DimensionError(f"block expects [batch, {self.width}] input, got {x.data.shape}")
        keep = stats_out is not None
        # a batch norm replaces its running statistics, never writes into
        # them, so a refused call puts back the arrays it found
        found = [(p, p.running_mean, p.running_var) for p in self.norms] if self._bn else ()
        try:
            if self._fused(x):
                b, a = self.branch, self._a
                f = _affine_relu(x.data, b.w1.data, b.b1.data, b.w2.data, b.b2.data)
                a = a.data if isinstance(a, Tensor) else a
                y = _chain(x.data, f, a, self._c, self.norms, stats_out, not keep)
                return Tensor(y), Tensor(f) if keep else None
            f = self.branch(x)
            if self._sum:
                return add(x, f), f
            # the built-in branch returns a fresh buffer that its backward
            # never reads, so the combination may overwrite it; any other
            # callable's output is left as it is
            owned = not keep and type(self.branch).__call__ is _AFFINE_RELU_CALL
            return _combine_norm(x, f, self._a, self._c, self.norms, stats_out, owned), f
        except ValueError as exc:  # an op's or numpy's refusal: name the misfit array, if one is
            for p, mean, var in found:
                p.running_mean, p.running_var = mean, var
            if not isinstance(exc, ContractError):
                self._check_widths()
            raise

    def _fused(self, x):
        """Whether a forward on x runs as one kernel: the branch is the
        built-in one and neither x nor any parameter records a tape."""
        if type(self.branch).__call__ is not _AFFINE_RELU_CALL:
            return False
        if not _tape._recording:
            return True
        b = self.branch
        leaves = (x, b.w1, b.b1, b.w2, b.b2)
        for p in self.norms:
            leaves += (p.gain, p.bias)
        if isinstance(self._a, Tensor):
            leaves += (self._a,)
        return not _records(leaves)

    def _shortcut_gain(self):
        """The shortcut gain a: a float, or a copy of the learned w_skip's values."""
        return self._a if self.w_skip is None else self.w_skip.data.copy()

    def parameters(self):
        if hasattr(self.branch, "parameters"):
            for name, p, decay in self.branch.parameters():
                yield f"branch.{name}", p, decay
        for i, norm in enumerate(self.norms):
            yield f"norm{i + 1}.gain", norm.gain, False
            yield f"norm{i + 1}.bias", norm.bias, False
        if self.w_skip is not None:
            yield "w_skip", self.w_skip, False

    def witness(self, x):
        """Forward an LN block while recording its decomposition witness.

        Returns (y, f, witness): y bit-equal to ``forward(x)``, f the branch
        value, and the witness of every level, innermost first, a and c
        included. A block without layer norm raises before any forward.
        """
        if not self.construction.uses_ln:
            raise ContractError(f"the witness describes LN blocks, not {self.construction.label()}")
        stats = []
        y, f = self._forward(x, stats)
        # zip and lists, not tuple(generator): see combine_norm's parents
        mus, sigmas = zip(*stats)
        wit = RatioWitness(
            sigmas=sigmas,
            mus=mus,
            gains=tuple([p.gain.data.copy() for p in self.norms]),
            biases=tuple([p.bias.data.copy() for p in self.norms]),
            a=self._shortcut_gain(),
            c=self._c,
        )
        return y, f, wit


def effective_scale(block, x):
    """Shortcut/residual coefficient ratio of one LN block on one input Tensor.

    The closed-form ratio of ``skipnorm.ratio`` on the block's witness,
    averaged over rows and features by its separable form. The outermost
    level cancels from it, so a one-level block's scale, mean(a)/c, needs
    no input and no forward: lambda for xSkip+LN, the mean skip gain for
    wSkip+LN, 1/c for LN(x+cF). A gain entry of exactly zero on any level
    raises SingularRatioError, as it does in the closed form.
    """
    scale = _input_free_scale(block)
    if scale is None:
        _, _, wit = block.witness(x)
        scale = _mean_ratio(wit)
    return scale


def _input_free_scale(block):
    """The effective scale of a one-level LN block, the separable mean of no
    inner levels; None for several levels, whose scale depends on the input."""
    c = block.construction
    if not c.uses_ln:
        raise ContractError(f"effective scale is undefined for {c.label()}")
    if c.levels > 1:
        return None
    _check_gains([p.gain.data for p in block.norms])
    return _separable_mean(block._shortcut_gain(), block._c, (), ())


@dataclass(frozen=True)
class ModelConfig:
    construction: SkipConstruction
    depth: int
    d_in: int
    width: int
    hidden: int
    classes: int

    def __post_init__(self):
        for name in ("depth", "width", "hidden", "d_in", "classes"):
            _check_count(getattr(self, name), name, 1)
        _check_doubles(_footprint(self), "the model")


class ResidualModel:
    """Input projection, the config's stack of equal blocks, output projection."""

    def __init__(self, in_w, in_b, blocks, out_w, out_b, config):
        self.in_w, self.in_b = in_w, in_b
        self.blocks = list(blocks)
        self.out_w, self.out_b = out_w, out_b
        self.config = config
        c, w, h = config.construction, config.width, config.hidden
        found = [(b.construction, b.width, b.branch.w1.data.shape, b.branch.w2.data.shape) for b in self.blocks]
        want = [(c, w, (w, h), (h, w))] * config.depth + [(config.d_in, w), (w, config.classes)]
        if found + [in_w.data.shape, out_w.data.shape] != want:
            raise ConfigError(f"the projections and {len(found)} blocks do not match the config {config}")

    def forward(self, x, block_outputs=None):
        """Project, run the blocks in order, project to logits.

        The optional list receives each block's output tensor so
        diagnostics can read their gradients after backward.
        """
        h = self.project_in(x)
        for block in self.blocks:
            h = block.forward(h)
            if block_outputs is not None:
                block_outputs.append(h)
        return add(matmul(h, self.out_w), self.out_b)

    __call__ = forward

    def project_in(self, x):
        """The input projection x @ in_w + in_b: the first block's input.

        ``x``, an array or a Tensor, is checked first by the batch rule of
        ``skipnorm.errors``: rows of d_in finite real numbers, an array
        converted to C-contiguous float64. A batch that would add more
        than MAX_DOUBLES to what the model holds raises ConfigError here,
        before any of it is allocated. On a tape that counts one step's
        forward, backward() and SGD step; without one, one block at a
        time (see ``_footprint``)."""
        if isinstance(x, Tensor):
            _check_batch(x.data, self.config.d_in)
        else:
            x = Tensor(_check_batch(x, self.config.d_in))
        rows = len(x.data)
        _check_doubles(_footprint(self.config, rows, _records((x, self.in_w, self.in_b))), "the forward of the batch")
        return add(matmul(x, self.in_w), self.in_b)

    def parameters(self):
        yield "in_proj.w", self.in_w, True
        yield "in_proj.b", self.in_b, True
        for i, block in enumerate(self.blocks):
            for name, p, decay in block.parameters():
                yield f"block{i}.{name}", p, decay
        yield "out_proj.w", self.out_w, True
        yield "out_proj.b", self.out_b, True

    def zero_grad(self):
        for _, p, _ in self.parameters():
            p.zero_grad()

    def set_norm_mode(self, mode):
        """Switch every batch-norm instance between training/inference;
        any other mode raises ContractError before a norm is touched."""
        if mode not in _MODES:
            raise ContractError(f"unknown batch_norm mode {mode!r}")
        for block in self.blocks:
            for p in block.norms:
                if isinstance(p, BatchNormParams):
                    p.mode = mode

    def param_count(self):
        return sum(p.data.size for _, p, _ in self.parameters())


def build_block(construction, width, hidden, rng):
    """One freshly initialized block, sized before any draw as a model of
    it alone: branch draws from rng, gains and w_skip start at 1, biases 0."""
    ModelConfig(construction, 1, 1, width, hidden, 1)
    branch = AffineReluBranch.init(width, hidden, rng)
    w_skip = None
    if construction._lowered.a == "w":
        w_skip = Tensor(np.ones(width), requires_grad=True)
    norms = [_NORM_PARAMS[construction._lowered.norm].create(width) for _ in range(construction.levels)]
    return ResidualBlock(construction, branch, norms, w_skip, width=width)


def build_model(cfg, seed):
    """Deterministically initialize a model from a config and a seed.

    Identical (cfg, seed) pairs produce bit-identical parameters. Norm
    creation consumes no random draws, so constructions differing only
    in their normalization share branch initializations under one seed.
    """
    _check_count(seed, "seed")
    rng = np.random.default_rng(seed)
    c = cfg.construction
    in_w = Tensor(rng.normal(0.0, np.sqrt(1.0 / cfg.d_in), (cfg.d_in, cfg.width)), requires_grad=True)
    in_b = Tensor(np.zeros(cfg.width), requires_grad=True)
    blocks = [build_block(c, cfg.width, cfg.hidden, rng) for _ in range(cfg.depth)]
    out_w = Tensor(rng.normal(0.0, np.sqrt(1.0 / cfg.width), (cfg.width, cfg.classes)), requires_grad=True)
    out_b = Tensor(np.zeros(cfg.classes), requires_grad=True)
    return ResidualModel(in_w, in_b, blocks, out_w, out_b, config=cfg)


# checkpoint layout (version 3, the only one read): magic, version,
# construction, geometry, parameter count, then every parameter in
# declaration order as little-endian doubles, then the running mean and
# variance of every batch norm, block by block and level by level, then
# each one's mode, as its index in _MODES.
_MAGIC = b"SKNM"
_VERSION = 3
_MODES = ("training", "inference")
_KIND_CODES = {k: i for i, k in enumerate(SkipKind)}
_CODE_KINDS = {i: k for k, i in _KIND_CODES.items()}
_HEADER = struct.Struct("<4sII d d IIIII Q")


def _param_count(cfg):
    """Doubles in the parameters of a model of this geometry: the two
    projections, and per block the branch, the norms and w_skip."""
    c, w, h = cfg.construction, cfg.width, cfg.hidden
    per_block = 2 * w * h + h + w + 2 * w * c.levels + (w if c._lowered.a == "w" else 0)
    return cfg.d_in * w + w + cfg.depth * per_block + w * cfg.classes + cfg.classes


def _layout(cfg):
    """The shape of every array ``_read_model`` builds for a model of this
    geometry: its parameters in declaration order, then the running mean
    and variance of each batch norm."""
    c, w, h = cfg.construction, cfg.width, cfg.hidden
    block = [(w, h), (h,), (h, w), (w,)] + [(w,)] * (2 * c.levels + (c._lowered.a == "w"))
    stats = [(w,)] * (2 * cfg.depth * c.levels if c.uses_bn else 0)
    return [(cfg.d_in, w), (w,)] + block * cfg.depth + [(w, cfg.classes), (cfg.classes,)] + stats


def _stats_count(cfg):
    """Doubles of batch-norm state a checkpoint carries: the running
    statistics and one mode per norm."""
    c = cfg.construction
    return cfg.depth * c.levels * (2 * cfg.width + 1) if c.uses_bn else 0


# on Python 3.11 a block's objects take 1.3 kB at width 1, a norm level's
# 0.6 (LN) to 0.8 (BN) kB and 1.1 kB more on a tape; each is charged 2 kB,
# so that 4e5 levels at width 1, or 1e6 blocks, are refused
_OBJECT_DOUBLES = 256


def _footprint(cfg, rows=0, recorded=False):
    """Doubles a model of this geometry holds, or with ``rows`` the most a
    forward of that many rows adds to it, counting the Python objects.

    The model: its parameters, batch-norm state and objects. A forward
    holds one block's arrays at a time: the batch and logits, the branch's
    temporaries (up to three of rows x hidden at once), six of rows x width
    and a norm level's statistics. A tape adds, per block, the hidden
    activation, each level's standardized input and sigma, the output (and
    PLAIN's sum) and two gradients; the projections and their gradients;
    one gradient per parameter, the widest twice at once (it and an SGD
    step's decayed copy); and the objects again."""
    c, w, h, levels = cfg.construction, cfg.width, cfg.hidden, cfg.construction.levels
    objects = _OBJECT_DOUBLES * (1 + cfg.depth * (1 + levels))
    if not rows:
        return _param_count(cfg) + _stats_count(cfg) + objects
    held = rows * (cfg.d_in + 3 * h + 6 * w + 4 * cfg.classes) + 5 * (rows + w)
    if not recorded:
        return held
    block = rows * (h + (max(levels, 1) + 3) * w) + levels * (rows if c.uses_ln else w)
    tape = rows * (cfg.d_in + 4 * w + 4 * cfg.classes) + cfg.depth * block + _param_count(cfg)
    return held + tape + 2 * w * max(h, cfg.d_in, cfg.classes) + 2 * objects


def save_model(model, path):
    """Write a model checkpoint as a flat little-endian binary file.

    A model whose arrays are not shaped as its config builds them, say
    after one was replaced, raises ContractError before the file is
    opened: its checkpoint would load as another model, or not at all."""
    cfg = model.config
    arrays = [p.data for _, p, _ in model.parameters()]
    bns = [p for block in model.blocks for p in block.norms if isinstance(p, BatchNormParams)]
    for p in bns:
        if p.mode not in _MODES:
            raise ContractError(f"unknown batch_norm mode {p.mode!r}")
        arrays += [p.running_mean, p.running_var]
    if [a.shape for a in arrays] != _layout(cfg):
        raise ContractError(f"the model's arrays are not shaped as its config {cfg} builds them")
    if bns:
        arrays.append(np.array([_MODES.index(p.mode) for p in bns], dtype=float))
    header = _HEADER.pack(
        _MAGIC,
        _VERSION,
        _KIND_CODES[cfg.construction.kind],
        cfg.construction.lam,
        cfg.construction.residual_scale,
        cfg.depth,
        cfg.d_in,
        cfg.width,
        cfg.hidden,
        cfg.classes,
        _param_count(cfg),
    )
    payload = [np.ascontiguousarray(a, dtype="<f8") for a in arrays]
    fd = _open_regular(path, os.O_WRONLY | os.O_CREAT)
    try:
        # overwrite in place, header last: a save cut short reads back as
        # a bad magic, never as a mix of two models
        os.pwrite(fd, bytes(4), 0)
        if not _vectored(os.pwritev, fd, payload, _HEADER.size):
            raise OSError(f"{path}: a write made no progress")
        os.ftruncate(fd, _HEADER.size + sum(a.nbytes for a in payload))
        os.pwrite(fd, header, 0)
    finally:
        os.close(fd)


def load_model(path):
    """Rebuild a model from a checkpoint; returns (model, config).

    The header is validated, and checked against the file length, before
    the payload is read or anything is allocated; the payload is then
    read straight into the arrays, with no copy of the whole of it.
    """
    with open(_open_regular(path, os.O_RDONLY), "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise FormatError(f"{path}: truncated header")
        cfg = _read_header(path, head)
        expected = _HEADER.size + 8 * (_param_count(cfg) + _stats_count(cfg))
        if size != expected:
            raise FormatError(f"{path}: expected {expected} bytes, found {size}")
        return _read_model(cfg, fh, path), cfg


def _read_header(path, head):
    """The model config a valid checkpoint header declares."""
    magic, version, kind_code, lam, residual_scale, depth, d_in, width, hidden, classes, count = (
        _HEADER.unpack(head)
    )
    if magic != _MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != _VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if kind_code not in _CODE_KINDS:
        raise FormatError(f"{path}: unknown construction code {kind_code}")
    try:
        construction = SkipConstruction(_CODE_KINDS[kind_code], lam, residual_scale)
        cfg = ModelConfig(construction, depth, d_in, width, hidden, classes)
    except ConfigError as exc:
        raise FormatError(f"{path}: invalid header: {exc}") from exc
    if count != _param_count(cfg):
        raise FormatError(f"{path}: header declares {count} doubles, its geometry needs {_param_count(cfg)}")
    return cfg


def _read_model(cfg, fh, path):
    """Assemble a model of a validated geometry from the payload of an
    open checkpoint file: every array is allocated as the model is
    assembled, then all of them are filled with one vectored read."""
    sections = [[], []]  # parameters, then batch-norm statistics

    def take(section, *shape):
        values = np.empty(shape)
        sections[section].append(values)
        return values

    def param(*shape):
        return Tensor(take(0, *shape), requires_grad=True)

    c, w, h = cfg.construction, cfg.width, cfg.hidden
    in_w, in_b = param(cfg.d_in, w), param(w)
    blocks = []
    for _ in range(cfg.depth):
        branch = AffineReluBranch(param(w, h), param(h), param(h, w), param(w))
        if c.uses_bn:
            norms = [BatchNormParams(param(w), param(w), take(1, w), take(1, w)) for _ in range(c.levels)]
        else:
            norms = [LayerNormParams(param(w), param(w)) for _ in range(c.levels)]
        w_skip = param(w) if c._lowered.a == "w" else None
        blocks.append(ResidualBlock(c, branch, norms, w_skip, width=w))
    out_w, out_b = param(w, cfg.classes), param(cfg.classes)
    bns = [p for block in blocks for p in block.norms] if c.uses_bn else []
    modes = take(1, len(bns)) if bns else ()
    arrays = sections[0] + sections[1]
    if not _vectored(os.preadv, fh.fileno(), arrays, _HEADER.size):
        raise FormatError(f"{path}: the file ended before its payload did")
    if sys.byteorder == "big":  # the payload is little-endian
        for a in arrays:
            a.byteswap(inplace=True)
    for p, code in zip(bns, modes):
        if code not in (0.0, 1.0):
            raise FormatError(f"{path}: batch-norm mode {code} is neither 0 (training) nor 1 (inference)")
        p.mode = _MODES[int(code)]
    return ResidualModel(in_w, in_b, blocks, out_w, out_b, config=cfg)


def _vectored(io, fd, buffers, offset):
    """Move ``buffers`` to or from ``fd`` from ``offset`` on with
    ``os.pwritev`` or ``os.preadv``, at most IOV_MAX buffers a call,
    resuming after a partial transfer. False if a call moved nothing."""
    buffers, first, most = list(buffers), 0, os.sysconf("SC_IOV_MAX")
    while first < len(buffers):
        chunk = buffers[first:first + most]
        moved = io(fd, chunk, offset)
        if not moved:
            return False
        offset += moved
        for b in chunk:
            if moved < b.nbytes:  # stopped inside this buffer: resume there
                buffers[first] = memoryview(b).cast("B")[moved:]
                break
            moved -= b.nbytes
            first += 1
    return True
