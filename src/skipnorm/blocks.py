"""Skip-connection constructions, residual blocks, and stacked models.

Every block computes some normalized combination of its input x and a
pluggable residual transform F(x) of equal width. The combination rule
is an algebraic :class:`SkipConstruction`; the default residual branch
is a two-layer affine+relu bottleneck, but any differentiable callable
of matching width works.
"""

import math
import os
import struct
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ContractError, DimensionError, FormatError, _check_seed
from .normalization import BatchNormParams, LayerNormParams, combine_norm
from .ratio import RatioWitness, ratio_general
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
            if not (math.isfinite(self.lam) and self.lam > 0):
                raise ConfigError(f"{self.kind.value} requires finite lambda > 0, got {self.lam}")
        elif row.levels == "lam":
            if self.lam < 1 or not float(self.lam).is_integer():
                raise ConfigError(f"{self.kind.value} requires integer lambda >= 1, got {self.lam}")
        elif self.lam != 1.0:
            raise ConfigError(f"{self.kind.value} does not use lambda; leave it at 1")
        if row.c == "c":
            if not (math.isfinite(self.residual_scale) and self.residual_scale > 0):
                raise ConfigError(f"residual_scale must be finite and positive, got {self.residual_scale}")
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
        if d < 1 or hidden < 1:
            raise ConfigError(f"branch widths must be >= 1, got d={d}, hidden={hidden}")
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
        record (under no_grad, or nothing requires grad) the ops' result
        is returned as it is."""
        w1, b1, w2, b2 = self.w1, self.b1, self.w2, self.b2
        parents = (x, w1, b1, w2, b2)
        with no_grad():
            hidden = relu(add(matmul(x, w1), b1))
            out = add(matmul(hidden, w2), b2)
        if not _records(parents):
            return out
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


class ResidualBlock:
    """One residual block: a construction, a branch, and its norms."""

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
        self._a = {"1": 1.0, "lam": construction.lam, "w": w_skip}[row.a]
        self._c = construction.residual_scale
        self._levels = self.norms or [None]
        self._sum = not row.norm and row.a == row.c == "1"

    def forward(self, x, stats_out=None, branch_out=None):
        """Apply the construction on the tape.

        ``stats_out``, if a list, receives one (mu, sigma) pair per
        layer-norm level, innermost first; ``branch_out`` receives the
        branch value F(x). Both feed the decomposition witness.
        """
        if x.data.ndim != 2 or x.data.shape[1] != self.width:
            raise DimensionError(f"block expects [batch, {self.width}] input, got {x.data.shape}")
        f = self.branch(x)
        if branch_out is not None:
            branch_out.append(f)
        if self._sum:
            return add(x, f)
        y = f
        for norm in self._levels:
            y = combine_norm(x, y, self._a, self._c, norm, stats_out)
        return y

    __call__ = forward

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

        Returns (y, f, witness) where f is the branch value. Only the
        LN-bearing kinds produce a witness; it covers all levels
        innermost-first.
        """
        if not self.construction.uses_ln:
            raise ContractError("witness capture requires a layer-normalized construction")
        stats, branch_vals = [], []
        y = self.forward(x, stats_out=stats, branch_out=branch_vals)
        wit = RatioWitness(
            sigmas=tuple(s for _, s in stats),
            mus=tuple(m for m, _ in stats),
            gains=tuple(p.gain.data.copy() for p in self.norms),
            biases=tuple(p.bias.data.copy() for p in self.norms),
        )
        return y, branch_vals[0], wit


def effective_scale(block, x):
    """Shortcut/residual coefficient ratio of one LN block on one input.

    With one level the ratio is mean(a)/c whatever the input: lambda for
    xSkip+LN, the mean skip gain for wSkip+LN, 1/c for LN(x+cF). With
    more levels it is the closed-form ratio evaluated on the captured
    witness, averaged over rows and features.
    """
    scale = _input_free_scale(block)
    if scale is None:
        if not isinstance(x, Tensor):
            x = Tensor(x)
        _, _, wit = block.witness(x)
        scale = float(ratio_general(wit).mean())
    return scale


def _input_free_scale(block):
    """The effective scale of a one-level LN block; None for a block of
    several levels, whose scale depends on the input."""
    c = block.construction
    if not c.uses_ln:
        raise ContractError(f"effective scale is undefined for {c.label()}")
    if c.levels > 1:
        return None
    a = block._a if block.w_skip is None else block.w_skip.data
    return float(np.mean(a)) / c.residual_scale


@dataclass(frozen=True)
class ModelConfig:
    construction: SkipConstruction
    depth: int
    d_in: int
    width: int
    hidden: int
    classes: int
    w_skip_init: float = 1.0

    def __post_init__(self):
        if self.depth < 1:
            raise ConfigError(f"depth must be >= 1, got {self.depth}")
        for name in ("d_in", "width", "hidden", "classes"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if not math.isfinite(self.w_skip_init):
            raise ConfigError(f"w_skip_init must be a finite number, got {self.w_skip_init}")


class ResidualModel:
    """Input projection, a stack of equal-width blocks, output projection."""

    def __init__(self, in_w, in_b, blocks, out_w, out_b, config=None):
        self.in_w, self.in_b = in_w, in_b
        self.blocks = list(blocks)
        self.out_w, self.out_b = out_w, out_b
        self.config = config

    def forward(self, x, block_inputs=None, block_outputs=None):
        """Project, run the blocks in order, project to logits.

        The optional lists receive each block's input/output tensor so
        diagnostics can read their gradients after backward.
        """
        h = self.project_in(x)
        for block in self.blocks:
            if block_inputs is not None:
                block_inputs.append(h)
            h = block.forward(h)
            if block_outputs is not None:
                block_outputs.append(h)
        return add(matmul(h, self.out_w), self.out_b)

    __call__ = forward

    def project_in(self, x):
        """The input projection x @ in_w + in_b: the first block's input."""
        if not isinstance(x, Tensor):
            x = Tensor(x)
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
        """Switch every batch-norm instance between training/inference."""
        for block in self.blocks:
            for p in block.norms:
                if isinstance(p, BatchNormParams):
                    p.mode = mode

    def zero_branches(self):
        """Force every residual branch to the zero map (probe utility)."""
        for block in self.blocks:
            block.branch.zero_()

    def param_count(self):
        return sum(p.data.size for _, p, _ in self.parameters())


def _make_norms(construction, width):
    return [_NORM_PARAMS[construction._lowered.norm].create(width) for _ in range(construction.levels)]


def build_block(construction, width, hidden, rng, w_skip_init=1.0):
    """One freshly initialized block: branch draws from rng, norm gains
    start at 1 and biases at 0, w_skip at the given constant."""
    branch = AffineReluBranch.init(width, hidden, rng)
    w_skip = None
    if construction._lowered.a == "w":
        w_skip = Tensor(np.full(width, float(w_skip_init)), requires_grad=True)
    return ResidualBlock(construction, branch, _make_norms(construction, width), w_skip, width=width)


def build_model(cfg, seed):
    """Deterministically initialize a model from a config and a seed.

    Identical (cfg, seed) pairs produce bit-identical parameters. Norm
    creation consumes no random draws, so constructions differing only
    in their normalization share branch initializations under one seed.
    """
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    c = cfg.construction
    in_w = Tensor(rng.normal(0.0, np.sqrt(1.0 / cfg.d_in), (cfg.d_in, cfg.width)), requires_grad=True)
    in_b = Tensor(np.zeros(cfg.width), requires_grad=True)
    blocks = [build_block(c, cfg.width, cfg.hidden, rng, cfg.w_skip_init) for _ in range(cfg.depth)]
    out_w = Tensor(rng.normal(0.0, np.sqrt(1.0 / cfg.width), (cfg.width, cfg.classes)), requires_grad=True)
    out_b = Tensor(np.zeros(cfg.classes), requires_grad=True)
    return ResidualModel(in_w, in_b, blocks, out_w, out_b, config=cfg)


# checkpoint layout: magic, version, construction, geometry, parameter
# count, then every parameter in declaration order as little-endian
# doubles. Version 2 appends the running mean and variance of every batch
# norm, block by block and level by level; version 1 files, which lack
# them, are read only for kinds without batch norm.
_MAGIC = b"SKNM"
_VERSION = 2
_KIND_CODES = {k: i for i, k in enumerate(SkipKind)}
_CODE_KINDS = {i: k for k, i in _KIND_CODES.items()}
_HEADER = struct.Struct("<4sII d d IIIII Q")


def _param_count(cfg):
    """Doubles in the parameters of a model of this geometry."""
    c, w, h = cfg.construction, cfg.width, cfg.hidden
    per_block = 2 * w * h + h + w + 2 * w * c.levels + (w if c._lowered.a == "w" else 0)
    return cfg.d_in * w + w + cfg.depth * per_block + w * cfg.classes + cfg.classes


def _stats_count(cfg):
    """Doubles of batch-norm running statistics a checkpoint carries."""
    return 2 * cfg.depth * cfg.construction.levels * cfg.width if cfg.construction.uses_bn else 0


def save_model(model, path):
    """Write a model checkpoint as a flat little-endian binary file."""
    cfg = model.config
    if cfg is None:
        raise ContractError("only models carrying a ModelConfig can be checkpointed")
    arrays = [p.data for _, p, _ in model.parameters()]
    for block in model.blocks:
        for p in block.norms:
            if isinstance(p, BatchNormParams):
                arrays += [p.running_mean, p.running_var]
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
        model.param_count(),
    )
    with open(path, "wb") as fh:
        fh.write(header)
        for a in arrays:  # one array at a time: no copy of the whole model
            fh.write(np.ascontiguousarray(a, dtype="<f8"))


def load_model(path):
    """Rebuild a model from a checkpoint; returns (model, config).

    The header is validated, and checked against the file length, before
    the payload is read or anything is allocated; each array is then
    read straight into its own buffer, with no copy of the whole payload.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise FormatError(f"{path}: truncated header")
        cfg = _read_header(path, head)
        expected = _HEADER.size + 8 * (_param_count(cfg) + _stats_count(cfg))
        size = os.fstat(fh.fileno()).st_size
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
    if version not in (1, _VERSION):
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
    if version < 2 and construction.uses_bn:
        raise FormatError(
            f"{path}: version {version} checkpoint of {construction.label()} lacks batch-norm running statistics"
        )
    return cfg


def _read_model(cfg, fh, path):
    """Assemble a model of a validated geometry from the payload of an
    open checkpoint file."""
    offsets = [_HEADER.size, _HEADER.size + 8 * _param_count(cfg)]  # parameters, then statistics

    def take(section, *shape):
        values = np.empty(shape, dtype="<f8")
        fh.seek(offsets[section])
        if fh.readinto(values) != values.nbytes:
            raise FormatError(f"{path}: the file ended before its payload did")
        offsets[section] += values.nbytes
        return values.astype(np.float64, copy=False)

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
    return ResidualModel(in_w, in_b, blocks, out_w, out_b, config=cfg)
