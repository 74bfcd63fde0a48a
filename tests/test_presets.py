"""The preset vocabulary: every SkipKind's names, shape, checkpoint code
and decomposition witness.

These values are what result tables, CSVs and checkpoints carry, so they
are pinned literally rather than derived.
"""

import struct

import numpy as np
import pytest

from skipnorm import (
    ContractError,
    DimensionError,
    ModelConfig,
    SkipConstruction,
    SkipKind,
    Tensor,
    build_block,
    build_model,
    ratio_general,
    save_model,
    unroll_decompose,
)

K = SkipKind

# (cli token, construction, label, arch, norm label, levels,
#  uses_lambda, uses_ln, uses_bn, parameters of a width-6 hidden-5 block)
PRESETS = [
    ("plain", SkipConstruction(K.PLAIN), "plain", "x+F", "-", 0, False, False, False, 71),
    ("0.5xskip", SkipConstruction(K.XSKIP, lam=0.5), "0.5xSkip", "0.5x+F", "-", 0, True, False, False, 71),
    ("1xskip", SkipConstruction(K.XSKIP, lam=1.0), "1xSkip", "1x+F", "-", 0, True, False, False, 71),
    ("2xskip", SkipConstruction(K.XSKIP, lam=2.0), "2xSkip", "2x+F", "-", 0, True, False, False, 71),
    ("0.5xskip-ln", SkipConstruction(K.XSKIP_LN, lam=0.5), "0.5xSkip+LN", "LN(0.5x+F)", "LN", 1, True, True, False, 83),
    ("2xskip-ln", SkipConstruction(K.XSKIP_LN, lam=2.0), "2xSkip+LN", "LN(2x+F)", "LN", 1, True, True, False, 83),
    ("1rskip-ln", SkipConstruction(K.RSKIP_LN, lam=1), "1rSkip+LN", "LN(x+F)", "LN", 1, True, True, False, 83),
    ("3rskip-ln", SkipConstruction(K.RSKIP_LN, lam=3), "3rSkip+LN", "LN(x+LN(x+LN(x+F)))", "LN", 3, True, True, False, 107),
    ("wskip-ln", SkipConstruction(K.WSKIP_LN), "wSkip+LN", "LN(w.x+F)", "LN", 1, False, True, False, 89),
    ("2xskip-bn", SkipConstruction(K.XSKIP_BN, lam=2.0), "2xSkip+BN", "BN(2x+F)", "BN", 1, True, False, True, 83),
    ("1rskip-bn", SkipConstruction(K.RSKIP_BN, lam=1), "1rSkip+BN", "BN(x+F)", "BN", 1, True, False, True, 83),
    ("3rskip-bn", SkipConstruction(K.RSKIP_BN, lam=3), "3rSkip+BN", "BN(x+BN(x+BN(x+F)))", "BN", 3, True, False, True, 107),
    ("contracted-f-ln:1", SkipConstruction(K.CONTRACTED_F_LN, residual_scale=1.0),
     "LN(x+1F)", "LN(x+1*F)", "LN", 1, False, True, False, 83),
    ("contracted-f-ln:3", SkipConstruction(K.CONTRACTED_F_LN, residual_scale=3.0),
     "LN(x+3F)", "LN(x+3*F)", "LN", 1, False, True, False, 83),
]


@pytest.mark.parametrize("preset", PRESETS, ids=[p[0] for p in PRESETS])
def test_names_and_shape(preset):
    token, con, label, arch, norm_label, levels, uses_lambda, uses_ln, uses_bn, _ = preset
    assert con.label() == label
    assert con.arch() == arch
    assert con.norm_label() == norm_label
    assert con.levels == levels
    assert (con.uses_lambda, con.uses_ln, con.uses_bn) == (uses_lambda, uses_ln, uses_bn)
    assert SkipConstruction.parse(token) == con


@pytest.mark.parametrize("preset", PRESETS, ids=[p[0] for p in PRESETS])
def test_block_parameter_count(preset):
    con, count = preset[1], preset[-1]
    block = build_block(con, width=6, hidden=5, rng=np.random.default_rng(0))
    assert sum(p.data.size for _, p, _ in block.parameters()) == count


@pytest.mark.parametrize("preset", PRESETS, ids=[p[0] for p in PRESETS])
def test_checkpoint_kind_code_is_the_enum_position(preset, tmp_path):
    con = preset[1]
    path = tmp_path / "model.bin"
    save_model(build_model(ModelConfig(con, depth=1, d_in=2, width=3, hidden=2, classes=2), seed=0), path)
    (code,) = struct.unpack("<I", path.read_bytes()[8:12])
    assert code == list(SkipKind).index(con.kind)


def test_kind_codes_are_pinned():
    # the enum order is the checkpoint's kind code: reordering it would
    # silently misread every saved model
    assert [k.value for k in SkipKind] == [
        "plain", "xskip", "xskip-ln", "rskip-ln", "wskip-ln", "xskip-bn", "rskip-bn", "contracted-f-ln",
    ]


# (token, w_skip value) of every preset, at the starting value w = 1, plus
# the recursion depths and the skip gain the presets leave out; every LN
# block has a witness, whatever its a and c, and every other block refuses
WITNESS_CASES = [(p[0], 1.0) for p in PRESETS] + [
    ("1xskip-ln", 1.0), ("2rskip-ln", 1.0), ("4rskip-ln", 1.0), ("wskip-ln", 1.7),
]


@pytest.mark.parametrize("token, w", WITNESS_CASES, ids=[t if w == 1 else f"{t}-w{w}" for t, w in WITNESS_CASES])
def test_witness_reconstructs_its_block_or_refuses(token, w):
    rng = np.random.default_rng(8)
    block = build_block(SkipConstruction.parse(token), width=8, hidden=6, rng=rng)
    if block.w_skip is not None:
        block.w_skip.data[...] = w
    for p in block.norms:
        p.gain.data = rng.uniform(0.3, 1.7, size=8)
        p.bias.data = 0.5 * rng.normal(size=8)
    x = Tensor(rng.normal(size=(4, 8)))
    if not block.construction.uses_ln:
        calls = []
        branch = block.branch
        block.branch = lambda v: calls.append(v) or branch(v)
        with pytest.raises(ContractError, match="describes LN blocks"):
            block.witness(x)
        assert calls == []  # refused before any forward
        return
    y, f, witness = block.witness(x)
    assert y.data.tobytes() == block.forward(x).data.tobytes()
    con = block.construction
    if block.w_skip is None:  # lambda is the shortcut gain of one-level kinds, the depth of rSkip+LN
        assert (witness.a, witness.c) == (con.lam if con.levels == 1 else 1.0, con.residual_scale)
    else:
        assert witness.a is not block.w_skip.data and np.array_equal(witness.a, block.w_skip.data)
    coef_x, coef_f, const = unroll_decompose(witness, x.data, f.data)
    assert np.abs(coef_x * x.data + coef_f * f.data + const - y.data).max() <= 1e-10
    np.testing.assert_allclose(ratio_general(witness), coef_x / coef_f, rtol=1e-12)
    with pytest.raises(DimensionError):
        block.witness(Tensor(np.zeros((4, 7))))
