"""The one batch rule: every array a caller passes is checked once, by
``errors._check_batch``, before any work, and a refused call leaves the
model as it found it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skipnorm import (
    BatchNormParams,
    ContractError,
    Dataset,
    DimensionError,
    ModelConfig,
    SkipConstruction,
    Tensor,
    TrainConfig,
    build_model,
    effective_scale_sweep,
    evaluate_error,
    evaluate_loss,
    gradient_norm_sweep,
    run_matrix,
    softmax_cross_entropy,
    train,
)

ROWS, D_IN, CLASSES = 4, 2, 3
RNG = np.random.default_rng(0)
X = RNG.normal(size=(ROWS, D_IN))
Y = np.array([0, 1, 2, 0])
TINY = TrainConfig(SkipConstruction.parse("plain"), depth=1, width=4, hidden=4, epochs=1, batch_size=2, lr=0.05)


def with_entry(a, index, value):
    a = a.copy()
    a[index] = value
    return a


# each fault: (the inputs, the labels, the one error it raises)
INPUT_FAULTS = {
    "nan": (with_entry(X, (1, 0), np.nan), Y, ContractError),
    "inf": (with_entry(X, (2, 1), -np.inf), Y, ContractError),
    "complex": (X + 1j, Y, ContractError),
    "str": (X.astype(str), Y, ContractError),
    "object": (X.astype(object), Y, ContractError),
    "ragged": ([[1.0, 2.0], [3.0]] * 2, Y, ContractError),
    "0-d": (np.float64(1.0), Y, DimensionError),
    "3-d": (X[None], Y, DimensionError),
    "wrong-width": (np.ones((ROWS, D_IN + 1)), Y, DimensionError),
}
LABEL_FAULTS = {
    "wrong-label-count": (X, Y[:-1], DimensionError),
    "float-labels": (X, Y.astype(float), ContractError),
    "0-d-labels": (X, np.int64(1), DimensionError),
    "out-of-range-labels": (X, with_entry(Y, 3, CLASSES), IndexError),
}


def model_of(token):
    """A model with state to disturb: moved norm parameters, batch norms
    in training mode with moved running statistics, and every parameter
    holding a gradient, one of them frozen."""
    model = build_model(ModelConfig(SkipConstruction.parse(token), 2, D_IN, 4, 4, CLASSES), seed=0)
    rng = np.random.default_rng(1)
    for block in model.blocks:
        for p in block.norms:
            p.gain.data = rng.uniform(0.5, 1.5, size=p.dim)
            if isinstance(p, BatchNormParams):
                p.running_mean, p.running_var = rng.normal(size=p.dim), rng.uniform(0.5, 2.0, size=p.dim)
    softmax_cross_entropy(model.forward(X), Y).backward()
    model.blocks[0].branch.b1.requires_grad = False
    return model


def state(model):
    """Every parameter's values, gradient and flag, and every batch norm's
    running statistics and mode, as bytes."""
    params = [(name, p.data.tobytes(), None if p.grad is None else p.grad.tobytes(), p.requires_grad)
              for name, p, _ in model.parameters()]
    norms = [(p.running_mean.tobytes(), p.running_var.tobytes(), p.mode)
             for block in model.blocks for p in block.norms if isinstance(p, BatchNormParams)]
    return params, norms


# every public entry point that takes arrays: (the model it runs on, the
# call, whether it takes labels, "only" for labels alone); a sweep's bad
# batch comes after a good one, train's is its train set, run_matrix's its test set
ENTRY_POINTS = {
    "forward": ("2rskip-bn", lambda model, x, y: model.forward(x), False),
    # a caller's Tensor: its dtype is refused when it is made, the rest by the forward
    "forward-tensor": ("2rskip-bn", lambda model, x, y: model.forward(Tensor(x)), False),
    "evaluate_loss": ("2rskip-bn", evaluate_loss, True),
    "evaluate_error": ("2rskip-bn", evaluate_error, True),
    "gradient_norm_sweep": ("2rskip-bn", lambda model, x, y: gradient_norm_sweep(model, [(X, Y), (x, y)]), True),
    "effective_scale_sweep": ("2rskip-ln", lambda model, x, y: effective_scale_sweep(model, [X, x]), False),
    "softmax_cross_entropy": (
        "plain", lambda model, x, y: softmax_cross_entropy(Tensor(np.zeros((ROWS, CLASSES)), True), y), "only"),
    "train": ("plain", lambda model, x, y: train(TINY, Dataset(CLASSES, x, y, X, Y)), True),
    "run_matrix": (
        "plain", lambda model, x, y: run_matrix([TINY.construction], [0], TINY, Dataset(CLASSES, X, Y, x, y)), True),
}
CASES = [
    (entry, fault)
    for entry, (_, _, labels) in ENTRY_POINTS.items()
    for fault in ({} if labels == "only" else INPUT_FAULTS) | (LABEL_FAULTS if labels else {})
]


@pytest.mark.filterwarnings("error")  # no ComplexWarning or RuntimeWarning either
@pytest.mark.parametrize("entry, fault", CASES, ids=[f"{e}-{f}" for e, f in CASES])
def test_each_fault_raises_its_one_error_and_leaves_the_model_as_it_was(entry, fault):
    token, call, _ = ENTRY_POINTS[entry]
    x, y, error = {**INPUT_FAULTS, **LABEL_FAULTS}[fault]
    model = model_of(token)
    before = state(model)
    with pytest.raises(error) as raised:
        call(model, x, y)
    assert raised.type is error
    assert state(model) == before


def test_a_fault_gives_one_message_at_every_entry_point():
    model = model_of("2rskip-bn")
    messages = set()
    for call in (model.forward, lambda x: evaluate_loss(model, x, Y),
                 lambda x: gradient_norm_sweep(model, [(x, Y)]), lambda x: Dataset(CLASSES, x, Y, X, Y)):
        with pytest.raises(ContractError) as raised:
            call(X + 1j)
        messages.add(str(raised.value))
    assert messages == {"inputs must be real numbers (bool, integer or float), got dtype complex128"}


LAYOUTS = {
    "contiguous": lambda a: a,
    "every-other-row": lambda a: np.repeat(a, 2, axis=0)[::2],
    "fortran": np.asfortranarray,
    "every-other-column": lambda a: np.repeat(a, 2, axis=1)[:, ::2],
}
DTYPES = {
    "float32": st.floats(-1e3, 1e3, width=32),
    "float64": st.floats(-1e3, 1e3),
    "int8": st.integers(-128, 127),
    "int64": st.integers(-(2**40), 2**40),
    "uint8": st.integers(0, 255),
    "bool": st.booleans(),
}
LN_MODEL = build_model(ModelConfig(SkipConstruction.parse("2rskip-ln"), 2, D_IN, 4, 4, CLASSES), seed=3)


@st.composite
def accepted_inputs(draw):
    dtype = draw(st.sampled_from(sorted(DTYPES)))
    rows = draw(st.integers(1, 5))
    values = draw(st.lists(DTYPES[dtype], min_size=rows * D_IN, max_size=rows * D_IN))
    a = np.array(values, dtype=dtype).reshape(rows, D_IN)
    return LAYOUTS[draw(st.sampled_from(sorted(LAYOUTS)))](a)


@settings(max_examples=60, deadline=None)
@given(x=accepted_inputs(), seed=st.integers(0, 2**16))
def test_an_accepted_array_acts_as_its_float64_contiguous_conversion(x, seed):
    """The rule converts and never alters: logits and both sweep reports
    are bit-identical to those of the array's float64 C-contiguous copy."""
    reference = np.ascontiguousarray(x, dtype=np.float64)
    labels = np.random.default_rng(seed).integers(0, CLASSES, size=len(x))

    def outputs(a):
        logits = LN_MODEL.forward(a).data
        grads = gradient_norm_sweep(LN_MODEL, [(a, labels)])
        scales = effective_scale_sweep(LN_MODEL, [a])
        return logits.tobytes(), np.array(grads.block_norms).tobytes(), np.array(scales.per_block).tobytes()

    assert outputs(x) == outputs(reference)
