"""The one size rule, ``blocks._footprint``, held to what the code allocates.

tracemalloc sees every numpy buffer and every Python object. What building
a model allocates, and what one recorded forward, ``backward()`` and
``sgd_step`` of a batch add to it, must stay within 8 bytes a charged double
plus a small constant, so that no check lets through more than it counts;
and above a fixed fraction of the charge, so that the rule cannot drift to
refusing ordinary runs. A forward without a tape, as evaluation runs, is
held to its own charge from above.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skipnorm import ModelConfig, SkipConstruction, Tensor, build_model, no_grad, softmax_cross_entropy
from skipnorm.blocks import _footprint
from skipnorm.diagnostics import _BATTERY_PRESETS
from skipnorm.training import sgd_step

SLACK = 16 * 1024  # bytes the interpreter may allocate beside what is charged
FLOOR = 0.25  # the least share of the charge that is allocated


def within(allocated, charged):
    """Whether ``allocated`` bytes are at most the ``charged`` doubles plus SLACK."""
    return allocated <= 8 * charged + SLACK


def allocations(cfg, mode, rows):
    """Bytes tracemalloc sees building a model of ``cfg`` in ``mode``, one
    forward of ``rows`` rows without a tape, and one recorded forward,
    ``backward()`` and ``sgd_step``; each beyond what was held before."""
    rng = np.random.default_rng(0)
    x, labels = rng.normal(size=(rows, cfg.d_in)), rng.integers(0, cfg.classes, rows)
    tracemalloc.start()
    try:
        model = build_model(cfg, 0)
        model.set_norm_mode(mode)
        built = tracemalloc.get_traced_memory()[0]
        params = list(model.parameters())
        velocity = [np.zeros_like(p.data) for _, p, _ in params]

        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        with no_grad():
            model.forward(Tensor(x))
        evaluated = tracemalloc.get_traced_memory()[1] - base

        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        softmax_cross_entropy(model.forward(Tensor(x)), labels).backward()
        sgd_step(params, velocity, 0.01)
        stepped = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return built, evaluated, stepped


def check(cfg, mode, rows):
    built, evaluated, stepped = allocations(cfg, mode, rows)
    model_charge, step_charge = _footprint(cfg), _footprint(cfg, rows, recorded=True)
    assert FLOOR * 8 * model_charge <= built and within(built, model_charge)
    assert FLOOR * 8 * step_charge <= stepped and within(stepped, step_charge)
    assert within(evaluated, _footprint(cfg, rows))


@pytest.mark.parametrize("mode", ["training", "inference"])
@pytest.mark.parametrize("token", _BATTERY_PRESETS)
@settings(max_examples=6, deadline=None)
@given(
    depth=st.integers(1, 4),
    d_in=st.integers(1, 8),
    width=st.integers(1, 48),
    hidden=st.integers(1, 48),
    classes=st.integers(1, 5),
    rows=st.integers(2, 64),
)
def test_a_model_and_a_training_step_allocate_what_they_are_charged(token, mode, depth, d_in, width, hidden,
                                                                    classes, rows):
    check(ModelConfig(SkipConstruction.parse(token), depth, d_in, width, hidden, classes), mode, rows)


# at width 1 a deep model is almost all Python objects, and over 64 to 256
# blocks a shortfall of the per-object charge of 64 to 256 bytes would
# outgrow SLACK
@pytest.mark.parametrize("token", ["plain", "xskip", "wskip-ln", "4rskip-ln", "2rskip-bn"])
@settings(max_examples=2, deadline=None)
@given(depth=st.integers(64, 256), rows=st.integers(2, 4))
def test_the_objects_of_a_deep_narrow_model_are_charged(token, depth, rows):
    check(ModelConfig(SkipConstruction.parse(token), depth, 1, 1, 1, 1), "training", rows)
