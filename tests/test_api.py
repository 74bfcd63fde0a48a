"""The public API: each module's ``__all__``, republished by the package.

The names are pinned literally, so adding or dropping a public name is a
visible change to this file.
"""

import pytest

import skipnorm
from skipnorm import blocks, data, diagnostics, errors, normalization, ratio, tensor, training

MODULES = (blocks, data, diagnostics, errors, normalization, ratio, tensor, training)

PUBLIC = {
    blocks: ["AffineReluBranch", "ModelConfig", "ResidualBlock", "ResidualModel", "SkipConstruction", "SkipKind",
             "build_block", "build_model", "effective_scale", "load_model", "save_model"],
    data: ["Dataset", "DatasetSpec", "gen_synthetic", "load_cifar10"],
    diagnostics: ["GradReport", "ScaleReport", "amplification_probe", "decomposition_check",
                  "effective_scale_sweep", "gradcheck_battery", "gradient_norm_sweep"],
    errors: ["ConfigError", "ContractError", "DimensionError", "FormatError", "SingularRatioError"],
    normalization: ["BatchNormParams", "LayerNormParams", "batch_norm", "combine_norm", "layer_norm"],
    ratio: ["RatioWitness", "ratio_general", "unroll_decompose"],
    tensor: ["GradCheckReport", "Tensor", "add", "ewmul", "gradcheck", "matmul", "no_grad", "relu", "scale",
             "softmax_cross_entropy", "tsum"],
    training: ["RunResult", "TrainConfig", "csv_text", "curves_csv", "evaluate_error", "evaluate_loss",
               "matrix_csv", "read_csv_rows", "run_matrix", "sgd_step", "train", "write_manifest"],
}


def test_package_all_is_the_58_published_names():
    names = sorted(name for names in PUBLIC.values() for name in names)
    assert len(names) == len(set(names)) == 58
    assert sorted(skipnorm.__all__) == names


@pytest.mark.parametrize("module", MODULES, ids=[m.__name__ for m in MODULES])
def test_each_module_publishes_its_own_names(module):
    assert sorted(module.__all__) == PUBLIC[module]
    for name in module.__all__:
        obj = getattr(module, name)
        assert getattr(skipnorm, name) is obj
        assert obj.__module__ == module.__name__
