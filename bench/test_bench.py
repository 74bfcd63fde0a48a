"""Tests of the benchmark itself. Run from the repository root with
``python3 -m pytest bench``; they take about a minute."""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 3
COUNT_UNITS = ("count", "B")


@pytest.fixture(scope="module")
def train_runs():
    return {
        "untraced": run.run("train", SEED, 0.5, 0),
        "traced": run.run("train", SEED, 0.5, 1),
        "traced_again": run.run("train", SEED, 0.5, 1),
    }


@pytest.fixture(scope="module")
def gradcheck_runs():
    return {"untraced": run.run("gradcheck", SEED, 0.5, 0), "traced": run.run("gradcheck", SEED, 0.5, 1)}


def _exact(report):
    metrics = report["result"]["metrics"]
    return {k: v["value"] for k, v in metrics.items() if v["unit"] in COUNT_UNITS}


def test_benchmark_json_lists_what_the_harness_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tracing_leaves_train_csv_and_counts_unchanged(train_runs):
    untraced, traced = train_runs["untraced"], train_runs["traced"]
    assert untraced["environment"]["train_csv_sha256"] == traced["environment"]["train_csv_sha256"]
    assert untraced["counts"] == traced["counts"]
    layer = traced["result"]["metrics"]
    assert layer["training.sgd_step.calls"]["value"] == untraced["counts"]["main_items"]
    assert layer["blocks.checkpoint_bytes"]["value"] == untraced["counts"]["blocks.checkpoint_bytes"]
    assert set(untraced["result"]["metrics"]) == {name for name, _ in run.END_TO_END}
    assert set(layer) == {name for name, _, _ in run.PER_LAYER}


def test_tracing_leaves_gradcheck_outputs_and_counts_unchanged(gradcheck_runs):
    untraced, traced = gradcheck_runs["untraced"], gradcheck_runs["traced"]
    assert untraced["environment"]["output_sha256"] == traced["environment"]["output_sha256"]
    assert untraced["counts"] == traced["counts"]
    layer = traced["result"]["metrics"]
    assert layer["diagnostics.gradcheck.evals"]["value"] == untraced["counts"]["main_items"]
    assert untraced["result"]["correct"] and traced["result"]["correct"]


def test_exact_counts_repeat_across_runs(train_runs):
    first, again = _exact(train_runs["traced"]), _exact(train_runs["traced_again"])
    assert first == again
    assert first["tensor.nodes_per_step"] > 0 and first["training.sgd_step.calls"] > 0


def test_no_wrapper_left_after_traced_run(train_runs, gradcheck_runs):
    assert tracer.installed_wrappers() == []
    for module, path in tracer.TARGETS.values():
        assert not hasattr(tracer._resolve(module, path), "__bench_wrapped__")


def test_only_the_known_checkpoint_defect_fails(train_runs):
    # checkpoints drop batch-norm running statistics, so the 2rSkip+BN
    # inference-logits check may fail; it is made, any failure of it is
    # counted as that known defect, and nothing else fails
    name = "checkpoint 2rSkip+BN: inference logits"
    for report in train_runs.values():
        checks = report["checks"]
        assert checks.attempts[name] > 0
        assert set(checks.known) <= {f"{name} -- {workloads.BN_STATS_DEFECT}"}
        assert not checks.failed
        assert report["result"]["correct"] and report["result"]["failed"] == 0


def test_other_checkpoint_damage_is_not_taken_for_the_known_defect():
    from skipnorm import blocks, training

    cell = workloads.Train(SEED, "unused")
    cfg = replace(cell.configs[-1], epochs=1)
    _, model = training.train(cfg, cell.data)
    x = cell.data.x_test
    expected = workloads._inference_logits(model, x)
    loaded = blocks.build_model(model.config, seed=0)
    for (_, dst, _), (_, src, _) in zip(loaded.parameters(), model.parameters()):
        dst.data = src.data.copy()
    assert workloads._only_bn_stats_lost(model, loaded, x, expected)
    loaded = blocks.build_model(model.config, seed=0)  # parameters lost too
    assert not workloads._only_bn_stats_lost(model, loaded, x, expected)


def test_gradcheck_artefacts_are_told_from_a_wrong_gradient():
    from skipnorm import tensor

    checks = workloads.Checks()
    workloads.Gradcheck(16, "unused").run_pass(checks)  # block:1rSkip+LN fails at eps 1e-5
    assert not checks.failed and len(checks.notes) == 1
    a = tensor.Tensor(np.linspace(0.5, 1.5, 6).reshape(2, 3), requires_grad=True)
    # the tape treats the data-dependent factor as a constant
    f = lambda *_: tensor.tsum(tensor.scale(a, float(a.data.sum())))  # noqa: E731
    report = tensor.gradcheck(f, [a])
    assert not report.passed
    assert not workloads.finite_difference_artefact([(f, [a], report)])


def test_self_time_excludes_child_spans():
    from skipnorm import blocks, tensor

    block = blocks.build_block(blocks.SkipConstruction(blocks.SkipKind.PLAIN), 4, 3, np.random.default_rng(0))
    spans = tracer.Tracer(names=("blocks.block_forward", "tensor.add", "tensor.matmul", "tensor.relu"))
    with spans:
        block(tensor.Tensor(np.ones((2, 4))))  # reaches forward through the __call__ alias
    table, _, _ = spans.summary()
    calls = {name: row[0] for (_, name), row in table.items()}
    assert calls == {"blocks.block_forward": 1, "tensor.add": 3, "tensor.matmul": 2, "tensor.relu": 1}
    _, block_ms, block_self = table[0, "blocks.block_forward"]
    children = sum(row[1] for (_, name), row in table.items() if name != "blocks.block_forward")
    assert block_self == pytest.approx(block_ms - children, abs=1e-9)
    assert 0.0 < block_self < block_ms


def test_exits_nonzero_without_the_source_tree(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
