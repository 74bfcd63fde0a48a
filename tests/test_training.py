"""Trainer determinism, divergence handling, and result serialization."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from skipnorm import (
    AffineReluBranch,
    ConfigError,
    ContractError,
    Dataset,
    DatasetSpec,
    DimensionError,
    ModelConfig,
    SkipConstruction,
    SkipKind,
    TrainConfig,
    build_model,
    csv_text,
    curves_csv,
    evaluate_error,
    evaluate_loss,
    amplification_probe,
    decomposition_check,
    gen_synthetic,
    gradcheck_battery,
    load_cifar10,
    matrix_csv,
    read_csv_rows,
    run_matrix,
    sgd_step,
    train,
    write_manifest,
)
from skipnorm.blocks import _footprint, _param_count

PLAIN = SkipConstruction(SkipKind.PLAIN)
XSKIP2 = SkipConstruction(SkipKind.XSKIP, lam=2.0)
XSKIP_LN2 = SkipConstruction(SkipKind.XSKIP_LN, lam=2.0)


def tiny_cfg(construction, **overrides):
    base = dict(depth=2, width=8, hidden=8, epochs=3, batch_size=16, lr=0.05, seed=0)
    base.update(overrides)
    return TrainConfig(construction=construction, **base)


def tiny_data(seed=0, n=64):
    return gen_synthetic(DatasetSpec("spiral", classes=3, n_train=n, n_test=n, noise=0.2, seed=seed))


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            tiny_cfg(PLAIN, epochs=-1)
        with pytest.raises(ConfigError):
            tiny_cfg(PLAIN, batch_size=0)
        with pytest.raises(ConfigError):
            tiny_cfg(PLAIN, lr=0.0)

    @pytest.mark.parametrize("name", ["lr"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_numbers_rejected(self, name, value):
        with pytest.raises(ConfigError):
            tiny_cfg(PLAIN, **{name: value})

    def test_default_milestones_are_half_and_three_quarters(self):
        assert tiny_cfg(PLAIN, epochs=30).milestones() == (15, 22)
        assert tiny_cfg(PLAIN, epochs=1).milestones() == ()

    def test_lr_schedule_is_piecewise_decayed(self):
        cfg = tiny_cfg(PLAIN, epochs=30, lr=0.1)
        assert cfg.lr_at(0) == 0.1
        assert cfg.lr_at(15) == pytest.approx(0.01)
        assert cfg.lr_at(22) == pytest.approx(0.001)

    def test_as_dict_is_json_ready(self):
        d = tiny_cfg(XSKIP_LN2).as_dict()
        assert d["construction"]["kind"] == "xskip-ln"
        json.dumps(d)

    def test_as_dict_records_the_fixed_optimiser(self):
        d = tiny_cfg(PLAIN).as_dict()
        assert (d["lr_decay"], d["momentum"], d["weight_decay"]) == (0.1, 0.9, 2e-4)
        assert "lr_milestones" not in d


class TestSgdStep:
    def test_decay_applies_only_to_flagged_parameters(self):
        from skipnorm import Tensor

        decayed = Tensor(np.ones(4), requires_grad=True)
        frozen = Tensor(np.ones(4), requires_grad=True)
        params = [("w", decayed, True), ("gain", frozen, False)]
        for _, p, _ in params:
            p.grad = np.zeros(4)  # frozen-gradient probe isolates the decay term
        velocity = [np.zeros(4), np.zeros(4)]
        sgd_step(params, velocity, lr=0.5)  # weight decay 2e-4
        np.testing.assert_allclose(decayed.data, 1.0 - 0.5 * 2e-4 * 1.0)
        np.testing.assert_array_equal(frozen.data, np.ones(4))

    def test_momentum_accumulates_in_velocity(self):
        from skipnorm import Tensor

        p = Tensor(np.zeros(2), requires_grad=True)
        params = [("w", p, False)]
        velocity = [np.zeros(2)]
        p.grad = np.array([1.0, 2.0])
        sgd_step(params, velocity, lr=1.0)
        p.grad = np.array([1.0, 2.0])
        sgd_step(params, velocity, lr=1.0)  # momentum 0.9
        np.testing.assert_allclose(velocity[0], [1.9, 3.8])
        np.testing.assert_allclose(p.data, [-2.9, -5.8])


class TestTrain:
    def test_zero_epochs_leaves_the_untrained_error(self):
        data = tiny_data()
        result, model = train(tiny_cfg(PLAIN, epochs=0), data)
        assert result.train_loss == () and result.val_loss == ()
        assert result.error_rate == evaluate_error(model, data.x_test, data.y_test)
        # an untrained model on balanced classes sits near chance level
        assert abs(result.error_rate - (1 - 1 / 3)) < 0.25

    @pytest.mark.parametrize("construction", [XSKIP_LN2, SkipConstruction(SkipKind.RSKIP_BN, lam=2)])
    def test_last_epoch_figures_equal_the_public_evaluators(self, construction):
        data = tiny_data()
        result, model = train(tiny_cfg(construction), data)
        assert not result.diverged
        assert [name for name, p, _ in model.parameters() if p.grad is not None] == []
        assert result.val_loss[-1] == evaluate_loss(model, data.x_test, data.y_test)
        assert result.error_rate == evaluate_error(model, data.x_test, data.y_test)

    def test_same_config_is_bit_reproducible(self):
        data = tiny_data()
        a, _ = train(tiny_cfg(XSKIP_LN2), data)
        b, _ = train(tiny_cfg(XSKIP_LN2), data)
        assert a.train_loss == b.train_loss
        assert a.val_loss == b.val_loss
        assert a.error_rate == b.error_rate

    def test_separable_two_moons_reaches_low_error(self):
        data = gen_synthetic(DatasetSpec("moons", classes=2, n_train=256, n_test=256, noise=0.05, seed=1))
        cfg = TrainConfig(
            construction=PLAIN, depth=2, width=16, hidden=16,
            epochs=50, batch_size=32, lr=0.1, seed=0,
        )
        result, _ = train(cfg, data)
        assert not result.diverged
        assert result.error_rate < 0.05

    def test_divergence_is_flagged_and_curves_padded(self):
        data = tiny_data()
        cfg = tiny_cfg(XSKIP2, depth=12, epochs=4, lr=0.5)
        result, model = train(cfg, data)
        assert result.diverged
        assert result.error_rate == 1.0
        assert result.diverged_epoch is not None
        assert len(result.train_loss) == 4
        assert result.train_loss[-1] == float("inf")
        # parameters rolled back to the last finite epoch boundary
        assert all(np.isfinite(p.data).all() for _, p, _ in model.parameters())

    def test_training_loss_decreases_on_easy_data(self):
        data = tiny_data()
        result, _ = train(tiny_cfg(XSKIP_LN2, epochs=10), data)
        assert result.train_loss[-1] < result.train_loss[0]

    @pytest.mark.parametrize("token", ["plain", "wskip-ln", "2rskip-ln", "2rskip-bn"])
    def test_a_run_holds_no_more_than_one_step_is_charged(self, token):
        # each step's tape is dropped before the next forward builds one, so
        # beyond the model, its velocity and the epoch snapshot a run adds at
        # most what project_in charges one recorded step of a batch
        data = gen_synthetic(DatasetSpec("spiral", classes=3, n_train=256, n_test=8, seed=0))
        construction = SkipConstruction.parse(token)
        cfg = ModelConfig(construction, 8, data.d_in, 64, 64, data.classes)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            train(TrainConfig(construction, depth=8, width=64, hidden=64, epochs=2, batch_size=64, seed=0), data)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        held = 8 * (_footprint(cfg) + 2 * _param_count(cfg))
        assert peak - held <= 8 * _footprint(cfg, 64, recorded=True)

    def test_batch_too_large_for_dataset_raises(self):
        data = tiny_data()  # a spec needs a point of each class in each split
        data.x_train, data.y_train = data.x_train[:1], data.y_train[:1]
        cfg = tiny_cfg(SkipConstruction(SkipKind.XSKIP_BN, lam=2.0), batch_size=16)
        with pytest.raises(ConfigError):
            train(cfg, data)  # single-row batches are skipped for batch norm

    def test_result_metadata(self):
        data = tiny_data()
        result, _ = train(tiny_cfg(XSKIP_LN2), data)
        assert result.label == "2xSkip+LN"
        assert result.arch == "LN(2x+F)"
        assert result.norm == "LN"
        assert result.lam == 2.0
        assert result.wall_clock > 0


class TestMatrix:
    def test_matrix_runs_every_cell_and_summarizes(self):
        data = tiny_data()
        results = run_matrix([PLAIN, XSKIP_LN2], [0, 1], tiny_cfg(PLAIN), data)
        assert len(results) == 4
        text = matrix_csv(results)
        rows = read_csv_rows(text)
        runs = [r for r in rows if r["row"] == "run"]
        summaries = [r for r in rows if r["row"] == "summary"]
        assert len(runs) == 4 and len(summaries) == 2

    def test_summary_mean_is_recomputable_from_members(self):
        data = tiny_data()
        results = run_matrix([PLAIN, XSKIP_LN2], [0, 1, 2], tiny_cfg(PLAIN), data)
        rows = read_csv_rows(matrix_csv(results))
        for summary in (r for r in rows if r["row"] == "summary"):
            members = [
                r["error_rate"] for r in rows
                if r["row"] == "run" and r["method"] == summary["method"]
            ]
            assert summary["error_rate"] == float(np.mean(members))
            assert summary["error_std"] == float(np.std(members))

    def test_progress_callback_sees_each_run(self):
        data = tiny_data()
        seen = []
        run_matrix([PLAIN], [0, 1], tiny_cfg(PLAIN), data, progress=seen.append)
        assert [r.seed for r in seen] == [0, 1]

    def test_divergence_does_not_stop_the_matrix(self):
        data = tiny_data()
        base = tiny_cfg(PLAIN, depth=12, epochs=3, lr=0.5)
        results = run_matrix([XSKIP2, XSKIP_LN2], [0], base, data)
        assert results[0].diverged
        assert not results[1].diverged
        text = matrix_csv(results)
        assert ",1," in text.splitlines()[1]  # diverged flag inline


class TestSerialization:
    def test_matrix_csv_round_trips_floats_exactly(self):
        data = tiny_data()
        results = run_matrix([XSKIP_LN2], [0, 1], tiny_cfg(PLAIN), data)
        rows = read_csv_rows(matrix_csv(results))
        runs = [r for r in rows if r["row"] == "run"]
        assert [r["error_rate"] for r in runs] == [r.error_rate for r in results]

    def test_curves_csv_round_trips_including_inf(self):
        data = tiny_data()
        result, _ = train(tiny_cfg(XSKIP2, depth=12, epochs=4, lr=0.5), data)
        assert result.diverged
        rows = read_csv_rows(curves_csv(result))
        assert [r["epoch"] for r in rows] == [0, 1, 2, 3]
        assert [r["train_loss"] for r in rows] == list(result.train_loss)
        assert rows[-1]["train_loss"] == float("inf")

    def test_same_seed_rerun_gives_byte_identical_csv(self):
        data = tiny_data()
        first = matrix_csv(run_matrix([PLAIN, XSKIP_LN2], [0], tiny_cfg(PLAIN), data))
        second = matrix_csv(run_matrix([PLAIN, XSKIP_LN2], [0], tiny_cfg(PLAIN), data))
        assert first == second

    def test_manifest_hashes_artifacts(self, tmp_path):
        import hashlib

        artifact = tmp_path / "out.csv"
        artifact.write_text("epoch,train_loss\n0,1.0\n")
        manifest_path = tmp_path / "out.manifest.json"
        write_manifest(manifest_path, {"command": "probe"}, {"curves": artifact}, wall_clock=1.5)
        manifest = json.loads(manifest_path.read_text())
        want = hashlib.sha256(artifact.read_bytes()).hexdigest()
        assert manifest["artifacts"]["curves"]["sha256"] == want
        assert manifest["config"] == {"command": "probe"}
        assert manifest["wall_clock_seconds"] == 1.5

    def test_manifest_records_the_environment(self, tmp_path, monkeypatch):
        import os
        import platform

        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        artifact = tmp_path / "out.csv"
        artifact.write_text("epoch,train_loss\n0,1.0\n")
        manifest_path = tmp_path / "out.manifest.json"
        write_manifest(manifest_path, {"command": "probe"}, {"curves": artifact})
        env = json.loads(manifest_path.read_text())["environment"]
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert env["blas"] == {"name": blas["name"], "version": blas["version"]}
        assert (env["OPENBLAS_NUM_THREADS"], env["OMP_NUM_THREADS"], env["MKL_NUM_THREADS"]) == ("1", "3", None)
        assert env["cpu_count"] == os.cpu_count()
        assert artifact.read_text() == "epoch,train_loss\n0,1.0\n"


SEEDED = {
    "TrainConfig": lambda seed: tiny_cfg(PLAIN, seed=seed),
    "DatasetSpec": lambda seed: DatasetSpec("spiral", seed=seed),
    "build_model": lambda seed: build_model(ModelConfig(PLAIN, 1, 2, 4, 4, 3), seed),
    "gradcheck_battery": lambda seed: gradcheck_battery(instances=1, seed=seed),
    "decomposition_check": lambda seed: decomposition_check(instances=1, seed=seed),
    "amplification_probe": lambda seed: amplification_probe(XSKIP2, depth=1, width=2, seed=seed),
    "load_cifar10": lambda seed: load_cifar10("no-such-directory", seed=seed),
}


class TestSeedCheck:
    @pytest.mark.parametrize("seed", [-1, -(2**70), 1.0, 0.5, "1", None])
    @pytest.mark.parametrize("name", sorted(SEEDED))
    def test_a_seed_that_is_not_an_integer_at_least_0_raises_config_error(self, name, seed):
        with pytest.raises(ConfigError, match="seed"):
            SEEDED[name](seed)

    def test_a_numpy_integer_seed_is_a_seed(self):
        cfg = ModelConfig(PLAIN, 1, 2, 4, 4, 3)
        same = build_model(cfg, np.int64(3)).in_w.data.tobytes() == build_model(cfg, 3).in_w.data.tobytes()
        assert same and TrainConfig(PLAIN, seed=np.uint8(3)).seed == 3


def model_config(**count):
    geometry = dict(depth=1, d_in=2, width=4, hidden=4, classes=3)
    return ModelConfig(PLAIN, **{**geometry, **count})


RNG = np.random.default_rng(0)
# every count the library takes but the seed: (the name its error gives, least value, a call taking it)
COUNTED = {
    **{f"ModelConfig.{f}": (f, 1, lambda n, f=f: model_config(**{f: n}))
       for f in ("depth", "width", "hidden", "d_in", "classes")},
    **{f"TrainConfig.{f}": (f, 1, lambda n, f=f: tiny_cfg(PLAIN, **{f: n}))
       for f in ("depth", "width", "hidden", "batch_size")},
    "TrainConfig.epochs": ("epochs", 0, lambda n: tiny_cfg(PLAIN, epochs=n)),
    "DatasetSpec.classes": ("classes", 2, lambda n: DatasetSpec("spiral", classes=n)),
    "DatasetSpec.n_train": ("n_train", 1, lambda n: DatasetSpec("spiral", n_train=n)),
    "DatasetSpec.n_test": ("n_test", 1, lambda n: DatasetSpec("spiral", n_test=n)),
    "load_cifar10.subset": ("subset", 10, lambda n: load_cifar10("no-such-directory", subset=n)),
    "gradcheck_battery.instances": ("instances", 1, lambda n: gradcheck_battery(instances=n)),
    "decomposition_check.instances": ("instances", 1, lambda n: decomposition_check((1,), instances=n)),
    "AffineReluBranch.init.d": ("width", 1, lambda n: AffineReluBranch.init(n, 4, RNG)),
    "AffineReluBranch.init.hidden": ("hidden width", 1, lambda n: AffineReluBranch.init(4, n, RNG)),
    "amplification_probe.depth": ("depth", 1, lambda n: amplification_probe(XSKIP2, n, 2)),
    "amplification_probe.width": ("width", 1, lambda n: amplification_probe(XSKIP2, 1, n)),
}


class TestCountCheck:
    @pytest.mark.parametrize("bad", ["least-1", 2.5, float("nan"), "3", None])
    @pytest.mark.parametrize("name", sorted(COUNTED))
    def test_a_count_that_is_not_an_integer_at_least_its_least_raises_config_error(self, name, bad):
        what, least, call = COUNTED[name]
        value = least - 1 if bad == "least-1" else bad
        message = f"{what} must be an integer >= {least}, got {value!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            call(value)

    @pytest.mark.parametrize("name", sorted(COUNTED))
    def test_a_numpy_integer_count_is_a_count(self, name):
        _, least, call = COUNTED[name]
        try:
            call(np.int64(max(least, 3)))
        except FileNotFoundError:  # the missing directory, reached past every check of the subset
            assert name == "load_cifar10.subset"


# every real setting the library takes: (the name its error gives, bound, strict, a call taking it)
REAL = {
    "TrainConfig.lr": ("learning rate", 0, True, lambda v: tiny_cfg(PLAIN, lr=v)),
    "DatasetSpec.noise": ("noise", 0, False, lambda v: DatasetSpec("spiral", noise=v)),
    **{f"SkipConstruction.lam.{k.value}": (f"lambda of {k.value}", 0, True, lambda v, k=k: SkipConstruction(k, lam=v))
       for k in (SkipKind.XSKIP, SkipKind.XSKIP_LN, SkipKind.XSKIP_BN)},
    **{f"SkipConstruction.lam.{k.value}": (f"lambda of {k.value}", 1, False, lambda v, k=k: SkipConstruction(k, lam=v))
       for k in (SkipKind.RSKIP_LN, SkipKind.RSKIP_BN)},
    "SkipConstruction.residual_scale": (
        "residual_scale", 0, True, lambda v: SkipConstruction(SkipKind.CONTRACTED_F_LN, residual_scale=v)),
}


class TestRealCheck:
    @pytest.mark.parametrize("bad", ["below", float("nan"), float("inf"), float("-inf"), "2", None])
    @pytest.mark.parametrize("name", sorted(REAL))
    def test_a_real_that_is_not_finite_and_beyond_its_bound_raises_config_error(self, name, bad):
        what, bound, strict, call = REAL[name]
        value = (bound if strict else bound - 0.5) if bad == "below" else bad
        message = f"{what} must be a finite real number {'>' if strict else '>='} {bound}, got {value!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            call(value)

    @pytest.mark.parametrize("value", [np.float64(2.0), np.float32(2.0), True], ids=["float64", "float32", "bool"])
    @pytest.mark.parametrize("name", sorted(REAL))
    def test_numpy_floats_and_bools_are_real_numbers(self, name, value):
        REAL[name][3](value)


def same_float(a, b):
    """Equal bit patterns, except that any NaN matches any NaN."""
    if math.isnan(a):
        return math.isnan(b)
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class TestCsvText:
    def test_cells_and_line_endings(self):
        rows = [(0.1, None, 3, "x+F"), (-0.0, float("inf"), np.float64(2.5), "")]
        text = csv_text(("a", "b", "c", "d"), rows)
        assert text == "a,b,c,d\n0.1,,3,x+F\n-0.0,inf,2.5,\n"

    def test_header_only(self):
        assert csv_text(("epoch", "loss"), []) == "epoch,loss\n"

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.tuples(
            st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
            st.one_of(st.none(), st.floats()),
            st.integers(min_value=0, max_value=2**53),
            st.text(alphabet="abxyzSkip+()", min_size=1).map(lambda t: "k" + t),
        ),
        max_size=8,
    ))
    def test_read_csv_rows_reads_back_what_csv_text_writes(self, rows):
        back = read_csv_rows(csv_text(("value", "maybe", "seed", "label"), rows))
        assert len(back) == len(rows)
        for (value, maybe, seed, label), row in zip(rows, back):
            assert same_float(row["value"], value)
            assert row["maybe"] is None if maybe is None else same_float(row["maybe"], maybe)
            assert row["seed"] == seed and type(row["seed"]) is int
            assert row["label"] == label


class TestEmptyMatrix:
    @pytest.mark.parametrize("constructions, seeds", [([], [0]), ([PLAIN], []), ([], [])])
    def test_refused(self, constructions, seeds):
        with pytest.raises(ConfigError):
            run_matrix(constructions, seeds, tiny_cfg(PLAIN), tiny_data())


class TestUpdateDivergence:
    def test_a_finite_loss_whose_update_overflows_rolls_back(self):
        # one batch per epoch whose loss is finite: only the SGD update can
        # make the run diverge in epoch 0, by overflowing a parameter
        spiral = tiny_data(n=16)
        data = Dataset(3, 1e3 * spiral.x_train, spiral.y_train, spiral.x_test, spiral.y_test)
        cfg = tiny_cfg(PLAIN, width=4, hidden=4, batch_size=16, lr=1e307)
        fresh = build_model(ModelConfig(PLAIN, 2, 2, 4, 4, 3), seed=0)
        assert math.isfinite(evaluate_loss(fresh, data.x_train, data.y_train))
        result, model = train(cfg, data)
        assert result.diverged and result.diverged_epoch == 0
        assert result.error_rate == 1.0
        assert result.train_loss == result.val_loss == (float("inf"),) * 3
        for (name, p, _), (_, q, _) in zip(model.parameters(), fresh.parameters()):
            assert p.data.tobytes() == q.data.tobytes(), name
            assert p.grad is None, name  # the step's gradients existed when the update overflowed


def refusing_forward(*args, **kwargs):
    raise AssertionError("the set should be refused before any forward")


class TestEvaluationInputs:
    @pytest.mark.parametrize("evaluate", [evaluate_loss, evaluate_error])
    def test_a_set_without_rows_is_a_contract_error(self, evaluate):
        model = build_model(ModelConfig(PLAIN, 2, 2, 4, 4, 3), seed=0)
        model.forward = refusing_forward
        with pytest.raises(ContractError, match="at least one row"):
            evaluate(model, np.zeros((0, 2)), np.zeros(0, dtype=int))

    @pytest.mark.parametrize("evaluate", [evaluate_loss, evaluate_error])
    @pytest.mark.parametrize("labels", [2, 4])
    def test_a_label_count_other_than_the_row_count_is_a_dimension_error(self, evaluate, labels):
        model = build_model(ModelConfig(PLAIN, 2, 2, 4, 4, 3), seed=0)
        model.forward = refusing_forward
        with pytest.raises(DimensionError, match=f"{labels} labels for 3 rows"):
            evaluate(model, np.zeros((3, 2)), np.zeros(labels, dtype=int))

    @pytest.mark.parametrize("evaluate", [evaluate_loss, evaluate_error])
    @pytest.mark.parametrize("labels, error, match", [
        ([[0], [1], [2]], DimensionError, r"shape \(3,\), got \(3, 1\)"),
        ([0.5, 1.0, 7.0], ContractError, "labels must be integers"),
        ([0.0, 1.0, 2.0], ContractError, "labels must be integers"),
        ([True, False, True], ContractError, "labels must be integers"),
        ([0, 1, 7], IndexError, r"label out of range \[0, 3\)"),
        ([0, 1, 3], IndexError, r"label out of range \[0, 3\)"),
        ([-1, 0, 2], IndexError, r"label out of range \[0, 3\)"),
    ], ids=["not-1-d", "fractions", "integral-floats", "bools", "seven", "three", "minus-one"])
    def test_labels_that_cross_entropy_refuses_are_refused_before_any_forward(self, evaluate, labels, error, match):
        model = build_model(ModelConfig(PLAIN, 2, 2, 4, 4, 3), seed=0)
        model.forward = refusing_forward
        with pytest.raises(error, match=match):
            evaluate(model, np.zeros((3, 2)), np.array(labels))

    def test_every_class_of_the_model_is_a_valid_label(self):
        model = build_model(ModelConfig(PLAIN, 2, 2, 4, 4, 3), seed=0)
        x, labels = np.zeros((3, 2)), np.array([0, 1, 2])
        assert 0.0 <= evaluate_error(model, x, labels) <= 1.0
        assert math.isfinite(evaluate_loss(model, x, labels))


class TestManifestDigests:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(contents=st.dictionaries(st.sampled_from(["csv", "checkpoint", "log", "extra"]), st.binary(max_size=300),
                                    min_size=1))
    def test_every_artifact_digest_is_the_sha256_of_its_file(self, tmp_path, contents):
        paths = {}
        for name, blob in contents.items():
            paths[name] = tmp_path / f"{name}.bin"
            paths[name].write_bytes(blob)
        write_manifest(tmp_path / "run.manifest.json", {"command": "test"}, paths)
        artifacts = json.loads((tmp_path / "run.manifest.json").read_text())["artifacts"]
        assert set(artifacts) == set(contents)
        for name, blob in contents.items():
            assert artifacts[name] == {"path": str(paths[name]), "sha256": hashlib.sha256(blob).hexdigest()}

    @pytest.mark.parametrize("size", [(1 << 18) - 1, 1 << 18, (1 << 18) + 1, 3 * (1 << 20) + 7])
    def test_digests_across_chunk_boundaries(self, tmp_path, size):
        blob = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes()
        (tmp_path / "model.bin").write_bytes(blob)
        write_manifest(tmp_path / "run.manifest.json", {"command": "test"}, {"checkpoint": tmp_path / "model.bin"})
        artifacts = json.loads((tmp_path / "run.manifest.json").read_text())["artifacts"]
        assert artifacts["checkpoint"]["sha256"] == hashlib.sha256(blob).hexdigest()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_fifo_artifact_is_refused_at_once(self, tmp_path):
        """In a child process with a timeout, so a hash read that blocks
        fails the test instead of hanging the suite."""
        fifo = tmp_path / "table.csv"
        os.mkfifo(fifo)
        code = (
            "import sys\n"
            "from skipnorm import write_manifest\n"
            "try:\n"
            "    write_manifest(sys.argv[1] + '.manifest.json', {}, {'csv': sys.argv[1]})\n"
            "except OSError as exc:\n"
            "    sys.exit(f'refused: {exc}')\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        proc = subprocess.run([sys.executable, "-c", code, str(fifo)], env=env, capture_output=True, text=True,
                              timeout=30)
        assert proc.returncode == 1 and proc.stderr == f"refused: {fifo}: not a regular file\n"
        assert not (tmp_path / "table.csv.manifest.json").exists()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_fifo_manifest_path_is_refused_at_once(self, tmp_path):
        """In a child process with a timeout, so a write that blocks fails
        the test instead of hanging the suite."""
        fifo = tmp_path / "run.manifest.json"
        os.mkfifo(fifo)
        (tmp_path / "table.csv").write_text("a\n")
        code = (
            "import sys\n"
            "from skipnorm import write_manifest\n"
            "try:\n"
            "    write_manifest(sys.argv[1], {}, {'csv': sys.argv[2]})\n"
            "except OSError as exc:\n"
            "    sys.exit(f'refused: {exc}')\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        proc = subprocess.run([sys.executable, "-c", code, str(fifo), str(tmp_path / "table.csv")], env=env,
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == 1 and proc.stderr == f"refused: {fifo}: not a regular file\n"

    def test_hashing_never_holds_an_artifact_whole(self, tmp_path):
        size = 8 << 20
        (tmp_path / "model.bin").write_bytes(bytes(size))
        paths = {"checkpoint": tmp_path / "model.bin"}
        write_manifest(tmp_path / "run.manifest.json", {"command": "test"}, paths)  # warm the environment block
        tracemalloc.start()
        try:
            write_manifest(tmp_path / "run.manifest.json", {"command": "test"}, paths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < size // 16

