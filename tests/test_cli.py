"""End-to-end command-line behavior, exit codes, and artifact layout."""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from skipnorm import ModelConfig, SkipConstruction, SkipKind, build_model, cli, load_model, read_csv_rows, save_model

TINY = [
    "--depth", "2", "--width", "8", "--hidden", "8",
    "--train-n", "48", "--test-n", "48",
    "--epochs", "2", "--batch-size", "16", "--lr", "0.05",
]
TINY_NO_TRAIN = TINY[:10]
TINY_DATA = TINY[6:10]  # no model flag: a checkpoint fixes the model


def write_cifar_dir(tmp_path, n_train=100, n_test=50, seed=0):
    rng = np.random.default_rng(seed)
    for name, n in (("data_batch_1.bin", n_train), ("test_batch.bin", n_test)):
        records = np.empty((n, 3073), dtype=np.uint8)
        records[:, 0] = np.tile(np.arange(10), n // 10)
        records[:, 1:] = rng.integers(0, 256, size=(n, 3072), dtype=np.uint8)
        (tmp_path / name).write_bytes(records.tobytes())
    return tmp_path


class TestTrainCommand:
    def test_writes_curves_manifest_and_checkpoint(self, tmp_path):
        out = tmp_path / "curves.csv"
        ckpt = tmp_path / "model.bin"
        rc = cli.main(
            ["train", "--construction", "xskip-ln", "--lambda", "2"]
            + TINY + ["--seed", "0", "--out", str(out), "--checkpoint", str(ckpt)]
        )
        assert rc == 0
        rows = read_csv_rows(out.read_text())
        assert [r["epoch"] for r in rows] == [0, 1]
        manifest = json.loads((tmp_path / "curves.csv.manifest.json").read_text())
        assert manifest["config"]["command"] == "train"
        assert manifest["config"]["train_config"]["construction"]["kind"] == "xskip-ln"
        assert set(manifest["artifacts"]) == {"csv", "checkpoint"}
        model, cfg = load_model(ckpt)
        assert cfg.depth == 2 and cfg.width == 8

    def test_stdout_when_no_out_given(self, capsys):
        rc = cli.main(["train", "--construction", "plain"] + TINY + ["--seed", "0"])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("epoch,train_loss,val_loss")
        assert "test error" in captured.err


class TestMatrixCommand:
    def test_runs_cells_and_is_byte_reproducible(self, tmp_path):
        args = (
            ["matrix", "--construction", "plain,xskip-ln", "--lambda", "2"]
            + TINY + ["--runs", "2", "--seed", "0"]
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        rows = read_csv_rows(a.read_text())
        assert sum(1 for r in rows if r["row"] == "run") == 4
        assert sum(1 for r in rows if r["row"] == "summary") == 2

    def test_lambda_list_fans_out_bare_tokens(self, tmp_path):
        out = tmp_path / "m.csv"
        rc = cli.main(
            ["matrix", "--construction", "xskip-ln", "--lambda", "1,2"]
            + TINY + ["--runs", "1", "--seed", "0", "--out", str(out)]
        )
        assert rc == 0
        methods = {r["method"] for r in read_csv_rows(out.read_text()) if r["row"] == "run"}
        assert methods == {"1xSkip+LN", "2xSkip+LN"}

    def test_lambda_list_leaves_a_prefixed_token_one_cell(self, capsys):
        argv = ["matrix", "--construction", "2xskip", "--lambda", "1,2"] + TINY + ["--runs", "1"]
        assert cli.main(argv) == 0
        rows = read_csv_rows(capsys.readouterr().out)
        assert [r["method"] for r in rows if r["row"] == "run"] == ["2xSkip"]


class TestGradnormCommand:
    def test_untrained_model_sweep(self, tmp_path):
        out = tmp_path / "g.csv"
        rc = cli.main(
            ["gradnorm", "--construction", "xskip", "--lambda", "2"]
            + TINY_NO_TRAIN + ["--samples", "32", "--seed", "0", "--out", str(out)]
        )
        assert rc == 0
        text = out.read_text()
        assert text.splitlines()[0] == "construction,block_index,mean_grad_norm"
        rows = read_csv_rows(text)
        assert [r["block_index"] for r in rows] == [0, 1]
        assert all(r["construction"] == "2xSkip" for r in rows)

    def test_checkpoint_sweep(self, tmp_path):
        ckpt = tmp_path / "model.bin"
        assert cli.main(
            ["train", "--construction", "rskip-ln", "--lambda", "2"]
            + TINY + ["--seed", "0", "--checkpoint", str(ckpt)]
        ) == 0
        out = tmp_path / "g.csv"
        rc = cli.main(
            ["gradnorm", "--checkpoint", str(ckpt)]
            + TINY_DATA + ["--samples", "32", "--seed", "0", "--out", str(out)]
        )
        assert rc == 0
        rows = read_csv_rows(out.read_text())
        assert all(r["construction"] == "2rSkip+LN" for r in rows)


class TestRatioCheckCommand:
    def test_table_goes_to_stdout(self, capsys):
        rc = cli.main(["ratio-check", "--lambda", "1,2", "--samples", "5", "--seed", "0"])
        assert rc == 0
        rows = read_csv_rows(capsys.readouterr().out)
        assert [r["lambda"] for r in rows] == [1.0, 2.0]
        for r in rows:
            assert r["max_reconstruction_error"] <= 1e-10
            assert r["max_ratio_discrepancy"] <= 1e-10

    def test_non_integer_lambda_rejected(self, capsys):
        assert cli.main(["ratio-check", "--lambda", "1.5"]) == 2
        assert "integer" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_battery_passes_and_reports_per_case(self, capsys):
        rc = cli.main(["gradcheck", "--samples", "2", "--seed", "0"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "target,max_rel_err,tol,status"
        assert len(lines) == 1 + 24
        assert all(line.endswith(",pass") for line in lines[1:])


class TestErrorPaths:
    def test_unknown_construction_exits_2(self, capsys):
        rc = cli.main(["train", "--construction", "bogus"] + TINY)
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_cifar_without_path_exits_2(self, capsys, monkeypatch):
        monkeypatch.delenv(cli.DATA_DIR_ENV, raising=False)
        rc = cli.main(["train", "--dataset", "cifar10", "--classes", "10"] + TINY)
        assert rc == 2
        assert cli.DATA_DIR_ENV in capsys.readouterr().err

    def test_data_dir_env_variable_is_honored(self, tmp_path, monkeypatch):
        write_cifar_dir(tmp_path)
        monkeypatch.setenv(cli.DATA_DIR_ENV, str(tmp_path))
        out = tmp_path / "g.csv"
        rc = cli.main(
            ["gradnorm", "--dataset", "cifar10", "--subset", "20",
             "--construction", "plain", "--depth", "2", "--width", "8",
             "--hidden", "8", "--samples", "10", "--seed", "0", "--out", str(out)]
        )
        assert rc == 0
        assert out.exists()

    def test_bad_lambda_list_exits_2(self, capsys):
        rc = cli.main(["matrix", "--construction", "xskip", "--lambda", "two"] + TINY)
        assert rc == 2
        assert "lambda" in capsys.readouterr().err


class TestMalformedConstructions:
    @pytest.mark.parametrize("argv", [
        ["train", "--construction", "2.5.1xskip"],
        ["train", "--construction", "contracted-f-ln:abc"],
        ["train", "--construction", "xskip", "--lambda", "nan"],
        ["matrix", "--construction", "xskip-ln", "--lambda", "inf", "--runs", "1"],
        ["matrix", "--construction", "2xskip-ln:7", "--runs", "1"],
    ])
    def test_exit_2_without_traceback(self, argv, capsys):
        assert cli.main(argv + TINY) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("command, flags", [
        ("train", ["--lr", "nan"]),
        ("train", ["--lr", "inf"]),
        ("train", ["--noise", "nan"]),
        ("train", ["--construction", "wskip-ln", "--w-skip-init", "nan"]),
        ("matrix", ["--runs", "1", "--lr", "nan"]),
        ("gradnorm", ["--noise", "inf"]),
    ])
    def test_exit_2_without_traceback(self, command, flags, capsys):
        # the flags come last, so they override the tiny defaults
        tiny = TINY_NO_TRAIN if command == "gradnorm" else TINY
        assert cli.main([command, "--construction", "xskip-ln"] + tiny + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


class TestVacuousChecks:
    """A check that would check nothing, or whose tolerance makes every
    row pass or every row fail, is refused instead of reported."""

    @pytest.mark.parametrize("argv", [
        ["gradcheck", "--tol", "inf"],
        ["gradcheck", "--tol", "nan"],
        ["gradcheck", "--tol", "-1"],
        ["gradcheck", "--samples", "0"],
        ["ratio-check", "--samples", "0"],
    ])
    def test_exit_2_without_traceback(self, argv, capsys):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "Traceback" not in captured.err
        assert captured.out == ""


def assert_exit_2(argv, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert captured.out == ""


class TestLambdaText:
    """The --lambda text goes to the construction parser unchanged; every
    value it refuses exits 2 before anything is printed."""

    @pytest.mark.parametrize("lam", ["abc", "", "nan", "inf", "-1", "0"])
    @pytest.mark.parametrize("command", ["train", "gradnorm"])
    @pytest.mark.parametrize("construction", ["xskip-ln", "rskip-ln"])
    def test_bad_lambda_exits_2(self, construction, command, lam, capsys):
        tiny = TINY_NO_TRAIN if command == "gradnorm" else TINY
        assert_exit_2([command, "--construction", construction, "--lambda", lam] + tiny, capsys)

    @pytest.mark.parametrize("command, construction, lam", [("train", "2xskip", "3"), ("gradnorm", "2rskip-ln", "5")])
    def test_lambda_given_twice_exits_2(self, command, construction, lam, capsys):
        tiny = TINY_NO_TRAIN if command == "gradnorm" else TINY
        assert_exit_2([command, "--construction", construction, "--lambda", lam] + tiny, capsys)

    def test_fractional_recursion_depth_exits_2(self, capsys):
        assert_exit_2(["ratio-check", "--lambda", "1.5", "--samples", "2"], capsys)

    def test_float_text_of_an_integer_depth_is_accepted(self, capsys):
        assert cli.main(["ratio-check", "--lambda", "1,3.0", "--samples", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "3"]


class TestBadSizes:
    @pytest.mark.parametrize("width", ["0", "-2"])
    def test_ratio_check_width_below_one_exits_2(self, width, capsys):
        assert_exit_2(["ratio-check", "--width", width, "--samples", "2"], capsys)

    @pytest.mark.parametrize("runs", ["0", "-2"])
    def test_matrix_without_runs_exits_2(self, runs, capsys):
        assert_exit_2(["matrix", "--construction", "plain"] + TINY + ["--runs", runs], capsys)

    def test_gradnorm_of_a_checkpoint_with_a_nan_parameter_exits_2(self, tmp_path, capsys):
        construction = SkipConstruction(SkipKind.XSKIP, lam=2.0)
        model = build_model(ModelConfig(construction, depth=2, d_in=2, width=8, hidden=8, classes=3), seed=0)
        model.in_w.data[0, 0] = np.nan
        ckpt = tmp_path / "nan.bin"
        save_model(model, ckpt)
        assert_exit_2(["gradnorm", "--checkpoint", str(ckpt)] + TINY_DATA + ["--samples", "32"], capsys)


class TestNegativeSeed:
    @pytest.mark.parametrize("seed", ["-1", "-3"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--construction", "xskip-ln"] + TINY,
            ["matrix", "--construction", "plain", "--runs", "2"] + TINY,
            ["gradnorm", "--construction", "2xskip"] + TINY_NO_TRAIN,
            ["ratio-check", "--samples", "2"],
            ["gradcheck", "--samples", "1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_seed_exits_2(self, argv, seed, capsys):
        assert_exit_2(argv + ["--seed", seed], capsys)


class TestEmptyLambdaList:
    def test_matrix_exits_2(self, capsys):
        assert_exit_2(["matrix", "--construction", "xskip", "--lambda", "", "--runs", "1"] + TINY, capsys)

    def test_ratio_check_exits_2(self, capsys):
        assert_exit_2(["ratio-check", "--lambda", "", "--samples", "2"], capsys)


def test_manifest_records_the_environment_and_leaves_the_csv_alone(tmp_path, capsys):
    argv = ["gradnorm", "--construction", "2rskip-ln"] + TINY_NO_TRAIN + ["--samples", "32"]
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "norms.csv"
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert out.read_text() == printed
    manifest = json.loads((tmp_path / "norms.csv.manifest.json").read_text())
    assert {"python", "numpy", "blas", "cpu_count"} <= set(manifest["environment"])


class TestPathErrors:
    """A path the command cannot open as it needs exits 2 with an error
    line and nothing on stdout."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--construction", "plain"] + TINY + ["--out", "{dir}"],
            ["train", "--construction", "plain"] + TINY + ["--checkpoint", "{dir}"],
            ["gradnorm", "--checkpoint", "{dir}"] + TINY_DATA,
            ["gradnorm", "--checkpoint", "{dir}/missing.bin"] + TINY_DATA,
            ["train", "--dataset", "cifar10", "--data-path", "{file}", "--subset", "20"] + TINY,
            ["gradnorm", "--dataset", "cifar10", "--data-path", "{file}", "--subset", "20"],
            ["ratio-check", "--samples", "2", "--out", "{dir}"],
            ["gradcheck", "--samples", "1", "--out", "{dir}"],
            ["gradcheck", "--samples", "1", "--out", "{dir}/missing/table.csv"],
        ],
        ids=["train-out", "train-checkpoint", "gradnorm-checkpoint", "gradnorm-missing-checkpoint",
             "train-data-path", "gradnorm-data-path", "ratio-check-out", "gradcheck-out", "gradcheck-out-missing"],
    )
    def test_exit_2(self, argv, tmp_path, capsys):
        file = tmp_path / "file.bin"
        file.write_bytes(b"not a directory")
        assert_exit_2([a.format(dir=tmp_path, file=file) for a in argv], capsys)


def run_cli(argv):
    """(exit code, stdout, stderr) of one in-process run; argparse's
    SystemExit counts as its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# flag: (valid values, malformed values). Every size flag is always
# given, so no command reaches a large default; path values are
# placeholders filled in under tmp_path.
_MODEL_SIZES = {"--depth": (["1", "2"], ["0", "-1", "x"]), "--width": (["1", "3"], ["0"]),
                "--hidden": (["2", "3"], ["0"])}
_MODEL = {
    "--construction": (["plain", "2xskip", "xskip-ln", "2rskip-ln", "wskip-ln", "2xskip-bn", "rskip-bn",
                        "contracted-f-ln:3", "plain,2xskip-ln"], ["contracted-f-ln:0", "plain:2", "bogus", ""]),
    "--lambda": (["1", "2", "3"], ["", "0", "-1", "nan", "x", "0.5"]),
    "--w-skip-init": (["1", "-2"], ["nan", "inf"]),
}
_DATA_SIZES = {"--subset": (["10", "20"], ["5", "0"]), "--train-n": (["8", "20"], ["0", "-3"]),
               "--test-n": (["4", "8"], ["0"])}
_DATA = {
    "--dataset": (["spiral", "moons", "cifar10"], ["mnist"]),
    "--data-path": (["{cifar}"], ["{file}", "{dir}", "{missing}"]),
    "--classes": (["2", "4"], ["1", "0"]),
    "--noise": (["0", "0.2"], ["-1", "nan"]),
}
_TRAIN_SIZES = {"--epochs": (["0", "1", "2"], ["-1"]), "--batch-size": (["4", "16"], ["0"])}
_TRAIN = {"--lr": (["0.05", "1e307"], ["0", "nan", "-1"])}
_OUT = {"--out": (["{new}"], ["{dir}", "{missing}/out.csv"]), "--seed": (["0", "1"], ["-1", "x"])}
_COMMANDS = {  # command: (size flags, optional flags)
    "train": ({**_MODEL_SIZES, **_DATA_SIZES, **_TRAIN_SIZES},
              {**_MODEL, **_DATA, **_TRAIN, **_OUT, "--checkpoint": (["{new}.bin"], ["{dir}", "{missing}/m.bin"])}),
    "matrix": ({**_MODEL_SIZES, **_DATA_SIZES, **_TRAIN_SIZES, "--runs": (["1", "2"], ["0"])},
               {**_MODEL, **_DATA, **_TRAIN, **_OUT}),
    "gradnorm": ({**_MODEL_SIZES, **_DATA_SIZES, "--samples": (["1", "8"], ["0"])},
                 {**_MODEL, **_DATA, **_OUT, "--checkpoint": (["{checkpoint}"], ["{file}", "{dir}", "{missing}"])}),
    "ratio-check": ({"--width": (["1", "3"], ["0"]), "--samples": (["1", "2"], ["0", "-1"])},
                    {**_OUT, "--lambda": (["1", "2,3", "4"], ["", "0", "x", "1.5"])}),
    "gradcheck": ({"--samples": (["1"], ["0", "-1"])}, {**_OUT, "--tol": (["1e-4", "0", "1"], ["nan", "-1", "inf"])}),
}


@st.composite
def argvs(draw):
    """A command line with all valid values, or one malformed value, or
    an unknown flag or command."""
    command = draw(st.sampled_from([*_COMMANDS, "nosuch"]))
    sizes, optional = _COMMANDS.get(command, ({}, {}))
    bad = draw(st.one_of(st.none(), st.sampled_from([*sizes, *optional, "--bogus"])))
    pairs = [("--bogus", "1")] if bad == "--bogus" else []
    for flag, (valid, malformed) in {**sizes, **optional}.items():
        if flag == bad:
            pairs.append((flag, draw(st.sampled_from(malformed))))
        elif flag in sizes or draw(st.booleans()):
            pairs.append((flag, draw(st.sampled_from(valid))))
    if command == "gradnorm" and "--checkpoint" in dict(pairs) and draw(st.booleans()):
        # the checkpoint fixes the model: sweep it with no model flag
        pairs = [(flag, value) for flag, value in pairs if flag not in {**_MODEL_SIZES, **_MODEL}]
    pairs = draw(st.permutations(pairs))
    return [command] + [token for pair in pairs for token in pair]


class TestArgvFuzz:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=argvs())
    def test_exit_0_1_or_2_and_never_a_traceback(self, tmp_path, monkeypatch, argv):
        monkeypatch.delenv(cli.DATA_DIR_ENV, raising=False)
        paths = {"dir": tmp_path / "empty", "file": tmp_path / "file.bin", "cifar": tmp_path / "cifar",
                 "checkpoint": tmp_path / "model.bin", "missing": tmp_path / "missing", "new": tmp_path / "new"}
        if not paths["cifar"].exists():
            paths["dir"].mkdir()
            paths["file"].write_bytes(b"not a checkpoint nor a directory")
            paths["cifar"].mkdir()
            write_cifar_dir(paths["cifar"], n_train=30, n_test=20)
            cfg = ModelConfig(SkipConstruction(SkipKind.XSKIP_BN, lam=2.0), 2, 2, 3, 3, 3)
            save_model(build_model(cfg, seed=0), paths["checkpoint"])
        code, out, err = run_cli([token.format(**paths) for token in argv])
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 2:
            assert "error:" in err and out == ""


def test_gradnorm_of_a_checkpoint_with_fewer_classes_than_the_data_exits_2(tmp_path, capsys):
    ckpt = tmp_path / "model.bin"
    save_model(build_model(ModelConfig(SkipConstruction(SkipKind.XSKIP, lam=2.0), 2, 2, 8, 8, 3), seed=0), ckpt)
    assert_exit_2(["gradnorm", "--checkpoint", str(ckpt), "--classes", "4"] + TINY_DATA + ["--samples", "8"],
                  capsys)


class TestCheckpointFixesTheModel:
    """gradnorm --checkpoint sweeps the checkpoint's model, so a model
    flag set to anything but its default is an error, not ignored."""

    @pytest.fixture
    def ckpt(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(build_model(ModelConfig(SkipConstruction(SkipKind.XSKIP), 2, 2, 4, 4, 3), seed=0), path)
        return str(path)

    @pytest.mark.parametrize("flags", [
        ["--construction", "2rskip-ln", "--lambda", "nan", "--depth", "0"],
        ["--construction", "xskip"],
        ["--lambda", "1"],
        ["--lambda", ""],
        ["--depth", "2"],
        ["--width", "4"],
        ["--hidden", "4"],
        ["--w-skip-init", "nan"],
        ["--w-skip-init", "2"],
    ])
    def test_a_model_flag_off_its_default_exits_2(self, ckpt, flags, capsys):
        assert_exit_2(["gradnorm", "--checkpoint", ckpt] + flags + TINY_DATA + ["--samples", "8"], capsys)

    def test_the_error_names_every_flag_given(self, ckpt, capsys):
        code, out, err = run_cli(["gradnorm", "--checkpoint", ckpt, "--depth", "0", "--w-skip-init", "3"] + TINY_DATA)
        assert (code, out) == (2, "")
        assert "--depth" in err and "--w-skip-init" in err and "--width" not in err

    def test_model_flags_at_their_defaults_are_accepted(self, ckpt, capsys):
        argv = ["gradnorm", "--checkpoint", ckpt] + TINY_DATA + ["--samples", "8"]
        assert cli.main(argv) == 0
        plain = capsys.readouterr().out
        defaults = ["--construction", "rskip-ln", "--depth", "16", "--width", "64", "--hidden", "64",
                    "--w-skip-init", "1"]
        assert cli.main(argv + defaults) == 0
        assert capsys.readouterr().out == plain
        assert {r["construction"] for r in read_csv_rows(plain)} == {"1xSkip"}
