"""End-to-end command-line behavior, exit codes, and artifact layout."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from skipnorm import ModelConfig, SkipConstruction, SkipKind, build_model, cli, load_model, read_csv_rows, save_model
from skipnorm.errors import MAX_DOUBLES

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
        assert all(line.endswith(",0.0001,pass") for line in lines[1:])


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
    """A check that would check nothing is refused instead of reported, and
    gradcheck's gate is fixed: no tolerance can make every row pass."""

    @pytest.mark.parametrize("argv", [
        ["gradcheck", "--samples", "0"],
        ["ratio-check", "--samples", "0"],
    ])
    def test_exit_2_without_traceback(self, argv, capsys):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "Traceback" not in captured.err
        assert captured.out == ""

    def test_a_gradcheck_tolerance_is_an_unknown_argument(self):
        code, out, err = run_cli(["gradcheck", "--samples", "1", "--tol", "1"])
        assert (code, out) == (2, "") and "unrecognized arguments: --tol 1" in err


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
    @pytest.mark.parametrize("argv", [
        ["--classes", "1000000000"],  # the default 512 train and 512 test points
        ["--classes", "49"] + TINY,  # one class more than the 48 test points
    ], ids=["a-billion-classes", "one-class-too-many"])
    def test_more_classes_than_points_exits_2_at_once(self, argv, capsys):
        start = time.perf_counter()
        assert_exit_2(["train"] + argv, capsys)
        assert time.perf_counter() - start < 5.0

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


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_gradnorm_of_a_fifo_checkpoint_exits_2_at_once(tmp_path):
    # in a child process, so a read that blocks fails instead of hanging
    fifo = tmp_path / "model.bin"
    os.mkfifo(fifo)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    argv = [sys.executable, "-m", "skipnorm.cli", "gradnorm", "--checkpoint", str(fifo)] + TINY_DATA
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=30)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {fifo}: not a regular file\n"


FIFO_OUT_RUNS = {
    "train": ["train", "--construction", "plain"] + TINY,
    "matrix": ["matrix", "--construction", "plain", "--runs", "1"] + TINY,
    "gradnorm": ["gradnorm", "--construction", "plain", "--samples", "8"] + TINY_NO_TRAIN,
    "ratio-check": ["ratio-check", "--samples", "2"],
    "gradcheck": ["gradcheck", "--samples", "1"],
}


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("command, fifo_name", [(c, "table.csv") for c in FIFO_OUT_RUNS]
                         + [("ratio-check", "table.csv.manifest.json")],
                         ids=[*FIFO_OUT_RUNS, "ratio-check-manifest"])
def test_a_fifo_output_exits_2_at_once(tmp_path, command, fifo_name):
    """A FIFO as --out, or at its manifest path, is refused before any
    work; in a child process, so a write or read-back that blocks fails
    instead of hanging."""
    fifo = tmp_path / fifo_name
    os.mkfifo(fifo)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    argv = [sys.executable, "-m", "skipnorm.cli"] + FIFO_OUT_RUNS[command] + ["--out", str(tmp_path / "table.csv")]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=30)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {fifo}: not a regular file\n"


def _address_space_cap():
    """In the child, before exec: cap its address space at 1.5 GB, so an
    allocation the size check misses fails fast instead of filling memory."""
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))


OVERSIZE_RUNS = {
    "depth": ["gradnorm", "--depth", "100000000", "--samples", "1"],
    "width": ["gradnorm", "--width", "100000000", "--samples", "1"],
    "hidden": ["train", "--hidden", "100000000", "--epochs", "1"],
    "levels": ["gradnorm", "--construction", "100000000rskip-ln", "--samples", "1"],
    "train-n": ["gradnorm", "--train-n", "100000000000", "--samples", "1"],
    "test-n": ["matrix", "--test-n", "100000000000", "--runs", "1"],
    "ratio-check-levels": ["ratio-check", "--lambda", "100000000", "--samples", "1"],
    "ratio-check-width": ["ratio-check", "--width", "100000000", "--samples", "1"],
    # within the parameter limit, but a 256-row batch at that width or hidden
    # width is not, nor are the Python objects of that many norm levels
    "activation-width": ["gradnorm", "--width", "1000000", "--hidden", "1", "--depth", "1", "--samples", "256"],
    "activation-hidden": ["gradnorm", "--width", "1", "--hidden", "1000000", "--depth", "1", "--samples", "256"],
    "ratio-check-level-objects": ["ratio-check", "--lambda", "4000000", "--width", "1", "--samples", "1"],
    # each block fits, but not the objects of its norm levels summed over depth,
    # nor the arrays a recorded forward keeps over depth
    "model-level-objects": ["gradnorm", "--construction", "100000rskip-ln", "--depth", "50", "--width", "1",
                            "--hidden", "1", "--samples", "1"],
    "recorded-forward": ["gradnorm", "--width", "65536", "--hidden", "1", "--depth", "4", "--samples", "256"],
    # the Python objects of a million blocks, about 1.3 kB each at width 1
    "block-objects": ["gradnorm", "--construction", "plain", "--depth", "1000000", "--width", "1", "--hidden", "1",
                      "--samples", "1"],
    # the branch's temporaries: a 256-row batch holds up to three of 256 x 60000 at once
    "branch-temporaries": ["gradnorm", "--construction", "plain", "--width", "1", "--hidden", "60000", "--depth", "1",
                           "--samples", "256"],
}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="caps the child's address space before exec")
@pytest.mark.parametrize("argv", OVERSIZE_RUNS.values(), ids=OVERSIZE_RUNS)
def test_an_oversize_allocation_exits_2_before_it_is_made(argv):
    # a child process with a capped address space and a timeout, so a
    # missed check fails on its MemoryError or its time instead of the host's
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "skipnorm.cli"] + argv, env=env, capture_output=True, text=True,
                          timeout=30, preexec_fn=_address_space_cap)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr.startswith("error: ") and f"more than the {MAX_DOUBLES} allowed" in proc.stderr


def _sparse_batch(path):
    """A batch file of a million records, 3,073,000,000 bytes of one hole."""
    with open(path, "wb") as fh:
        fh.truncate(1_000_000 * 3073)


@pytest.mark.skipif(not (hasattr(os, "mkfifo") and hasattr(os, "fork")), reason="needs named pipes and fork")
@pytest.mark.parametrize("make, error", [
    (lambda path: os.mkfifo(path), "not a regular file"),
    (_sparse_batch, "1000000 records, more than the 10000 of a batch file"),
], ids=["fifo", "oversize"])
def test_a_cifar_batch_file_that_cannot_be_read_whole_exits_2_at_once(tmp_path, make, error):
    """In a child process with a timeout and a capped address space, so a
    read that blocks or holds the whole file fails instead of hanging or
    filling memory."""
    batch = write_cifar_dir(tmp_path) / "data_batch_1.bin"
    batch.unlink()
    make(batch)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"), OPENBLAS_NUM_THREADS="1")
    argv = ["train", "--dataset", "cifar10", "--data-path", str(tmp_path), "--subset", "20"] + TINY
    proc = subprocess.run([sys.executable, "-m", "skipnorm.cli"] + argv, env=env, capture_output=True, text=True,
                          timeout=30, preexec_fn=_address_space_cap)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {batch}: {error}\n"


class TestOutputsCheckedBeforeTraining:
    """An --out or --checkpoint target of train or matrix that cannot be
    written exits 2 before any training, with the error line that writing
    it would give."""

    COMMANDS = {
        "train --out": ["train", "--construction", "plain"] + TINY + ["--out"],
        "train --checkpoint": ["train", "--construction", "plain"] + TINY + ["--checkpoint"],
        "matrix --out": ["matrix", "--construction", "plain", "--runs", "1"] + TINY + ["--out"],
    }

    @pytest.fixture(autouse=True)
    def no_training(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(cli, "train", forbidden)
        monkeypatch.setattr(cli, "run_matrix", forbidden)

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize(
        "target",
        ["{tmp}/no/such/dir/m.bin", "{tmp}", "{file}/m.bin", "{file}/sub/m.bin"],
        ids=["missing-dir", "dir", "file-as-dir", "under-file-as-dir"],
    )
    def test_unwritable_target_exits_2_untrained(self, tmp_path, capsys, command, target):
        file = tmp_path / "file.bin"
        file.write_bytes(b"not a directory")
        target = target.format(tmp=tmp_path, file=file)
        with pytest.raises(OSError) as info:
            open(target, "w")
        assert cli.main(self.COMMANDS[command] + [target]) == 2
        assert capsys.readouterr() == ("", f"error: {info.value}\n")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_target_without_write_access_exits_2_untrained(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr(os, "access", lambda path, mode: False)
        assert cli.main(self.COMMANDS[command] + [str(tmp_path / "m.bin")]) == 2
        assert capsys.readouterr() == ("", f"error: [Errno 13] Permission denied: '{tmp_path / 'm.bin'}'\n")

    def test_a_checkpoint_that_is_not_a_regular_file_exits_2_untrained(self, capsys):
        assert_exit_2(self.COMMANDS["train --checkpoint"] + [os.devnull], capsys)

    def test_a_manifest_target_that_is_a_directory_exits_2_untrained(self, tmp_path, capsys):
        (tmp_path / "curves.csv.manifest.json").mkdir()
        assert_exit_2(self.COMMANDS["train --out"] + [str(tmp_path / "curves.csv")], capsys)
        assert not (tmp_path / "curves.csv").exists()


class TestFlagsCheckedBeforeData:
    @pytest.mark.parametrize("command, flag, value, named", [
        ("train", "--epochs", "-1", "epochs must be"),
        ("train", "--batch-size", "0", "batch_size must be"),
        ("matrix", "--lr", "0", "learning rate must be"),
        ("matrix", "--depth", "0", "depth must be"),
    ])
    def test_a_bad_flag_is_named_before_a_missing_data_directory(self, tmp_path, command, flag, value, named):
        argv = [command, "--construction", "plain", "--dataset", "cifar10", "--data-path", str(tmp_path / "none")]
        code, out, err = run_cli(argv + [flag, value])
        assert (code, out) == (2, "") and err.startswith("error: ") and named in err, err


class TestOutputsCheckedBeforeDiagnostics:
    """An --out target of gradcheck, ratio-check or gradnorm that cannot
    be written exits 2 before the battery, check or sweep runs, with the
    error line that writing it would give."""

    COMMANDS = {
        "gradcheck": ["gradcheck", "--samples", "1", "--out"],
        "ratio-check": ["ratio-check", "--samples", "2", "--out"],
        "gradnorm": ["gradnorm", "--construction", "plain"] + TINY_NO_TRAIN + ["--samples", "8", "--out"],
    }

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("work started")

        for name in ("gradcheck_battery", "decomposition_check", "gradient_norm_sweep"):
            monkeypatch.setattr(cli, name, forbidden)

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize(
        "target",
        ["{tmp}/no/such/dir/t.csv", "{tmp}", "{file}/t.csv", "{file}/sub/t.csv"],
        ids=["missing-dir", "dir", "file-as-dir", "under-file-as-dir"],
    )
    def test_unwritable_target_exits_2_before_any_work(self, tmp_path, capsys, command, target):
        file = tmp_path / "file.bin"
        file.write_bytes(b"not a directory")
        target = target.format(tmp=tmp_path, file=file)
        with pytest.raises(OSError) as info:
            open(target, "w")
        assert cli.main(self.COMMANDS[command] + [target]) == 2
        assert capsys.readouterr() == ("", f"error: {info.value}\n")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_target_without_write_access_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr(os, "access", lambda path, mode: False)
        assert cli.main(self.COMMANDS[command] + [str(tmp_path / "t.csv")]) == 2
        assert capsys.readouterr() == ("", f"error: [Errno 13] Permission denied: '{tmp_path / 't.csv'}'\n")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_a_manifest_target_that_is_a_directory_exits_2_before_any_work(self, tmp_path, capsys, command):
        (tmp_path / "t.csv.manifest.json").mkdir()
        assert_exit_2(self.COMMANDS[command] + [str(tmp_path / "t.csv")], capsys)
        assert not (tmp_path / "t.csv").exists()


def test_an_existing_target_is_opened_to_check_it_and_left_untouched(tmp_path):
    target = tmp_path / "old.csv"
    target.write_bytes(b"kept")
    os.utime(target, (1, 1))
    cli._check_writable(str(target))
    assert target.read_bytes() == b"kept" and target.stat().st_mtime == 1


def test_gradnorm_reads_a_checkpoint_it_could_not_write(tmp_path, capsys, monkeypatch):
    path = tmp_path / "model.bin"
    save_model(build_model(ModelConfig(SkipConstruction(SkipKind.XSKIP), 2, 2, 4, 4, 3), seed=0), path)
    monkeypatch.setattr(os, "access", lambda path, mode: False)
    assert cli.main(["gradnorm", "--checkpoint", str(path)] + TINY_DATA + ["--samples", "8"]) == 0
    assert {r["construction"] for r in read_csv_rows(capsys.readouterr().out)} == {"1xSkip"}


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
    "gradcheck": ({"--samples": (["1"], ["0", "-1"])}, _OUT),
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
    ])
    def test_a_model_flag_off_its_default_exits_2(self, ckpt, flags, capsys):
        assert_exit_2(["gradnorm", "--checkpoint", ckpt] + flags + TINY_DATA + ["--samples", "8"], capsys)

    def test_the_error_names_every_flag_given(self, ckpt, capsys):
        code, out, err = run_cli(["gradnorm", "--checkpoint", ckpt, "--depth", "0", "--hidden", "3"] + TINY_DATA)
        assert (code, out) == (2, "")
        assert "--depth" in err and "--hidden" in err and "--width" not in err

    def test_model_flags_at_their_defaults_are_accepted(self, ckpt, capsys):
        argv = ["gradnorm", "--checkpoint", ckpt] + TINY_DATA + ["--samples", "8"]
        assert cli.main(argv) == 0
        plain = capsys.readouterr().out
        defaults = ["--construction", "rskip-ln", "--depth", "16", "--width", "64", "--hidden", "64"]
        assert cli.main(argv + defaults) == 0
        assert capsys.readouterr().out == plain
        assert {r["construction"] for r in read_csv_rows(plain)} == {"1xSkip"}


# dest: (option strings, default, type, choices) of every flag, per command
_MODEL_TABLE = {
    "construction": (("--construction",), "rskip-ln", None, None),
    "lam": (("--lambda",), None, None, None),
    "depth": (("--depth",), 16, int, None),
    "width": (("--width",), 64, int, None),
    "hidden": (("--hidden",), 64, int, None),
}
_DATA_TABLE = {
    "dataset": (("--dataset",), "spiral", None, ("spiral", "moons", "cifar10")),
    "data_path": (("--data-path",), None, None, None),
    "subset": (("--subset",), 2000, int, None),
    "classes": (("--classes",), 3, int, None),
    "noise": (("--noise",), 0.2, float, None),
    "train_n": (("--train-n",), 512, int, None),
    "test_n": (("--test-n",), 512, int, None),
}
_TRAIN_TABLE = {
    "epochs": (("--epochs",), 30, int, None),
    "batch_size": (("--batch-size",), 64, int, None),
    "lr": (("--lr",), 0.1, float, None),
}
_RUN_TABLE = {
    "help": (("-h", "--help"), "==SUPPRESS==", None, None),
    "seed": (("--seed",), 0, int, None),
    "out": (("--out",), None, None, None),
}
_FLAG_TABLE = {
    "train": {**_MODEL_TABLE, **_DATA_TABLE, **_TRAIN_TABLE, **_RUN_TABLE,
              "checkpoint": (("--checkpoint",), None, None, None)},
    "matrix": {**_MODEL_TABLE, **_DATA_TABLE, **_TRAIN_TABLE, **_RUN_TABLE,
               "runs": (("--runs",), 5, int, None)},
    "gradnorm": {**_MODEL_TABLE, **_DATA_TABLE, **_RUN_TABLE,
                 "checkpoint": (("--checkpoint",), None, None, None),
                 "samples": (("--samples",), 2000, int, None)},
    "ratio-check": {**_RUN_TABLE,
                    "lam": (("--lambda",), None, None, None),
                    "width": (("--width",), 8, int, None),
                    "samples": (("--samples",), 100, int, None)},
    "gradcheck": {**_RUN_TABLE, "samples": (("--samples",), 20, int, None)},
}


def test_every_command_takes_exactly_its_flag_table():
    (commands,) = [a for a in cli.build_parser()._actions if a.choices and a.dest == "command"]
    table = {
        name: {a.dest: (tuple(a.option_strings), a.default, a.type, a.choices) for a in sub._actions}
        for name, sub in commands.choices.items()
    }
    assert table == _FLAG_TABLE
    assert {name: len(sub._actions) for name, sub in commands.choices.items()} == {
        name: len(flags) for name, flags in _FLAG_TABLE.items()}
