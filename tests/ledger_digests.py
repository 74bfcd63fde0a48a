"""The outputs the bit-identity ledger pins, and the script that records them.

Each output is a byte string the library produces at a tiny size: the
CSV of a CLI run (captured from stdout, in process), the ``save_model``
bytes of a depth-2 preset, a batch-norm preset once per mode, or the
stdout of a demo script (run as a child process; ``tests/test_demos.py``
compares it from the run that checks the demo exits cleanly). Float64
results depend on the BLAS kernel and the SIMD loops chosen at run time,
so ``tests/ledger.json`` keys each set of digests by an environment
fingerprint; ``tests/test_ledger.py`` compares bit for bit only where the
fingerprint matches.

Regenerate (or add) the entry for this environment with

    PYTHONPATH=src python3 tests/ledger_digests.py

A change that moves output bytes on purpose regenerates the ledger and
says which bytes changed and why.
"""

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from skipnorm import ModelConfig, SkipConstruction, build_model, cli, save_model

LEDGER = Path(__file__).resolve().parent / "ledger.json"
ROOT = LEDGER.parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

_TINY = ["--depth", "2", "--width", "8", "--hidden", "8", "--train-n", "48", "--test-n", "48", "--seed", "2"]
_TRAIN = _TINY + ["--epochs", "2", "--batch-size", "16", "--lr", "0.05"]

CLI_RUNS = {
    "cli/train-2rskip-bn": ["train", "--construction", "2rskip-bn"] + _TRAIN,
    "cli/train-wskip-ln": ["train", "--construction", "wskip-ln"] + _TRAIN,
    "cli/matrix": ["matrix", "--construction", "plain,2xskip,2xskip-ln,2rskip-ln,2xskip-bn", "--runs", "1"] + _TRAIN,
    "cli/gradnorm": ["gradnorm", "--construction", "2rskip-ln", "--samples", "32"] + _TINY,
    "cli/ratio-check": ["ratio-check", "--samples", "2", "--width", "4", "--seed", "2"],
    "cli/gradcheck": ["gradcheck", "--samples", "1", "--seed", "2"],
}

PRESETS = ["plain", "0.5xskip", "1xskip", "2xskip", "0.5xskip-ln", "2xskip-ln", "1rskip-ln", "3rskip-ln",
           "wskip-ln", "2xskip-bn", "1rskip-bn", "3rskip-bn", "contracted-f-ln:1", "contracted-f-ln:3"]


def _checkpoint_names():
    for token in PRESETS:
        if SkipConstruction.parse(token).uses_bn:
            yield f"checkpoint/{token}/training", token, "training"
            yield f"checkpoint/{token}/inference", token, "inference"
        else:
            yield f"checkpoint/{token}", token, None


CHECKPOINTS = {name: (token, mode) for name, token, mode in _checkpoint_names()}
NAMES = [*CLI_RUNS, *CHECKPOINTS]  # the outputs tests/test_ledger.py computes


def demo_name(path):
    return f"demo/{path.stem}"


DEMO_NAMES = {demo_name(path): path for path in DEMOS}


def _cli_bytes(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"skipnorm {' '.join(argv)} exited {code}")
    return out.getvalue().encode()


def _checkpoint_bytes(token, mode):
    """A depth-2 model after one training-mode forward (so batch norms
    hold running statistics), saved in ``mode``."""
    model = build_model(ModelConfig(SkipConstruction.parse(token), 2, 3, 6, 5, 4), 2)
    model.forward(np.random.default_rng(2).normal(size=(7, 3)))
    if mode is not None:
        model.set_norm_mode(mode)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.bin")
        save_model(model, path)
        return Path(path).read_bytes()


def run_demo(path, cwd):
    """The finished child process of one demo script run against the
    source tree from ``cwd``, its stdout and stderr as bytes."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(path)], cwd=cwd, env=env, capture_output=True, timeout=120)


def _demo_bytes(path):
    with tempfile.TemporaryDirectory() as tmp:
        proc = run_demo(path, tmp)
    if proc.returncode != 0:
        raise RuntimeError(f"{path.name} exited {proc.returncode}")
    return proc.stdout


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def digest(name):
    """SHA-256 hex digest of the named output."""
    if name in CLI_RUNS:
        return sha256(_cli_bytes(CLI_RUNS[name]))
    if name in DEMO_NAMES:
        return sha256(_demo_bytes(DEMO_NAMES[name]))
    return sha256(_checkpoint_bytes(*CHECKPOINTS[name]))


def _openblas_core():
    """The core OpenBLAS picked at run time, read from numpy's bundled
    library, or None where there is none to ask."""
    here = os.path.dirname(np.__file__)
    for lib in sorted(glob.glob(os.path.join(here, os.pardir, "numpy.libs", "*openblas*"))
                      + glob.glob(os.path.join(here, ".dylibs", "*openblas*"))):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                return fn().decode()
    return None


def fingerprint():
    """What decides the float64 bytes: Python, numpy, BLAS name and
    version, numpy's SIMD extensions found and the OpenBLAS core."""
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        blas, simd = f"{blas.get('name')} {blas.get('version')}", list(config["SIMD Extensions"].get("found") or [])
    except (TypeError, KeyError):  # a numpy without the dict form, or a build that omits a part
        blas, simd = None, None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "simd_found": simd,
        "openblas_core": _openblas_core(),
    }


def load_ledger():
    return json.loads(LEDGER.read_text()) if LEDGER.exists() else []


def recorded():
    """The digests recorded for this environment's fingerprint, or None."""
    here = fingerprint()
    return next((e["digests"] for e in load_ledger() if e["fingerprint"] == here), None)


def main():
    here = fingerprint()
    entries = [e for e in load_ledger() if e["fingerprint"] != here]
    names = [*NAMES, *DEMO_NAMES]
    entries.append({"fingerprint": here, "digests": {name: digest(name) for name in names}})
    LEDGER.write_text(json.dumps(entries, indent=2) + "\n")
    print(f"{LEDGER}: {len(names)} digests for {here}", file=sys.stderr)


if __name__ == "__main__":
    main()
