"""Deterministic SGD trainer and the construction-comparison matrix.

One (config, seed, dataset) triple maps to one bit-reproducible run.
Diverged runs are recorded, never raised: the run keeps its last finite
parameters, reports error rate 1.0, and pads its curves with inf.
"""

import csv
import hashlib
import io
import json
import math
import os
import platform
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from .blocks import ModelConfig, build_model
from .errors import ConfigError, _check_seed
from .tensor import Tensor, no_grad, softmax_cross_entropy

__all__ = [
    "TrainConfig",
    "RunResult",
    "sgd_step",
    "train",
    "evaluate_error",
    "evaluate_loss",
    "run_matrix",
    "matrix_csv",
    "curves_csv",
    "csv_text",
    "read_csv_rows",
    "write_manifest",
]


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one run; the model seed doubles as the batch-order seed."""

    construction: object
    depth: int = 16
    width: int = 64
    hidden: int = 64
    epochs: int = 30
    batch_size: int = 64
    lr: float = 0.1
    lr_decay: float = 0.1
    lr_milestones: tuple = None
    momentum: float = 0.9
    weight_decay: float = 2e-4
    seed: int = 0
    w_skip_init: float = 1.0

    def __post_init__(self):
        _check_seed(self.seed)
        if self.epochs < 0:
            raise ConfigError("epochs cannot be negative")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be positive")
        for name in ("lr", "lr_decay", "momentum", "weight_decay", "w_skip_init"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be a finite number, got {getattr(self, name)}")
        if self.lr <= 0 or not 0 < self.lr_decay <= 1:
            raise ConfigError("learning rate must be positive and decay in (0, 1]")
        if not 0 <= self.momentum < 1:
            raise ConfigError("momentum must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ConfigError("weight decay cannot be negative")

    def milestones(self):
        """Epoch indices where the learning rate decays; default halfway and three-quarters."""
        if self.lr_milestones is not None:
            return tuple(self.lr_milestones)
        return tuple(sorted({self.epochs // 2, (3 * self.epochs) // 4} - {0}))

    def lr_at(self, epoch):
        passed = sum(1 for m in self.milestones() if epoch >= m)
        return self.lr * self.lr_decay**passed

    def as_dict(self):
        d = asdict(self)
        c = d.pop("construction")
        c["kind"] = self.construction.kind.value
        d["construction"] = c
        if d["lr_milestones"] is not None:
            d["lr_milestones"] = list(d["lr_milestones"])
        return d


@dataclass(frozen=True)
class RunResult:
    label: str
    arch: str
    lam: float
    norm: str
    seed: int
    error_rate: float
    train_loss: tuple
    val_loss: tuple
    diverged: bool
    diverged_epoch: object
    wall_clock: float
    config: TrainConfig

    def __post_init__(self):
        if not 0.0 <= self.error_rate <= 1.0:
            raise ConfigError(f"error rate out of range: {self.error_rate}")
        if len(self.train_loss) != self.config.epochs or len(self.val_loss) != self.config.epochs:
            raise ConfigError("loss curves must have one entry per epoch")


def _batched(n, batch_size):
    for start in range(0, n, batch_size):
        yield slice(start, min(start + batch_size, n))


def sgd_step(params, velocity, lr, momentum, weight_decay):
    """One SGD-with-momentum update over (name, tensor, decay) triples.

    Weight decay is added to the gradient only where the decay flag is
    set; normalization gains/biases and w_skip carry decay=False and are
    never decayed. Velocity buffers and parameter arrays are updated in
    place.
    """
    for (_, p, decay), v in zip(params, velocity):
        g = p.grad
        if decay and weight_decay:
            g = g + weight_decay * p.data
        v *= momentum
        v += g
        p.data -= lr * v


_EVAL_BATCH = 256


def _eval_logits(model, x):
    """(slice, logits) for each batch of x, batch norms in inference
    mode, evaluated without a tape."""
    model.set_norm_mode("inference")
    with np.errstate(over="ignore", invalid="ignore"), no_grad():
        return [(sl, model.forward(Tensor(x[sl]))) for sl in _batched(len(x), _EVAL_BATCH)]


def _mean_loss(logits, y):
    """Mean cross-entropy of per-batch (slice, logits) against labels y."""
    total, rows = 0.0, 0
    with np.errstate(over="ignore", invalid="ignore"):
        for sl, z in logits:
            total += float(softmax_cross_entropy(z, y[sl]).data) * (sl.stop - sl.start)
            rows = sl.stop
    return total / rows


def _error_rate(logits, y):
    """Top-1 error rate of per-batch (slice, logits) against labels y."""
    wrong, rows = 0, 0
    for sl, z in logits:
        wrong += int((np.argmax(z.data, axis=1) != y[sl]).sum())
        rows = sl.stop
    return wrong / rows


def evaluate_loss(model, x, y):
    """Mean cross-entropy over a labeled set, batch norms in inference
    mode, evaluated without a tape.

    A diverging model evaluates to inf rather than warning; the curves
    carry such entries as data.
    """
    return _mean_loss(_eval_logits(model, x), y)


def evaluate_error(model, x, y):
    """Top-1 classification error rate, batch norms in inference mode,
    evaluated without a tape."""
    return _error_rate(_eval_logits(model, x), y)


def train(cfg, data):
    """Run SGD with momentum and selective weight decay; returns (RunResult, model).

    Weight decay touches only the parameters flagged for it (branch and
    projection affines), never normalization gains/biases or w_skip. A
    non-finite training loss ends the run: parameters roll back to the
    start of the offending epoch, the epoch is recorded, the error rate
    is pinned to 1.0, and the remaining curve entries are inf.
    """
    t0 = time.perf_counter()
    model_cfg = ModelConfig(
        cfg.construction, cfg.depth, data.d_in, cfg.width, cfg.hidden, data.classes, cfg.w_skip_init
    )
    model = build_model(model_cfg, cfg.seed)
    rng = np.random.default_rng(cfg.seed)
    params = list(model.parameters())
    velocity = [np.zeros_like(p.data) for _, p, _ in params]
    n = len(data.x_train)
    uses_bn = cfg.construction.uses_bn

    train_curve, val_curve = [], []
    diverged_epoch = None
    logits = None  # of the test set, on the parameters after the last epoch
    for epoch in range(cfg.epochs):
        snapshot = [p.data.copy() for _, p, _ in params]
        lr = cfg.lr_at(epoch)
        perm = rng.permutation(n)
        model.set_norm_mode("training")
        loss_sum, seen, blew_up = 0.0, 0, False
        # overflow along the divergence path is expected and detected via
        # the loss, so numpy's warnings about it are noise here
        with np.errstate(over="ignore", invalid="ignore"):
            for sl in _batched(n, cfg.batch_size):
                idx = perm[sl]
                if uses_bn and len(idx) < 2:
                    continue  # batch statistics need at least two rows
                model.zero_grad()
                loss = softmax_cross_entropy(model.forward(Tensor(data.x_train[idx])), data.y_train[idx])
                value = float(loss.data)
                if not np.isfinite(value):
                    blew_up = True
                    break
                loss.backward()
                sgd_step(params, velocity, lr, cfg.momentum, cfg.weight_decay)
                loss_sum += value * len(idx)
                seen += len(idx)
        if seen == 0 and not blew_up:
            raise ConfigError("no usable batches; dataset too small for the batch size")
        if not blew_up and not all(np.isfinite(p.data).all() for _, p, _ in params):
            blew_up = True
        if blew_up:
            for (_, p, _), saved in zip(params, snapshot):
                p.data = saved
            diverged_epoch = epoch
            pad = cfg.epochs - len(train_curve)
            train_curve.extend([float("inf")] * pad)
            val_curve.extend([float("inf")] * pad)
            break
        train_curve.append(loss_sum / seen)
        logits = _eval_logits(model, data.x_test)
        val_curve.append(_mean_loss(logits, data.y_test))

    diverged = diverged_epoch is not None
    if diverged:
        error = 1.0
    else:
        if logits is None:
            logits = _eval_logits(model, data.x_test)
        error = _error_rate(logits, data.y_test)
    result = RunResult(
        label=cfg.construction.label(),
        arch=cfg.construction.arch(),
        lam=cfg.construction.lam,
        norm=cfg.construction.norm_label(),
        seed=cfg.seed,
        error_rate=error,
        train_loss=tuple(train_curve),
        val_loss=tuple(val_curve),
        diverged=diverged,
        diverged_epoch=diverged_epoch,
        wall_clock=time.perf_counter() - t0,
        config=cfg,
    )
    return result, model


def run_matrix(constructions, seeds, base_cfg, data, progress=None):
    """Train every construction x seed cell; returns the results in run order.

    Individual divergences are flagged in their rows and the matrix
    continues. ``progress``, if given, is called with each finished
    RunResult. An empty construction or seed list is refused.
    """
    if not constructions or not seeds:
        raise ConfigError("run_matrix needs at least one construction and one seed")
    results = []
    for construction in constructions:
        for seed in seeds:
            cfg = replace(base_cfg, construction=construction, seed=seed)
            result, _ = train(cfg, data)
            results.append(result)
            if progress is not None:
                progress(result)
    return results


_MATRIX_COLUMNS = (
    "row,method,architecture,lambda,norm,seed,error_rate,error_std,diverged,diverged_epoch"
).split(",")


def matrix_csv(results):
    """Render matrix results as CSV: one row per run, then one summary
    row per construction with mean and population std of the error.

    Floats are written with repr so parsing the file recovers them
    bit-exactly; no timing information is included, which keeps reruns
    byte-identical.
    """
    rows, groups = [], {}
    for r in results:
        groups.setdefault((r.label, r.arch), []).append(r)
        rows.append(["run", r.label, r.arch, f"{r.lam:g}", r.norm, r.seed, float(r.error_rate), None,
                     int(r.diverged), r.diverged_epoch])
    for members in groups.values():
        first = members[0]
        errors = np.array([m.error_rate for m in members])
        rows.append(["summary", first.label, first.arch, f"{first.lam:g}", first.norm, None, errors.mean(),
                     errors.std(), sum(int(m.diverged) for m in members), None])
    return csv_text(_MATRIX_COLUMNS, rows)


def curves_csv(result):
    """Per-epoch loss curves of one run as CSV (repr floats; inf allowed)."""
    curves = zip(result.train_loss, result.val_loss)
    rows = [(epoch, float(tl), float(vl)) for epoch, (tl, vl) in enumerate(curves)]
    return csv_text(("epoch", "train_loss", "val_loss"), rows)


def _cell(x):
    if x is None:
        return ""
    return repr(float(x)) if isinstance(x, float) else str(x)


def csv_text(header, rows):
    """CSV text of a header (a sequence of column names) and rows, the
    writer :func:`read_csv_rows` reads back: floats are written with repr,
    so they parse back bit-exactly, None as an empty cell, anything else
    with str, and every line, the last one too, ends in a newline."""
    return "".join(",".join(_cell(x) for x in line) + "\n" for line in [header, *rows])


def read_csv_rows(text):
    """Parse CSV text back into dicts, converting numeric fields with float()."""
    rows = []
    for row in csv.DictReader(io.StringIO(text)):
        parsed = {}
        for key, value in row.items():
            if value is None or value == "":
                parsed[key] = None
                continue
            try:
                number = float(value)
            except ValueError:
                parsed[key] = value
                continue
            parsed[key] = int(number) if key in ("seed", "epoch", "diverged", "diverged_epoch", "block_index") else number
        rows.append(parsed)
    return rows


def _environment():
    """What produced the numbers: the Python, numpy and BLAS versions, the
    BLAS thread variables and the CPU count."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas["name"], "version": blas["version"]}
    except (TypeError, KeyError):  # a numpy without the dict form, or a build that omits it
        blas = {"name": None, "version": None}
    threads = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas, **threads,
            "cpu_count": os.cpu_count()}


def write_manifest(path, config_dict, artifact_paths, wall_clock=None):
    """Write a JSON run manifest: config echo, sha256 of each artifact and
    the ``environment`` block (Python, numpy and BLAS versions, BLAS
    thread variables, CPU count)."""
    artifacts = {}
    for name, p in artifact_paths.items():
        with open(p, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        artifacts[name] = {"path": str(p), "sha256": digest}
    manifest = {"config": config_dict, "artifacts": artifacts, "environment": _environment()}
    if wall_clock is not None:
        manifest["wall_clock_seconds"] = wall_clock
    with open(path, "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
