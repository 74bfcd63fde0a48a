"""Datasets for the desk-scale harness.

Two deterministic synthetic point-cloud families (spiral, moons) and a
loader for the CIFAR-10 binary batch format. Everything is double
precision and reproducible from an explicit seed.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError, _check_seed

__all__ = ["DatasetSpec", "Dataset", "gen_synthetic", "load_cifar10"]

# one CIFAR-10 record: label byte + 32*32*3 channel-planar pixel bytes
_RECORD = 3073
_PIXELS = 3072
_CIFAR_CLASSES = 10


@dataclass(frozen=True)
class DatasetSpec:
    """Recipe for one dataset; generation is a pure function of it."""

    source: str
    classes: int = 3
    n_train: int = 512
    n_test: int = 512
    noise: float = 0.2
    seed: int = 0

    def __post_init__(self):
        _check_seed(self.seed)
        if self.source not in ("spiral", "moons"):
            raise ConfigError(f"unknown dataset source {self.source!r}; CIFAR-10 loads through load_cifar10")
        if self.classes < 2:
            raise ConfigError("need at least 2 classes")
        if self.source == "moons" and self.classes != 2:
            raise ConfigError("moons is a two-class dataset")
        if self.n_train < 1 or self.n_test < 1:
            raise ConfigError("train and test sample counts must be positive")
        if not (math.isfinite(self.noise) and self.noise >= 0):
            raise ConfigError(f"noise level must be finite and non-negative, got {self.noise}")


@dataclass
class Dataset:
    name: str
    classes: int
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray

    @property
    def d_in(self):
        return self.x_train.shape[1]


def _balanced_counts(n, classes):
    """Split n into per-class counts, exact to +-1."""
    base, extra = divmod(n, classes)
    return [base + (1 if k < extra else 0) for k in range(classes)]


def _spiral(rng, n, classes, noise):
    xs, ys = [], []
    for k, m in enumerate(_balanced_counts(n, classes)):
        # radius grows along the arm; arms start away from the shared origin
        r = np.linspace(0.1, 1.0, m)
        t = np.linspace(k * 4.0, (k + 1) * 4.0, m) + noise * rng.normal(size=m)
        xs.append(np.stack([r * np.sin(t), r * np.cos(t)], axis=1))
        ys.append(np.full(m, k, dtype=np.int64))
    return np.concatenate(xs), np.concatenate(ys)


def _moons(rng, n, noise):
    n0, n1 = _balanced_counts(n, 2)
    t0 = np.linspace(0.0, np.pi, n0)
    t1 = np.linspace(0.0, np.pi, n1)
    upper = np.stack([np.cos(t0), np.sin(t0)], axis=1)
    lower = np.stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)], axis=1)
    x = np.concatenate([upper, lower])
    x = x + noise * rng.normal(size=x.shape)
    y = np.concatenate([np.zeros(n0, dtype=np.int64), np.ones(n1, dtype=np.int64)])
    return x, y


def gen_synthetic(spec):
    """Generate a spiral or moons dataset, a pure function of its recipe.

    Train and test splits are drawn independently from one seeded
    stream, so they share no points and rerunning the same spec yields
    identical arrays.
    """
    rng = np.random.default_rng(spec.seed)
    splits = []
    for n in (spec.n_train, spec.n_test):
        if spec.source == "spiral":
            x, y = _spiral(rng, n, spec.classes, spec.noise)
        else:
            x, y = _moons(rng, n, spec.noise)
        perm = rng.permutation(len(x))
        splits.append((np.ascontiguousarray(x[perm]), np.ascontiguousarray(y[perm])))
    (x_tr, y_tr), (x_te, y_te) = splits
    return Dataset(spec.source, spec.classes, x_tr, y_tr, x_te, y_te)


def _read_batch_file(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) == 0 or len(raw) % _RECORD != 0:
        raise FormatError(f"{path}: length {len(raw)} is not a positive multiple of {_RECORD}")
    records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, _RECORD)
    labels = records[:, 0].astype(np.int64)
    if labels.max() > 9:
        raise FormatError(f"{path}: label byte {int(labels.max())} out of range 0..9")
    return labels, records[:, 1:]


def _stratified_pick(rng, labels, total, classes, what):
    """Deterministic class-balanced index selection, exact to +-1."""
    picks = []
    for c, want in enumerate(_balanced_counts(total, classes)):
        pool = np.nonzero(labels == c)[0]
        if len(pool) < want:
            raise ConfigError(f"{what}: class {c} has {len(pool)} samples, need {want}")
        picks.append(rng.choice(pool, size=want, replace=False))
    idx = np.concatenate(picks)
    return idx[rng.permutation(len(idx))]


def load_cifar10(path, subset=2000, seed=0):
    """Load CIFAR-10 binary batches under ``path`` as flat row vectors.

    Reads every ``data_batch_*.bin`` for training and ``test_batch.bin``
    for testing, takes a seeded stratified subset of each (the test
    subset is a fifth of ``subset``, at least 10 and at most the test
    file), scales pixels to [0,1], and standardizes per channel with
    statistics of the training subset.
    """
    _check_seed(seed)
    if subset < _CIFAR_CLASSES:
        raise ConfigError(f"subset must cover all {_CIFAR_CLASSES} classes, got {subset}")
    train_files = sorted(
        os.path.join(path, f) for f in os.listdir(path)
        if f.startswith("data_batch_") and f.endswith(".bin")
    )
    if not train_files:
        raise FormatError(f"{path}: no data_batch_*.bin files found")
    test_file = os.path.join(path, "test_batch.bin")
    if not os.path.exists(test_file):
        raise FormatError(f"{test_file}: missing")

    parts = [_read_batch_file(f) for f in train_files]
    y_tr = np.concatenate([p[0] for p in parts])
    x_tr = np.concatenate([p[1] for p in parts])
    y_te, x_te = _read_batch_file(test_file)

    test_subset = min(max(_CIFAR_CLASSES, subset // 5), len(y_te))
    rng = np.random.default_rng(seed)
    tr_idx = _stratified_pick(rng, y_tr, subset, _CIFAR_CLASSES, "train subset")
    te_idx = _stratified_pick(rng, y_te, test_subset, _CIFAR_CLASSES, "test subset")

    x_tr = x_tr[tr_idx].astype(np.float64) / 255.0
    x_te = x_te[te_idx].astype(np.float64) / 255.0
    # channel-planar layout: columns [1024c, 1024(c+1)) hold channel c
    chan_tr = x_tr.reshape(-1, 3, _PIXELS // 3)
    mean = chan_tr.mean(axis=(0, 2))
    std = np.maximum(chan_tr.std(axis=(0, 2)), 1e-8)
    x_tr = ((chan_tr - mean[None, :, None]) / std[None, :, None]).reshape(-1, _PIXELS)
    x_te = ((x_te.reshape(-1, 3, _PIXELS // 3) - mean[None, :, None]) / std[None, :, None]).reshape(-1, _PIXELS)
    return Dataset("cifar10", _CIFAR_CLASSES, x_tr, y_tr[tr_idx], x_te, y_te[te_idx])
