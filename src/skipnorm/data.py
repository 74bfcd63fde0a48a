"""Datasets for the desk-scale harness.

Two deterministic synthetic point-cloud families (spiral, moons) and a
loader for the CIFAR-10 binary batch format. Everything is double
precision and reproducible from an explicit seed.
"""

import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError, _check_batch, _check_count, _check_doubles, _check_real, _open_regular

__all__ = ["DatasetSpec", "Dataset", "gen_synthetic", "load_cifar10"]

# one CIFAR-10 record: label byte + 32*32*3 channel-planar pixel bytes
_RECORD = 3073
_PIXELS = 3072
_CIFAR_CLASSES = 10
# a standard batch file holds 10,000 records; a larger one is refused unread
_MAX_RECORDS = 10000


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
        _check_count(self.seed, "seed")
        if self.source not in ("spiral", "moons"):
            raise ConfigError(f"unknown dataset source {self.source!r}; CIFAR-10 loads through load_cifar10")
        _check_count(self.classes, "classes", 2)
        if self.source == "moons" and self.classes != 2:
            raise ConfigError("moons is a two-class dataset")
        _check_count(self.n_train, "n_train", 1)
        _check_count(self.n_test, "n_test", 1)
        if self.classes > min(self.n_train, self.n_test):
            raise ConfigError(f"{self.classes} classes need at least as many train and test samples")
        _check_real(self.noise, "noise")
        # each row is two float64 features and an int64 label
        _check_doubles(3 * (self.n_train + self.n_test), "the dataset")


@dataclass
class Dataset:
    """A labeled train set and test set of ``classes`` classes.

    Both sets pass the batch rule of ``skipnorm.errors`` when the dataset
    is made: each holds at least one row, its inputs are finite real
    numbers as wide as the train set's, and its labels are one integer
    in [0, classes) per row. The arrays are checked, not converted: each
    field keeps the array it was given. So ``train``, ``run_matrix`` and
    the command line refuse bad data before the first epoch, and a NaN
    in the data is refused, not reported as a diverged run.
    """

    classes: int
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray

    def __post_init__(self):
        _check_count(self.classes, "classes", 1)
        width = None
        for x, y in ((self.x_train, self.y_train), (self.x_test, self.y_test)):
            rows, width = _check_batch(x, width, nonempty=True).shape
            _check_batch(y, rows, self.classes)

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
    return Dataset(spec.classes, x_tr, y_tr, x_te, y_te)


def _read_labels(path):
    """The label bytes of one batch file, read whole and dropped but for its labels."""
    with open(_open_regular(path, os.O_RDONLY), "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size == 0 or size % _RECORD != 0:
            raise FormatError(f"{path}: length {size} is not a positive multiple of {_RECORD}")
        if size > _MAX_RECORDS * _RECORD:
            raise FormatError(f"{path}: {size // _RECORD} records, more than the {_MAX_RECORDS} of a batch file")
        raw = fh.read(size)
    if len(raw) != size:
        raise FormatError(f"{path}: the file ended before its {size} bytes did")
    labels = np.frombuffer(raw, dtype=np.uint8)[::_RECORD].astype(np.int64)
    if labels.max() > 9:
        raise FormatError(f"{path}: label byte {int(labels.max())} out of range 0..9")
    return labels


def _read_rows(paths, labels, idx):
    """Pixel rows ``idx`` of the records of ``paths`` in file order, whose
    labels are ``labels``: each chosen record is read on its own, and one
    cut short or with another label byte than the first pass saw raises."""
    rows = np.empty((len(idx), _PIXELS), dtype=np.uint8)
    start = 0
    for path, y in zip(paths, labels):
        with open(_open_regular(path, os.O_RDONLY), "rb") as fh:
            for r in np.nonzero((idx >= start) & (idx < start + len(y)))[0]:
                k = int(idx[r]) - start
                record = os.pread(fh.fileno(), _RECORD, k * _RECORD)
                if len(record) != _RECORD or record[0] != y[k]:
                    raise FormatError(f"{path}: record {k} changed after its label was read")
                rows[r] = np.frombuffer(record, dtype=np.uint8, offset=1)
        start += len(y)
    return rows


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
    statistics of the training subset. Both subsets are charged to
    MAX_DOUBLES, a row of pixels and a label each, before any file is
    listed; a batch file of more than 10,000 records is refused unread.
    A first pass keeps only each file's labels, one file in memory at a
    time, and a second reads just the chosen records, so the peak is
    about one batch file's bytes plus the subsets, however many files
    there are.
    """
    _check_count(seed, "seed")
    _check_count(subset, "subset", _CIFAR_CLASSES)  # one row of each class at least
    _check_doubles((subset + max(_CIFAR_CLASSES, subset // 5)) * _RECORD, "the CIFAR-10 subsets")
    train_files = sorted(
        os.path.join(path, f) for f in os.listdir(path)
        if f.startswith("data_batch_") and f.endswith(".bin")
    )
    if not train_files:
        raise FormatError(f"{path}: no data_batch_*.bin files found")
    test_file = os.path.join(path, "test_batch.bin")
    if not os.path.exists(test_file):
        raise FormatError(f"{test_file}: missing")

    train_labels = [_read_labels(f) for f in train_files]
    y_tr = np.concatenate(train_labels)
    y_te = _read_labels(test_file)

    test_subset = min(max(_CIFAR_CLASSES, subset // 5), len(y_te))
    rng = np.random.default_rng(seed)
    tr_idx = _stratified_pick(rng, y_tr, subset, _CIFAR_CLASSES, "train subset")
    te_idx = _stratified_pick(rng, y_te, test_subset, _CIFAR_CLASSES, "test subset")

    x_tr = _read_rows(train_files, train_labels, tr_idx).astype(np.float64) / 255.0
    x_te = _read_rows([test_file], [y_te], te_idx).astype(np.float64) / 255.0
    # channel-planar layout: columns [1024c, 1024(c+1)) hold channel c
    chan_tr = x_tr.reshape(-1, 3, _PIXELS // 3)
    mean = chan_tr.mean(axis=(0, 2))
    std = np.maximum(chan_tr.std(axis=(0, 2)), 1e-8)
    x_tr = ((chan_tr - mean[None, :, None]) / std[None, :, None]).reshape(-1, _PIXELS)
    x_te = ((x_te.reshape(-1, 3, _PIXELS // 3) - mean[None, :, None]) / std[None, :, None]).reshape(-1, _PIXELS)
    return Dataset(_CIFAR_CLASSES, x_tr, y_tr[tr_idx], x_te, y_te[te_idx])
