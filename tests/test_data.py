"""Synthetic dataset generation and the binary image-batch reader."""

import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from skipnorm import ConfigError, DatasetSpec, FormatError, gen_synthetic, load_cifar10

RECORD = 3073


def write_batch(path, labels, rng):
    """One binary batch file: per record a label byte plus 3072 pixels."""
    n = len(labels)
    records = np.empty((n, RECORD), dtype=np.uint8)
    records[:, 0] = labels
    records[:, 1:] = rng.integers(0, 256, size=(n, RECORD - 1), dtype=np.uint8)
    path.write_bytes(records.tobytes())


def make_cifar_dir(tmp_path, n_train=200, n_test=100, seed=0):
    rng = np.random.default_rng(seed)
    labels_tr = np.tile(np.arange(10), n_train // 10).astype(np.uint8)
    labels_te = np.tile(np.arange(10), n_test // 10).astype(np.uint8)
    write_batch(tmp_path / "data_batch_1.bin", labels_tr, rng)
    write_batch(tmp_path / "test_batch.bin", labels_te, rng)
    return tmp_path


class TestSpecValidation:
    def test_unknown_source_rejected(self):
        with pytest.raises(ConfigError):
            DatasetSpec("mnist")

    def test_moons_must_have_two_classes(self):
        with pytest.raises(ConfigError):
            DatasetSpec("moons", classes=3)

    def test_cifar_must_have_ten_classes(self):
        with pytest.raises(ConfigError):
            DatasetSpec("cifar10", classes=3)

    def test_sample_counts_must_be_positive(self):
        with pytest.raises(ConfigError):
            DatasetSpec("spiral", n_train=0)

    def test_negative_noise_rejected(self):
        with pytest.raises(ConfigError):
            DatasetSpec("spiral", noise=-0.1)

    @pytest.mark.parametrize("noise", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_noise_rejected(self, noise):
        with pytest.raises(ConfigError):
            DatasetSpec("spiral", noise=noise)

    def test_fields_are_the_recipe(self):
        # cifar10's location and subset size are load_cifar10 arguments, not spec fields
        assert [f.name for f in fields(DatasetSpec)] == ["source", "classes", "n_train", "n_test", "noise", "seed"]


class TestSynthetic:
    def test_same_spec_is_bit_reproducible(self):
        spec = DatasetSpec("spiral", classes=3, n_train=100, n_test=50, noise=0.2, seed=4)
        a, b = gen_synthetic(spec), gen_synthetic(spec)
        np.testing.assert_array_equal(a.x_train, b.x_train)
        np.testing.assert_array_equal(a.y_train, b.y_train)
        np.testing.assert_array_equal(a.x_test, b.x_test)

    def test_different_seeds_differ(self):
        a = gen_synthetic(DatasetSpec("spiral", seed=0, n_train=64, n_test=16))
        b = gen_synthetic(DatasetSpec("spiral", seed=1, n_train=64, n_test=16))
        assert not np.array_equal(a.x_train, b.x_train)

    def test_class_balance_is_exact_to_one(self):
        data = gen_synthetic(DatasetSpec("spiral", classes=3, n_train=100, n_test=50))
        counts = np.bincount(data.y_train, minlength=3)
        assert counts.max() - counts.min() <= 1
        assert counts.sum() == 100

    def test_shapes_and_classes(self):
        data = gen_synthetic(DatasetSpec("moons", classes=2, n_train=40, n_test=20, noise=0.1))
        assert data.x_train.shape == (40, 2)
        assert data.x_test.shape == (20, 2)
        assert data.d_in == 2
        assert set(np.unique(data.y_train)) == {0, 1}

    def test_noise_free_spiral_arms_are_nearest_neighbor_separable(self):
        spec = DatasetSpec("spiral", classes=3, n_train=300, n_test=90, noise=0.0)
        data = gen_synthetic(spec)
        d2 = ((data.x_test[:, None, :] - data.x_train[None, :, :]) ** 2).sum(axis=2)
        predicted = data.y_train[np.argmin(d2, axis=1)]
        assert np.array_equal(predicted, data.y_test)

    def test_train_and_test_are_distinct_draws(self):
        data = gen_synthetic(DatasetSpec("spiral", n_train=64, n_test=64, noise=0.2))
        assert not np.array_equal(data.x_train, data.x_test)

    def test_cifar_source_is_not_synthetic(self):
        with pytest.raises(ConfigError):
            gen_synthetic(DatasetSpec("cifar10", classes=10))


class TestBatchFiles:
    def test_valid_directory_loads_balanced_subsets(self, tmp_path):
        make_cifar_dir(tmp_path)
        data = load_cifar10(tmp_path, subset=50, seed=0)
        assert data.x_train.shape == (50, 3072)
        assert data.x_test.shape == (10, 3072)
        counts = np.bincount(data.y_train, minlength=10)
        assert counts.max() - counts.min() <= 1

    def test_full_size_batch_file_parses(self, tmp_path):
        # the canonical file is 10,000 records of 3073 bytes
        rng = np.random.default_rng(1)
        labels = np.tile(np.arange(10), 1000).astype(np.uint8)
        write_batch(tmp_path / "data_batch_1.bin", labels, rng)
        write_batch(tmp_path / "test_batch.bin", labels[:100], rng)
        assert (tmp_path / "data_batch_1.bin").stat().st_size == 10_000 * RECORD
        data = load_cifar10(tmp_path, subset=100, seed=0)
        assert data.x_train.shape == (100, 3072)

    def test_train_normalization_uses_train_statistics(self, tmp_path):
        make_cifar_dir(tmp_path, n_train=500)
        data = load_cifar10(tmp_path, subset=500, seed=0)
        chan = data.x_train.reshape(-1, 3, 1024)
        np.testing.assert_allclose(chan.mean(axis=(0, 2)), 0.0, atol=1e-12)
        np.testing.assert_allclose(chan.std(axis=(0, 2)), 1.0, atol=1e-12)

    def test_subset_selection_is_deterministic(self, tmp_path):
        make_cifar_dir(tmp_path)
        a = load_cifar10(tmp_path, subset=40, seed=3)
        b = load_cifar10(tmp_path, subset=40, seed=3)
        np.testing.assert_array_equal(a.x_train, b.x_train)
        np.testing.assert_array_equal(a.y_train, b.y_train)
        c = load_cifar10(tmp_path, subset=40, seed=4)
        assert not np.array_equal(a.y_train, c.y_train) or not np.array_equal(a.x_train, c.x_train)

    def test_truncated_file_error_names_the_file(self, tmp_path):
        make_cifar_dir(tmp_path)
        bad = tmp_path / "data_batch_1.bin"
        bad.write_bytes(bad.read_bytes()[:-7])
        with pytest.raises(FormatError, match="data_batch_1.bin"):
            load_cifar10(tmp_path, subset=50)

    def test_label_byte_out_of_range_rejected(self, tmp_path):
        make_cifar_dir(tmp_path)
        bad = tmp_path / "data_batch_1.bin"
        raw = bytearray(bad.read_bytes())
        raw[0] = 11
        bad.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="label byte"):
            load_cifar10(tmp_path, subset=50)

    def test_missing_test_batch_rejected(self, tmp_path):
        rng = np.random.default_rng(2)
        write_batch(tmp_path / "data_batch_1.bin", np.arange(10, dtype=np.uint8), rng)
        with pytest.raises(FormatError, match="test_batch.bin"):
            load_cifar10(tmp_path, subset=10)

    def test_directory_without_batches_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="no data_batch"):
            load_cifar10(tmp_path, subset=10)

    def test_subset_larger_than_class_pool_rejected(self, tmp_path):
        make_cifar_dir(tmp_path, n_train=50)
        with pytest.raises(ConfigError, match="class"):
            load_cifar10(tmp_path, subset=200)


class TestCorruptedBatchFiles:
    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_only_typed_errors(self, tmp_path, data):
        """A truncated, overwritten, extended or replaced batch file either
        loads or raises FormatError or ConfigError, never anything else."""
        root = make_cifar_dir(Path(tempfile.mkdtemp(dir=tmp_path)), n_train=30, n_test=20)
        name = data.draw(st.sampled_from(["data_batch_1.bin", "test_batch.bin", "data_batch_2.bin"]))
        path = root / name
        raw = bytearray(path.read_bytes() if path.exists() else b"")
        op = data.draw(st.sampled_from(["truncate", "overwrite", "label", "append", "replace"]))
        if op == "truncate":
            del raw[data.draw(st.integers(0, max(len(raw) - 1, 0))):]
        elif op == "overwrite" and raw:
            for _ in range(data.draw(st.integers(1, 5))):
                raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
        elif op == "label" and raw:
            raw[RECORD * data.draw(st.integers(0, len(raw) // RECORD - 1))] = data.draw(st.integers(0, 255))
        elif op == "append":
            raw += data.draw(st.binary(min_size=1, max_size=2 * RECORD))
        else:
            raw = data.draw(st.binary(max_size=3 * RECORD))
        path.write_bytes(bytes(raw))
        subset = data.draw(st.sampled_from([10, 20, 30]))
        try:
            loaded = load_cifar10(root, subset=subset, seed=data.draw(st.integers(0, 3)))
        except (FormatError, ConfigError):
            return
        assert loaded.x_train.shape == (subset, 3072)
        assert np.isfinite(loaded.x_train).all() and np.isfinite(loaded.x_test).all()
