"""Unit tests for matrix persistence and the dataset cache."""

from pathlib import Path

import numpy as np
import pytest

from conftest import assert_structure_equal
from repro.matrix.io import cache_dir, cached_matrix, load_matrix, save_matrix
from repro.matrix.random import random_sparse


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_MNC_CACHE", str(tmp_path / "cache"))
    yield


class TestSaveLoad:
    def test_roundtrip(self, tmp_path):
        matrix = random_sparse(20, 30, 0.2, seed=1)
        path = tmp_path / "m.npz"
        save_matrix(path, matrix)
        assert_structure_equal(load_matrix(path), matrix)

    def test_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "m.npz"
        save_matrix(path, np.eye(3))
        assert path.exists()


class TestCachedMatrix:
    def test_builds_once(self):
        calls = []

        def build():
            calls.append(1)
            return random_sparse(10, 10, 0.3, seed=2)

        first = cached_matrix("test-key", build)
        second = cached_matrix("test-key", build)
        assert len(calls) == 1
        assert_structure_equal(first, second)

    def test_distinct_keys_distinct_builds(self):
        a = cached_matrix("key-a", lambda: np.eye(3))
        b = cached_matrix("key-b", lambda: np.ones((2, 2)))
        assert a.shape == (3, 3)
        assert b.shape == (2, 2)

    def test_corrupt_cache_entry_rebuilt(self):
        cached_matrix("key-c", lambda: np.eye(4))
        # Corrupt every cache file, then ensure the build recovers.
        for file in cache_dir().glob("*.npz"):
            file.write_bytes(b"not an npz file")
        rebuilt = cached_matrix("key-c", lambda: np.eye(4))
        assert rebuilt.shape == (4, 4)

    def test_interrupted_write_publishes_nothing(self, monkeypatch):
        import repro.matrix.io as io

        def torn_save(path, matrix):
            Path(path).write_bytes(b"PK\x03\x04")  # a zip cut short
            raise RuntimeError("writer killed")

        with monkeypatch.context() as patch:
            patch.setattr(io, "save_matrix", torn_save)
            with pytest.raises(RuntimeError):
                cached_matrix("key-t", lambda: np.eye(4))
        assert cached_matrix("key-t", lambda: np.eye(4)).shape == (4, 4)

    def test_cache_dir_respects_env(self, tmp_path):
        assert str(cache_dir()).startswith(str(tmp_path))
