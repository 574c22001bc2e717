"""Tests for sketch serialization and repeated-run aggregation."""

import numpy as np
import pytest

from repro.core.serialize import (
    load_sketch,
    save_sketch,
    sketch_from_arrays,
    sketch_to_arrays,
)
from repro.core.sketch import MNCSketch
from repro.errors import SketchError
from repro.matrix.random import diagonal_matrix, random_sparse


class TestRoundTrip:
    def test_full_sketch(self, tmp_path):
        sketch = MNCSketch.from_matrix(random_sparse(40, 30, 0.2, seed=1))
        path = tmp_path / "sketch.npz"
        save_sketch(path, sketch)
        loaded = load_sketch(path)
        assert loaded.shape == sketch.shape
        np.testing.assert_array_equal(loaded.hr, sketch.hr)
        np.testing.assert_array_equal(loaded.hc, sketch.hc)
        np.testing.assert_array_equal(loaded.her, sketch.her)
        np.testing.assert_array_equal(loaded.hec, sketch.hec)
        assert loaded.exact == sketch.exact

    def test_sketch_without_extensions(self, tmp_path):
        sketch = MNCSketch.from_matrix(np.eye(5))
        path = tmp_path / "sketch.npz"
        save_sketch(path, sketch)
        loaded = load_sketch(path)
        assert loaded.her is None
        assert loaded.hec is None

    def test_diagonal_flag_preserved(self, tmp_path):
        sketch = MNCSketch.from_matrix(diagonal_matrix(8, seed=2))
        path = tmp_path / "sketch.npz"
        save_sketch(path, sketch)
        assert load_sketch(path).fully_diagonal

    def test_estimates_identical_after_roundtrip(self, tmp_path):
        from repro.core.estimate import estimate_product_nnz

        a = MNCSketch.from_matrix(random_sparse(30, 20, 0.3, seed=3))
        b = MNCSketch.from_matrix(random_sparse(20, 25, 0.3, seed=4))
        save_sketch(tmp_path / "a.npz", a)
        save_sketch(tmp_path / "b.npz", b)
        direct = estimate_product_nnz(a, b)
        loaded = estimate_product_nnz(
            load_sketch(tmp_path / "a.npz"), load_sketch(tmp_path / "b.npz")
        )
        assert loaded == direct

    def test_creates_parent_dirs(self, tmp_path):
        sketch = MNCSketch.from_matrix(np.eye(3))
        path = tmp_path / "deep" / "dir" / "sketch.npz"
        save_sketch(path, sketch)
        assert path.exists()


class TestValidation:
    def test_missing_field_rejected(self):
        with pytest.raises(SketchError):
            sketch_from_arrays({"version": np.array([1])})

    def test_wrong_version_rejected(self):
        sketch = MNCSketch.from_matrix(np.eye(3))
        arrays = sketch_to_arrays(sketch)
        arrays["version"] = np.array([99])
        with pytest.raises(SketchError):
            sketch_from_arrays(arrays)

    def test_future_version_rejected_with_clear_message(self):
        sketch = MNCSketch.from_matrix(np.eye(3))
        arrays = sketch_to_arrays(sketch)
        arrays["version"] = np.array([2])
        with pytest.raises(SketchError, match="version 2 is newer"):
            sketch_from_arrays(arrays)

    def test_future_version_checked_before_fields(self):
        # A future format may have renamed fields entirely; the version
        # error must win over any "missing field" complaint.
        with pytest.raises(SketchError, match="newer than this build"):
            sketch_from_arrays({"version": np.array([3])})

    def test_future_version_rejected_on_load(self, tmp_path):
        sketch = MNCSketch.from_matrix(random_sparse(10, 8, 0.3, seed=5))
        arrays = sketch_to_arrays(sketch)
        arrays["version"] = np.array([2])
        path = tmp_path / "future.npz"
        np.savez(path, **arrays)
        with pytest.raises(SketchError, match="newer"):
            load_sketch(path)

    def test_missing_version_field_rejected(self):
        sketch = MNCSketch.from_matrix(np.eye(3))
        arrays = sketch_to_arrays(sketch)
        del arrays["version"]
        with pytest.raises(SketchError, match="missing field 'version'"):
            sketch_from_arrays(arrays)

    def test_corrupt_counts_rejected(self):
        sketch = MNCSketch.from_matrix(np.eye(3))
        arrays = sketch_to_arrays(sketch)
        arrays["hr"] = np.array([99, 0, 0])  # exceeds n -> invariant violation
        with pytest.raises(SketchError):
            sketch_from_arrays(arrays)


class TestRunRepeated:
    @pytest.fixture(autouse=True)
    def isolated_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_MNC_CACHE", str(tmp_path))

    def test_aggregates_over_seeds(self):
        from repro.sparsest import execute_outcomes, requests_for

        (outcome,) = execute_outcomes(
            requests_for(["B1.2"], ["mnc"], repetitions=3, scale=0.02)
        )
        assert outcome.ok
        assert outcome.relative_error == pytest.approx(1.0)
        assert outcome.seconds > 0

    def test_unsupported_short_circuits(self):
        from repro.sparsest import execute_outcomes, requests_for

        (outcome,) = execute_outcomes(
            requests_for(["B2.5"], ["layered_graph"], repetitions=3, scale=0.02)
        )
        assert outcome.status == "unsupported"

    def test_invalid_repetitions(self):
        from repro.sparsest import requests_for

        with pytest.raises(ValueError):
            requests_for(["B1.2"], ["mnc"], repetitions=0)
