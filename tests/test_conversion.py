"""Unit tests for repro.matrix.conversion."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.sketch import MNCSketch
from repro.errors import ShapeError
from repro.estimators import MetaACEstimator
from repro.matrix.conversion import (
    as_csc,
    as_csr,
    boolean_structure,
    is_sparse,
    to_dense,
)


class TestAsCsr:
    def test_from_dense(self):
        dense = np.array([[1.0, 0.0], [0.0, 2.0]])
        csr = as_csr(dense)
        assert isinstance(csr, sp.csr_array)
        assert csr.nnz == 2
        assert csr.shape == (2, 2)

    def test_from_nested_lists(self):
        csr = as_csr([[0, 1], [2, 0]])
        assert csr.nnz == 2

    def test_from_1d_becomes_row_vector(self):
        csr = as_csr(np.array([1.0, 0.0, 3.0]))
        assert csr.shape == (1, 3)
        assert csr.nnz == 2

    def test_idempotent_without_copy(self):
        csr = as_csr(np.eye(3))
        again = as_csr(csr)
        assert again is csr

    def test_copy_forces_new_object(self):
        csr = as_csr(np.eye(3))
        copied = as_csr(csr, copy=True)
        assert copied is not csr
        assert (copied != csr).nnz == 0

    def test_explicit_zeros_eliminated(self):
        coo = sp.coo_array(
            (np.array([0.0, 1.0]), (np.array([0, 1]), np.array([0, 1]))),
            shape=(2, 2),
        )
        csr = as_csr(coo)
        assert csr.nnz == 1

    def test_duplicates_summed(self):
        coo = sp.coo_array(
            (np.array([1.0, 2.0]), (np.array([0, 0]), np.array([0, 0]))),
            shape=(1, 1),
        )
        csr = as_csr(coo)
        assert csr.nnz == 1
        assert csr.toarray()[0, 0] == 3.0

    def test_duplicates_cancelling_to_zero_removed(self):
        coo = sp.coo_array(
            (np.array([1.0, -1.0]), (np.array([0, 0]), np.array([0, 0]))),
            shape=(1, 1),
        )
        assert as_csr(coo).nnz == 0

    def test_rejects_3d(self):
        with pytest.raises(ShapeError):
            as_csr(np.zeros((2, 2, 2)))

    def test_empty_matrix(self):
        csr = as_csr(np.zeros((0, 5)))
        assert csr.shape == (0, 5)
        assert csr.nnz == 0

    def test_from_csc_input(self):
        csc = sp.csc_array(np.eye(4))
        csr = as_csr(csc)
        assert isinstance(csr, sp.csr_array)
        assert csr.nnz == 4

    def test_from_spmatrix_input(self):
        legacy = sp.csr_matrix(np.eye(3))
        csr = as_csr(legacy)
        assert isinstance(csr, sp.csr_array)


class TestAsCsc:
    def test_roundtrip_structure(self):
        dense = np.array([[1, 0, 2], [0, 3, 0]])
        csc = as_csc(dense)
        assert isinstance(csc, sp.csc_array)
        np.testing.assert_array_equal(csc.toarray(), dense)

    def test_idempotent(self):
        csc = as_csc(np.eye(3))
        assert as_csc(csc) is csc

    def test_explicit_zeros_eliminated(self):
        coo = sp.coo_array(
            (np.array([0.0]), (np.array([0]), np.array([0]))), shape=(1, 2)
        )
        assert as_csc(coo).nnz == 0


def _with_explicit_zero(kind):
    """A canonical 2x3 matrix of *kind* storing one explicit zero."""
    data = np.array([1.0, 0.0, 2.0])
    indices = np.array([0, 1, 2])
    indptr = np.array([0, 2, 3])
    if kind == "csc_array":
        return sp.csc_array((data, indices, indptr), shape=(3, 2))
    cls = sp.csr_array if kind == "csr_array" else sp.csr_matrix
    return cls((data, indices, indptr), shape=(2, 3))


class TestInputNotMutated:
    @pytest.mark.parametrize("kind", ["csr_array", "csr_matrix", "csc_array"])
    @pytest.mark.parametrize(
        "structural_nnz",
        [
            lambda m: as_csr(m).nnz,
            lambda m: as_csc(m).nnz,
            lambda m: MNCSketch.from_matrix(m).total_nnz,
            lambda m: MetaACEstimator().build(m).nnz_estimate,
        ],
        ids=["as_csr", "as_csc", "from_matrix", "meta_ac_build"],
    )
    def test_explicit_zero_input_unchanged(self, kind, structural_nnz):
        matrix = _with_explicit_zero(kind)
        assert matrix.has_canonical_format
        before = (
            matrix.data.copy(), matrix.indices.copy(), matrix.indptr.copy()
        )
        assert structural_nnz(matrix) == 2
        np.testing.assert_array_equal(matrix.data, before[0])
        np.testing.assert_array_equal(matrix.indices, before[1])
        np.testing.assert_array_equal(matrix.indptr, before[2])
        assert matrix.nnz == 3

    def test_spare_capacity_trimmed(self):
        csr = sp.csr_array(
            (np.array([1.0, 2.0]), np.array([0, 1]), np.array([0, 1, 2])),
            shape=(2, 2),
        )
        # Arrays longer than nnz (scipy's constructor prunes, assignment
        # does not): canonical and zero-free, but not yet trimmed.
        csr.data = np.array([1.0, 2.0, 9.0])
        csr.indices = np.array([0, 1, 0], dtype=csr.indices.dtype)
        result = as_csr(csr)
        assert result.nnz == len(result.data) == len(result.indices) == 2
        assert len(csr.data) == len(csr.indices) == 3

    def test_nan_counts_as_nonzero(self):
        csr = as_csr(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        assert as_csr(csr) is csr
        assert csr.nnz == 2

    def test_zero_free_csr_matrix_not_copied(self):
        legacy = sp.csr_matrix(np.eye(3))
        assert np.shares_memory(as_csr(legacy).data, legacy.data)


class TestToDense:
    def test_from_sparse(self):
        dense = to_dense(sp.csr_array(np.eye(3)))
        np.testing.assert_array_equal(dense, np.eye(3))

    def test_from_dense_passthrough_values(self):
        src = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(to_dense(src), src)

    def test_from_1d(self):
        assert to_dense(np.array([1.0, 2.0])).shape == (1, 2)


class TestBooleanStructure:
    def test_values_become_one(self):
        structure = boolean_structure(np.array([[5.0, 0.0], [-3.0, 0.5]]))
        np.testing.assert_array_equal(
            structure.toarray(), np.array([[1, 0], [1, 1]], dtype=np.int8)
        )

    def test_dtype_is_int8(self):
        assert boolean_structure(np.eye(2)).data.dtype == np.int8


class TestIsSparse:
    def test_sparse_true(self):
        assert is_sparse(sp.csr_array((2, 2)))

    def test_dense_false(self):
        assert not is_sparse(np.eye(2))
