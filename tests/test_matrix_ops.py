"""Unit tests for the ground-truth structural operations."""

from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_structure_equal
from repro.errors import ShapeError
from repro.estimators import ExactOracle
from repro.matrix import ops
from repro.matrix.conversion import as_csr
from repro.matrix.ops import (
    DENSE_PRODUCT_MAX_BYTES,
    boolean_matmul,
    cbind,
    col_sums,
    diag_extract,
    diag_matrix,
    equals_zero,
    ewise_add,
    ewise_mult,
    matmul,
    matmul_nnz,
    not_equals_zero,
    rbind,
    reshape_rowwise,
    row_sums,
    transpose,
)
from repro.matrix.random import random_sparse
from repro.opcodes import Op


class TestMatmul:
    def test_matches_numpy_boolean_product(self):
        rng = np.random.default_rng(5)
        a = (rng.random((12, 9)) < 0.3).astype(float)
        b = (rng.random((9, 14)) < 0.3).astype(float)
        expected = (a @ b) != 0
        result = matmul(a, b)
        np.testing.assert_array_equal(result.toarray() != 0, expected)

    def test_no_cancellation(self):
        # +1 and -1 would cancel numerically; structurally they must not.
        a = np.array([[1.0, -1.0]])
        b = np.array([[1.0], [1.0]])
        assert matmul(a, b).nnz == 1

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(np.ones((2, 3)), np.ones((2, 3)))

    def test_identity(self):
        x = random_sparse(20, 15, 0.2, seed=1)
        assert_structure_equal(matmul(np.eye(20), x), x)

    def test_empty_operand(self):
        result = matmul(np.zeros((3, 4)), np.ones((4, 2)))
        assert result.nnz == 0

    def test_alias(self):
        a = random_sparse(5, 6, 0.4, seed=2)
        b = random_sparse(6, 7, 0.4, seed=3)
        assert_structure_equal(matmul(a, b), boolean_matmul(a, b))


class TestEwise:
    def test_add_is_union(self):
        a = np.array([[1, 0], [0, 1]])
        b = np.array([[1, 1], [0, 0]])
        assert_structure_equal(ewise_add(a, b), np.array([[1, 1], [0, 1]]))

    def test_add_no_cancellation(self):
        a = np.array([[2.0]])
        b = np.array([[-2.0]])
        assert ewise_add(a, b).nnz == 1

    def test_mult_is_intersection(self):
        a = np.array([[1, 0], [1, 1]])
        b = np.array([[1, 1], [0, 1]])
        assert_structure_equal(ewise_mult(a, b), np.array([[1, 0], [0, 1]]))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ewise_add(np.ones((2, 2)), np.ones((3, 2)))
        with pytest.raises(ShapeError):
            ewise_mult(np.ones((2, 2)), np.ones((2, 3)))

    def test_add_commutative(self):
        a = random_sparse(10, 10, 0.3, seed=4)
        b = random_sparse(10, 10, 0.3, seed=5)
        assert_structure_equal(ewise_add(a, b), ewise_add(b, a))


class TestTranspose:
    def test_structure(self):
        a = np.array([[1, 0, 2], [0, 3, 0]])
        assert_structure_equal(transpose(a), a.T)

    def test_involution(self):
        a = random_sparse(8, 13, 0.2, seed=6)
        assert_structure_equal(transpose(transpose(a)), a)


class TestReshape:
    def test_row_major_semantics(self):
        a = np.arange(12.0).reshape(3, 4)
        a[a % 3 == 0] = 0
        assert_structure_equal(reshape_rowwise(a, 4, 3), a.reshape(4, 3))

    def test_preserves_nnz(self):
        a = random_sparse(10, 6, 0.3, seed=7)
        assert reshape_rowwise(a, 5, 12).nnz == a.nnz

    def test_identity_reshape(self):
        a = random_sparse(4, 6, 0.5, seed=8)
        assert_structure_equal(reshape_rowwise(a, 4, 6), a)

    def test_bad_cell_count(self):
        with pytest.raises(ShapeError):
            reshape_rowwise(np.ones((2, 3)), 4, 2)


class TestDiag:
    def test_vector_to_matrix(self):
        v = np.array([[1.0], [0.0], [2.0]])
        expected = np.diag([1.0, 0.0, 2.0])
        assert_structure_equal(diag_matrix(v), expected)

    def test_vector_to_matrix_requires_column(self):
        with pytest.raises(ShapeError):
            diag_matrix(np.ones((2, 2)))

    def test_matrix_to_vector(self):
        a = np.array([[1, 2], [0, 0]])
        result = diag_extract(a)
        assert result.shape == (2, 1)
        assert result.nnz == 1

    def test_matrix_to_vector_requires_square(self):
        with pytest.raises(ShapeError):
            diag_extract(np.ones((2, 3)))

    def test_roundtrip(self):
        v = as_csr(np.array([[1.0], [0.0], [3.0]]))
        assert_structure_equal(diag_extract(diag_matrix(v)), v)


class TestBind:
    def test_rbind(self):
        a = np.array([[1, 0]])
        b = np.array([[0, 2], [3, 0]])
        assert_structure_equal(rbind(a, b), np.array([[1, 0], [0, 2], [3, 0]]))

    def test_cbind(self):
        a = np.array([[1], [0]])
        b = np.array([[0, 2], [3, 0]])
        assert_structure_equal(cbind(a, b), np.array([[1, 0, 2], [0, 3, 0]]))

    def test_rbind_shape_mismatch(self):
        with pytest.raises(ShapeError):
            rbind(np.ones((2, 2)), np.ones((2, 3)))

    def test_cbind_shape_mismatch(self):
        with pytest.raises(ShapeError):
            cbind(np.ones((2, 2)), np.ones((3, 2)))

    def test_nnz_additivity(self):
        a = random_sparse(5, 8, 0.3, seed=9)
        b = random_sparse(7, 8, 0.3, seed=10)
        assert rbind(a, b).nnz == a.nnz + b.nnz


class TestIndicators:
    def test_neq_zero(self):
        a = np.array([[0.0, -5.0], [3.0, 0.0]])
        assert_structure_equal(not_equals_zero(a), np.array([[0, 1], [1, 0]]))

    def test_eq_zero_complement(self):
        a = np.array([[0.0, 1.0], [2.0, 0.0]])
        result = equals_zero(a)
        assert_structure_equal(result, np.array([[1, 0], [0, 1]]))

    def test_complement_partition(self):
        a = random_sparse(6, 9, 0.4, seed=11)
        assert not_equals_zero(a).nnz + equals_zero(a).nnz == 6 * 9

    def test_eq_zero_of_empty_is_full(self):
        assert equals_zero(np.zeros((3, 3))).nnz == 9


# ----------------------------------------------------------------------
# Differential test against a dense numpy bool reference
# ----------------------------------------------------------------------

#: Data dtypes an operand may arrive in.
DTYPES = (np.int8, np.bool_, np.int64, np.float64)
#: Inner dimensions: empty, tiny, and 256, where a full row times a full
#: column reaches a cell by 256 paths (an int8 count wraps to 0).
INNER = (0, 1, 5, 256)
OUTER = (0, 1, 3, 17)
#: Densities from empty to full.
DENSITIES = (0.0, 0.1, 0.3, 0.45, 0.95, 1.0)


@st.composite
def masks(draw, rows, cols):
    """A ``rows x cols`` bool pattern: i.i.d. cells at a drawn density, or
    full columns (a sparse-format operand whose full columns still give
    dense-product cells hundreds of paths)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return rng.random((rows, cols)) < draw(st.sampled_from(DENSITIES))
    mask = np.zeros((rows, cols), dtype=bool)
    mask[:, rng.random(cols) < 0.25] = True
    return mask


@st.composite
def operands(draw, mask):
    """*mask*'s structure as an operand: a dense array, a canonical CSR, or
    a messy CSR (explicit zeros, duplicate entries that sum to non-zero or
    cancel to zero, unsorted column indices), in a drawn data dtype and
    index dtype. Dense and canonical operands hold values in 1-5, so an op
    that wrote into an input's data would show."""
    dtype = draw(st.sampled_from(DTYPES))
    layout = draw(st.sampled_from(("dense", "csr", "messy")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if layout != "messy":
        dense = np.where(mask, rng.integers(1, 6, size=mask.shape), 0).astype(dtype)
        return dense if layout == "dense" else sp.csr_array(dense)
    signed = dtype is not np.bool_
    entries = []  # (row, col, value)
    for i, j in zip(*np.nonzero(mask)):
        if rng.random() < 0.3:  # a duplicate pair that sums to non-zero
            entries += [(i, j, 1), (i, j, 1 if dtype is np.bool_ else 2)]
        else:
            entries.append((i, j, 1))
    for i, j in zip(*np.nonzero(~mask)):
        roll = rng.random()
        if roll < 0.1:
            entries.append((i, j, 0))  # explicit zero
        elif roll < 0.2 and signed:
            entries += [(i, j, 1), (i, j, -1)]  # duplicates that cancel
    rows, cols = mask.shape
    order = rng.permutation(len(entries))  # unsorted within each row
    entries = sorted((entries[k] for k in order), key=lambda entry: entry[0])
    index_dtype = draw(st.sampled_from((np.int32, np.int64)))
    indptr = np.zeros(rows + 1, dtype=index_dtype)
    np.cumsum(np.bincount([e[0] for e in entries], minlength=rows), out=indptr[1:])
    return sp.csr_array(
        (
            np.array([e[2] for e in entries], dtype=dtype),
            np.array([e[1] for e in entries], dtype=index_dtype),
            indptr,
        ),
        shape=mask.shape,
    )


def _arrays(matrix):
    if sp.issparse(matrix):
        return [matrix.data, matrix.indices, matrix.indptr]
    return [matrix]


def _unchanged(matrix, snapshot):
    return all(
        a.dtype == b.dtype and np.array_equal(a, b)
        for a, b in zip(_arrays(matrix), snapshot)
    )


def _assert_structure(result, expected):
    """*result* is a canonical int8 0/1 CSR array whose pattern is *expected*."""
    assert isinstance(result, sp.csr_array)
    assert result.shape == expected.shape
    assert result.data.dtype == np.int8
    assert (result.data == 1).all()
    assert len(result.data) == len(result.indices) == result.indptr[-1]
    rows = np.repeat(np.arange(result.shape[0]), np.diff(result.indptr))
    # Strictly increasing columns within each row: sorted, no duplicates.
    same_row = rows[1:] == rows[:-1]
    assert (np.diff(result.indices)[same_row] > 0).all()
    dense = np.zeros(result.shape, dtype=bool)
    dense[rows, result.indices] = True
    np.testing.assert_array_equal(dense, expected)


class TestDifferential:
    """Every structural op against the same op on dense numpy bools."""

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_ops_match_dense_bool_reference(self, data):
        m, k, n = (data.draw(st.sampled_from(dims)) for dims in (OUTER, INNER, OUTER))
        ref_a = data.draw(masks(m, k))
        ref_a2 = data.draw(masks(m, k))
        ref_b = data.draw(masks(k, n))
        a = data.draw(operands(ref_a))
        a2 = data.draw(operands(ref_a2))
        b = data.draw(operands(ref_b))
        inputs = [(x, [array.copy() for array in _arrays(x)]) for x in (a, a2, b)]

        product = (ref_a.astype(np.int64) @ ref_b.astype(np.int64)) > 0
        expectations = [
            (matmul(a, b), product),
            (ewise_add(a, a2), ref_a | ref_a2),
            (ewise_mult(a, a2), ref_a & ref_a2),
            (transpose(a), ref_a.T),
            (not_equals_zero(a), ref_a),
            (equals_zero(a), ~ref_a),
            (row_sums(a), ref_a.any(axis=1).reshape(-1, 1)),
            (col_sums(a), ref_a.any(axis=0).reshape(1, -1)),
        ]
        for result, expected in expectations:
            _assert_structure(result, expected)
        assert matmul_nnz(a, b) == np.count_nonzero(product)

        oracle = ExactOracle()
        sa, sa2, sb = oracle.build(a), oracle.build(a2), oracle.build(b)
        # The kernel rule sends nearly every small product dense, so run
        # each product through both kernels, whichever the rule picks.
        for dense in (False, True):
            with mock.patch.object(ops, "_dense_kernel_pays", return_value=dense):
                _assert_structure(matmul(a, b), product)
                assert matmul_nnz(a, b) == np.count_nonzero(product)
                assert oracle.estimate_nnz(Op.MATMUL, [sa, sb]) == (
                    np.count_nonzero(product)
                )
                _assert_structure(
                    oracle.propagate(Op.MATMUL, [sa, sb]).matrix, product
                )

        counts = [
            (Op.EWISE_ADD, [sa, sa2], ref_a | ref_a2),
            (Op.EWISE_MULT, [sa, sa2], ref_a & ref_a2),
            (Op.TRANSPOSE, [sa], ref_a),
            (Op.NEQ_ZERO, [sa], ref_a),
            (Op.EQ_ZERO, [sa], ~ref_a),
            (Op.ROW_SUMS, [sa], ref_a.any(axis=1)),
            (Op.COL_SUMS, [sa], ref_a.any(axis=0)),
        ]
        for op, synopses, expected in counts:
            assert oracle.estimate_nnz(op, synopses) == np.count_nonzero(expected), op

        for matrix, snapshot in inputs:
            assert _unchanged(matrix, snapshot)

    @pytest.mark.parametrize("width, full, dense", [
        pytest.param(4, 4, True, id="dense"),
        pytest.param(256, 1, False, id="sparse"),
    ])
    def test_path_counts_past_int16(self, width, full, dense):
        # A full 1 x 2**16 row times B whose first *full* columns are full:
        # each of those cells is reached by 2**16 paths, which an int8 or
        # int16 count wraps to 0. With B full, every multiply-add is a path
        # and the kernel rule runs the product dense; the wide B with one
        # full column has 256 multiply-adds per path and runs sparse.
        k = 2**16
        a = np.ones((1, k), dtype=np.int8)
        b = sp.csr_array(
            (
                np.ones(k * full, dtype=np.int8),
                np.tile(np.arange(full), k),
                np.arange(0, k * full + 1, full),
            ),
            shape=(k, width),
        )
        expected = np.zeros((1, width), dtype=bool)
        expected[0, :full] = True
        assert ops._dense_kernel_pays(as_csr(a), b) is dense
        _assert_structure(matmul(a, b), expected)
        assert matmul_nnz(a, b) == expected.sum()
        oracle = ExactOracle()
        assert oracle.estimate_nnz(
            Op.MATMUL, [oracle.build(a), oracle.build(b)]
        ) == expected.sum()


class TestKernelRule:
    """Products run dense exactly when Eq 17's path count, times the
    break-even factor, reaches ``m * k * n`` and the dense arrays fit."""

    def test_path_bound_product_runs_dense(self):
        # SparsEst B3.2's StXtD X: a dense 785 x 4000 operand times the
        # 25%-dense 4000 x 785 images, ~4 multiply-adds per path.
        a = np.ones((785, 4000), dtype=np.int8)
        b = random_sparse(4000, 785, 0.25, seed=1)
        assert ops._dense_kernel_pays(as_csr(a), as_csr(b))

    def test_ultra_sparse_operand_stays_sparse(self):
        # B3.2's StXt diag(w): the same dense operand times a 4000 x 4000
        # diagonal, 4000 multiply-adds per path.
        a = np.ones((785, 4000), dtype=np.int8)
        b = sp.csr_array(sp.identity(4000, dtype=np.int8, format="csr"))
        assert not ops._dense_kernel_pays(as_csr(a), as_csr(b))

    def test_over_cap_product_stays_sparse(self):
        # An outer product has one path per multiply-add, but its dense
        # result alone would take more than the byte cap.
        side = int(np.sqrt(DENSE_PRODUCT_MAX_BYTES / 4)) + 1
        column = as_csr(np.ones((side, 1), dtype=np.int8))
        row = as_csr(np.ones((1, side), dtype=np.int8))
        assert not ops._dense_kernel_pays(column, row)
        assert ops._dense_kernel_pays(column[: side // 2], row[:, : side // 2])
