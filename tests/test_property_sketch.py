"""Property-based tests (hypothesis) for MNC sketch invariants."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimate import (
    estimate_product_nnz,
    product_nnz_lower_bound,
    product_nnz_upper_bound,
)
from repro.core.incremental import IncrementalSketch
from repro.core.sketch import COUNT_DTYPE, MNCSketch
from repro.matrix.conversion import as_csr
from repro.matrix.ops import matmul


@st.composite
def sparse_matrices(draw, max_dim=24, min_rows=1, min_cols=1):
    """Random small sparse 0/1 matrices with arbitrary structure."""
    rows = draw(st.integers(min_rows, max_dim))
    cols = draw(st.integers(min_cols, max_dim))
    density = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    mask = rng.random((rows, cols)) < density
    return as_csr(mask.astype(np.int8))


@st.composite
def product_pairs(draw, max_dim=20):
    """Pairs (A, B) with compatible inner dimensions."""
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    l = draw(st.integers(1, max_dim))
    density_a = draw(st.floats(0.0, 1.0))
    density_b = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    a = as_csr((rng.random((m, n)) < density_a).astype(np.int8))
    b = as_csr((rng.random((n, l)) < density_b).astype(np.int8))
    return a, b


class TestSketchInvariants:
    @given(sparse_matrices())
    @settings(max_examples=80, deadline=None)
    def test_counts_sum_to_nnz(self, matrix):
        sketch = MNCSketch.from_matrix(matrix)
        assert sketch.hr.sum() == matrix.nnz
        assert sketch.hc.sum() == matrix.nnz
        assert sketch.total_nnz == matrix.nnz

    @given(sparse_matrices())
    @settings(max_examples=80, deadline=None)
    def test_counts_bounded_by_dimensions(self, matrix):
        sketch = MNCSketch.from_matrix(matrix)
        m, n = matrix.shape
        assert np.all(sketch.hr <= n)
        assert np.all(sketch.hc <= m)

    @given(sparse_matrices())
    @settings(max_examples=80, deadline=None)
    def test_extensions_bounded_by_counts(self, matrix):
        sketch = MNCSketch.from_matrix(matrix)
        if sketch.her is not None:
            assert np.all(sketch.her <= sketch.hr)
            assert np.all(sketch.her >= 0)
        if sketch.hec is not None:
            assert np.all(sketch.hec <= sketch.hc)
            assert np.all(sketch.hec >= 0)

    @given(sparse_matrices())
    @settings(max_examples=80, deadline=None)
    def test_extension_totals_agree(self, matrix):
        # sum(her) and sum(hec) both count structurally defined subsets;
        # her total = non-zeros in single-nnz columns = number of single
        # columns; hec total = number of single rows.
        sketch = MNCSketch.from_matrix(matrix)
        if sketch.her is not None:
            assert sketch.her.sum() == sketch.cols_single
        if sketch.hec is not None:
            assert sketch.hec.sum() == sketch.rows_single

    @given(sparse_matrices())
    @settings(max_examples=80, deadline=None)
    def test_summary_statistics_consistent(self, matrix):
        sketch = MNCSketch.from_matrix(matrix)
        assert sketch.nnz_rows == int((sketch.hr > 0).sum())
        assert sketch.nnz_cols == int((sketch.hc > 0).sum())
        assert sketch.rows_single <= sketch.nnz_rows
        assert sketch.cols_single <= sketch.nnz_cols
        assert 0.0 <= sketch.sparsity <= 1.0

    @given(sparse_matrices())
    @settings(max_examples=50, deadline=None)
    def test_transpose_duality(self, matrix):
        from repro.core.ops import propagate_transpose

        sketch = MNCSketch.from_matrix(matrix)
        direct = MNCSketch.from_matrix(as_csr(matrix.transpose()))
        derived = propagate_transpose(sketch)
        np.testing.assert_array_equal(derived.hr, direct.hr)
        np.testing.assert_array_equal(derived.hc, direct.hc)


_STORED_FORMATS = (
    "coo", "csr_unsorted", "csc", "csr_matrix", "csr_int64", "dense",
)


def _stored(entries, shape, fmt, rng):
    """Store ``(rows, cols, values)`` in *fmt*, keeping duplicates and zeros
    wherever the format can hold them."""
    rows, cols, values = entries
    m, n = shape
    coo = sp.coo_array((values, (rows, cols)), shape=shape)
    if fmt == "coo":
        return coo
    if fmt == "csr_unsorted":
        # Row-major but shuffled inside each row, duplicates kept.
        order = np.lexsort((rng.random(rows.size), rows))
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=m))))
        return sp.csr_array((values[order], cols[order], indptr), shape=shape)
    if fmt == "csc":
        return sp.csc_array(coo)
    if fmt == "csr_matrix":
        return sp.csr_matrix(coo)
    if fmt == "csr_int64":
        csr = sp.csr_array(coo)
        csr.indices = csr.indices.astype(np.int64)
        csr.indptr = csr.indptr.astype(np.int64)
        return csr
    dense = np.zeros(shape)
    np.add.at(dense, (rows, cols), values)
    return dense


@st.composite
def stored_matrices(draw, max_dim=12):
    """``(matrix, structure)``: a matrix in one of several storage formats
    (duplicates, explicit zeros, unsorted indices, int64 indices, empty and
    single-row/column shapes) and its dense boolean structure."""
    shape_kind = draw(st.sampled_from(["any", "row", "col", "no_rows", "no_cols"]))
    m = draw(st.integers(0, max_dim))
    n = draw(st.integers(0, max_dim))
    m = {"row": 1, "no_rows": 0}.get(shape_kind, m)
    n = {"col": 1, "no_cols": 0}.get(shape_kind, n)
    count = draw(st.integers(0, 2 * m * n)) if m * n else 0
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    rows = rng.integers(0, max(m, 1), count)
    cols = rng.integers(0, max(n, 1), count)
    # Integer-valued floats: duplicate sums (including cancellations to an
    # explicit zero) are exact.
    values = rng.choice([-1.0, 0.0, 1.0, 2.0], count)
    dense = np.zeros((m, n))
    np.add.at(dense, (rows, cols), values)
    fmt = draw(st.sampled_from(_STORED_FORMATS))
    return _stored((rows, cols, values), (m, n), fmt, rng), dense != 0


def _reference_sketch(structure, with_extensions):
    """Section 3.1 definitions evaluated densely, plus the drop rule."""
    a = structure.astype(np.int64)
    hr, hc = a.sum(axis=1), a.sum(axis=0)
    her = (a * (hc == 1)[None, :]).sum(axis=1)
    hec = (a * (hr == 1)[:, None]).sum(axis=0)
    if not with_extensions or max(hr.max(initial=0), hc.max(initial=0)) <= 1:
        her = hec = None
    else:
        her = her if her.any() else None
        hec = hec if hec.any() else None
    m, n = structure.shape
    diagonal = m == n and np.array_equal(structure, np.eye(m, dtype=bool))
    return hr, hc, her, hec, diagonal


def _assert_matches_reference(sketch, structure, with_extensions):
    hr, hc, her, hec, diagonal = _reference_sketch(structure, with_extensions)
    assert sketch.shape == structure.shape
    pairs = ((sketch.hr, hr), (sketch.hc, hc), (sketch.her, her), (sketch.hec, hec))
    for got, want in pairs:
        if want is None:
            assert got is None
        else:
            assert got.dtype == COUNT_DTYPE
            np.testing.assert_array_equal(got, want)
    assert sketch.fully_diagonal == diagonal
    assert sketch.exact


class TestFromMatrixDifferential:
    """``from_matrix`` (one CSR pass) against the dense definitions."""

    @given(stored_matrices(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_dense_reference(self, stored, with_extensions):
        matrix, structure = stored
        nnz_before = matrix.nnz if sp.issparse(matrix) else None
        sketch = MNCSketch.from_matrix(matrix, with_extensions=with_extensions)
        _assert_matches_reference(sketch, structure, with_extensions)
        if with_extensions:
            incremental = IncrementalSketch(matrix).sketch()
            _assert_matches_reference(incremental, structure, True)
        if nnz_before is not None:
            assert matrix.nnz == nnz_before

    @pytest.mark.parametrize(
        "rows",
        [
            # single columns 1-3, no single rows: her only
            [[1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1]],
            # single rows 1-3, no single columns: hec only
            [[1, 1, 1], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
            # neither: both extensions dropped
            [[1, 1], [1, 1]],
            # both, with an empty row and an empty column
            [[1, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 1, 1, 0]],
        ],
        ids=["single_cols_only", "single_rows_only", "neither", "both"],
    )
    @pytest.mark.parametrize("fmt", _STORED_FORMATS)
    @pytest.mark.parametrize("with_extensions", [True, False])
    def test_single_row_and_column_cases(self, rows, fmt, with_extensions):
        structure = np.array(rows, dtype=bool)
        r, c = np.nonzero(structure)
        rng = np.random.default_rng(0)
        matrix = _stored((r, c, np.ones(r.size)), structure.shape, fmt, rng)
        sketch = MNCSketch.from_matrix(matrix, with_extensions=with_extensions)
        _assert_matches_reference(sketch, structure, with_extensions)


class TestEstimateInvariants:
    @given(product_pairs())
    @settings(max_examples=80, deadline=None)
    def test_estimate_within_theorem32_bounds(self, pair):
        a, b = pair
        h_a, h_b = MNCSketch.from_matrix(a), MNCSketch.from_matrix(b)
        estimate = estimate_product_nnz(h_a, h_b)
        assert estimate >= product_nnz_lower_bound(h_a, h_b) - 1e-9
        assert estimate <= product_nnz_upper_bound(h_a, h_b) + 1e-9

    @given(product_pairs())
    @settings(max_examples=80, deadline=None)
    def test_true_nnz_within_theorem32_bounds(self, pair):
        a, b = pair
        h_a, h_b = MNCSketch.from_matrix(a), MNCSketch.from_matrix(b)
        truth = matmul(a, b).nnz
        assert product_nnz_lower_bound(h_a, h_b) <= truth
        assert truth <= product_nnz_upper_bound(h_a, h_b)

    @given(product_pairs())
    @settings(max_examples=80, deadline=None)
    def test_theorem31_exactness(self, pair):
        a, b = pair
        h_a, h_b = MNCSketch.from_matrix(a), MNCSketch.from_matrix(b)
        if h_a.max_hr <= 1 or h_b.max_hc <= 1:
            truth = matmul(a, b).nnz
            assert estimate_product_nnz(h_a, h_b) == truth

    @given(product_pairs())
    @settings(max_examples=80, deadline=None)
    def test_estimate_physical_range(self, pair):
        a, b = pair
        h_a, h_b = MNCSketch.from_matrix(a), MNCSketch.from_matrix(b)
        estimate = estimate_product_nnz(h_a, h_b)
        assert 0.0 <= estimate <= a.shape[0] * b.shape[1]

    @given(product_pairs())
    @settings(max_examples=50, deadline=None)
    def test_basic_variant_also_in_physical_range(self, pair):
        a, b = pair
        h_a = MNCSketch.from_matrix(a, with_extensions=False)
        h_b = MNCSketch.from_matrix(b, with_extensions=False)
        estimate = estimate_product_nnz(
            h_a, h_b, use_extensions=False, use_bounds=False
        )
        assert 0.0 <= estimate <= a.shape[0] * b.shape[1]
