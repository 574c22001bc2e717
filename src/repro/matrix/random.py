"""Structured random-matrix generators.

Sparsity estimators differ precisely on *structured* inputs, so the SparsEst
benchmark needs generators for the structural patterns the paper calls out:
single-non-zero-per-row token matrices, permutation and selection matrices,
power-law column distributions, banded matrices, and one-hot encoded blocks.

All generators take an explicit ``numpy.random.Generator`` (or an int seed)
and are deterministic given the seed.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp

from repro.errors import ShapeError
from repro.matrix.conversion import as_csr, index_dtype

SeedLike = Union[int, np.random.Generator, None]


def _rng(seed: SeedLike) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def coords_structure(
    rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]
) -> sp.csr_array:
    """Canonical 0/1 CSR (int8 data) with a non-zero at each
    ``(rows[i], cols[i])``.

    A cell drawn any number of times is one non-zero: duplicates collapse
    as ``bool`` data (OR), so no count can wrap to 0 the way 256 draws
    summed in int8 do.
    """
    data = np.ones(len(rows), dtype=np.bool_)
    result = as_csr(sp.coo_array((data, (rows, cols)), shape=shape))
    result.data = result.data.view(np.int8)
    return result


def random_sparse(
    m: int,
    n: int,
    sparsity: float,
    seed: SeedLike = None,
    values: str = "uniform",
) -> sp.csr_array:
    """Uniformly random sparse matrix with expected density *sparsity*.

    Cells are included i.i.d. with probability *sparsity* (Bernoulli
    sampling), matching the uniformity assumption the MetaAC estimator makes —
    so MetaAC is near-exact on these inputs, which several paper experiments
    rely on.

    Args:
        m, n: output shape.
        sparsity: expected fraction of non-zero cells in [0, 1].
        seed: RNG seed or generator.
        values: ``"uniform"`` for U(0,1] data or ``"ones"`` for 0/1 data.
    """
    if not 0.0 <= sparsity <= 1.0:
        raise ShapeError(f"sparsity must be in [0, 1], got {sparsity}")
    rng = _rng(seed)
    target = int(round(sparsity * m * n))
    if target == 0:
        return sp.csr_array((m, n))
    if sparsity > 0.25:
        mask = rng.random((m, n)) < sparsity
        if values == "ones":
            return as_csr(mask.astype(np.int8))
        data = np.where(mask, rng.random((m, n)) * 0.9 + 0.1, 0.0)
        return as_csr(data)
    # Ultra-sparse path: sample linear indices without materializing m*n.
    count = rng.binomial(m * n, sparsity)
    linear = rng.choice(m * n, size=count, replace=False)
    rows, cols = np.divmod(linear, n)
    if values == "ones":
        data = np.ones(count, dtype=np.int8)
    else:
        data = rng.random(count) * 0.9 + 0.1
    # int64 coordinates would make scipy keep int64 CSR indices.
    dtype = index_dtype(m, n, count)
    return as_csr(sp.coo_array(
        (data, (rows.astype(dtype), cols.astype(dtype))), shape=(m, n)
    ))


def single_nnz_per_row(
    m: int,
    n: int,
    seed: SeedLike = None,
    column_weights: Optional[np.ndarray] = None,
) -> sp.csr_array:
    """0/1 matrix with exactly one non-zero per row (token-sequence shape).

    Column positions are drawn from *column_weights* (normalized internally),
    defaulting to uniform. This is the structural property ``max(hr) = 1``
    that Theorem 3.1 exploits.
    """
    rng = _rng(seed)
    if column_weights is None:
        cols = rng.integers(0, n, size=m)
    else:
        weights = np.asarray(column_weights, dtype=np.float64)
        if weights.shape != (n,):
            raise ShapeError(f"column_weights must have shape ({n},)")
        probabilities = weights / weights.sum()
        cols = rng.choice(n, size=m, p=probabilities)
    data = np.ones(m, dtype=np.int8)
    rows = np.arange(m)
    return as_csr(sp.coo_array((data, (rows, cols)), shape=(m, n)))


def power_law_columns(
    m: int,
    n: int,
    total_nnz: int,
    alpha: float = 1.1,
    seed: SeedLike = None,
) -> sp.csr_array:
    """Sparse 0/1 matrix whose column non-zero counts follow a Zipf law.

    Column ``j`` receives weight ``(j + 1) ** -alpha``; *total_nnz* cells are
    drawn according to those weights with uniformly random rows (duplicates
    collapse, so the realized nnz can be slightly below *total_nnz* for dense
    columns). This reproduces the skewed-column structure of NLP token and
    ratings matrices.
    """
    rng = _rng(seed)
    weights = (np.arange(1, n + 1, dtype=np.float64)) ** (-alpha)
    probabilities = weights / weights.sum()
    cols = rng.choice(n, size=total_nnz, p=probabilities)
    rows = rng.integers(0, m, size=total_nnz)
    return coords_structure(rows, cols, (m, n))


def permutation_matrix(n: int, seed: SeedLike = None) -> sp.csr_array:
    """Random ``n x n`` permutation matrix (the paper's ``table(s1, s2)``)."""
    rng = _rng(seed)
    perm = rng.permutation(n)
    data = np.ones(n, dtype=np.int8)
    return as_csr(sp.coo_array((data, (np.arange(n), perm)), shape=(n, n)))


def selection_matrix(
    rows_selected: Sequence[int], n: int
) -> sp.csr_array:
    """Selection matrix ``P`` with ``P[i, rows_selected[i]] = 1``.

    Multiplying ``P X`` extracts (and reorders) the given rows of ``X``;
    ``X P^T`` would extract columns. Used by B2.2, B3.3 and B3.4.
    """
    selected = np.asarray(rows_selected, dtype=np.int64)
    if selected.size and (selected.min() < 0 or selected.max() >= n):
        raise ShapeError(
            f"selected indices must lie in [0, {n}), got range "
            f"[{selected.min()}, {selected.max()}]"
        )
    k = selected.size
    # One non-zero per row: the CSR arrays are the selection itself, in
    # int32 whenever it fits.
    dtype = index_dtype(k, n)
    result = sp.csr_array(
        (np.ones(k, dtype=np.int8), selected.astype(dtype),
         np.arange(k + 1, dtype=dtype)),
        shape=(k, n),
    )
    result.has_canonical_format = True
    return result


def diagonal_matrix(n: int, seed: SeedLike = None) -> sp.csr_array:
    """Fully dense diagonal ``n x n`` matrix (the paper's ``diag(lambda)``)."""
    rng = _rng(seed)
    values = rng.random(n) * 0.9 + 0.1
    return as_csr(sp.diags_array(values, format="csr"))


def banded_matrix(n: int, bandwidth: int) -> sp.csr_array:
    """Square 0/1 matrix with non-zeros on diagonals ``-bandwidth..bandwidth``."""
    offsets = range(-bandwidth, bandwidth + 1)
    diags = [np.ones(n - abs(k)) for k in offsets]
    return as_csr(sp.diags_array(diags, offsets=list(offsets), format="csr"))


def one_hot_block(
    m: int,
    cardinality: int,
    seed: SeedLike = None,
    weights: Optional[np.ndarray] = None,
) -> sp.csr_array:
    """One-hot (dummy-coded) block: ``m x cardinality`` with one 1 per row.

    Models the correlated sparse column groups that one-hot encoding of a
    categorical feature introduces (Covertype-style data). *weights* skews
    the category distribution.
    """
    return single_nnz_per_row(m, cardinality, seed=seed, column_weights=weights)


def triangular_matrix(
    n: int,
    sparsity: float = 1.0,
    upper: bool = False,
    seed: SeedLike = None,
) -> sp.csr_array:
    """Random lower (or upper) triangular matrix with the given density
    inside the triangle.

    Triangular structure is one of the properties systems like Sparso
    propagate (paper Section 7); these generators support testing whether
    count-based sketches capture it implicitly (they do: half the rows are
    more than half full, which drives the Theorem 3.2 lower bound).
    """
    rng = _rng(seed)
    if not 0.0 <= sparsity <= 1.0:
        raise ShapeError(f"sparsity must be in [0, 1], got {sparsity}")
    dense = rng.random((n, n)) * 0.9 + 0.1
    mask = rng.random((n, n)) < sparsity
    triangle = np.triu(np.ones((n, n), dtype=bool)) if upper else np.tril(
        np.ones((n, n), dtype=bool)
    )
    return as_csr(np.where(mask & triangle, dense, 0.0))


def symmetric_matrix(n: int, sparsity: float, seed: SeedLike = None) -> sp.csr_array:
    """Random symmetric 0/1-structure matrix with expected density near
    *sparsity* (the union of a random pattern with its transpose)."""
    rng = _rng(seed)
    half = random_sparse(n, n, sparsity / 2 if sparsity < 1 else 1.0, seed=rng)
    pattern = half + half.T
    result = as_csr(pattern)
    result.data = np.ones_like(result.data, dtype=np.int8)
    return result


def block_diagonal_matrix(
    block_sizes: Sequence[int],
    sparsity: float = 1.0,
    seed: SeedLike = None,
) -> sp.csr_array:
    """Block-diagonal matrix: independent random blocks along the diagonal.

    Models the correlated column groups that joins of one-hot-encoded
    features produce; everything off the diagonal blocks is structurally
    zero.
    """
    rng = _rng(seed)
    blocks = [random_sparse(size, size, sparsity, seed=rng) for size in block_sizes]
    return as_csr(sp.block_diag(blocks, format="csr"))


def outer_product_pair(
    n: int, dense_index: int = 0
) -> tuple[sp.csr_array, sp.csr_array]:
    """The adversarial B1.4/B1.5 pair: ``C`` has one dense column, ``R`` the
    aligned dense row.

    ``C R`` is fully dense (rank-1 outer product) while ``R C`` has a single
    non-zero — the special cases where naive estimators fail catastrophically.
    """
    if not 0 <= dense_index < n:
        raise ShapeError(f"dense_index must be in [0, {n})")
    col = sp.coo_array(
        (np.ones(n, dtype=np.int8), (np.arange(n), np.full(n, dense_index))),
        shape=(n, n),
    )
    row = sp.coo_array(
        (np.ones(n, dtype=np.int8), (np.full(n, dense_index), np.arange(n))),
        shape=(n, n),
    )
    return as_csr(col), as_csr(row)
