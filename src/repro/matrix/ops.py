"""Ground-truth structural operations under assumptions A1/A2.

The paper's estimators all target the *structural* output sparsity — the
sparsity of the result when positive/negative cancellation (A1) and NaN
poisoning (A2) are ruled out. The cleanest way to realize those assumptions
is to compute on 0/1 indicator structures: a product of 0/1 matrices can only
lose non-zeros through cancellation, which cannot happen with non-negative
data.

Every function here returns a canonical CSR array holding the exact non-zero
structure of the result (int8 0/1 data for the structural operations); the
SparsEst runner uses these as the ground truth against which estimates are
scored.

The operations never copy or up-cast an operand's structure. They read each
canonical operand through a view: fresh all-ones data over the operand's own
``indices``/``indptr`` arrays (:func:`~repro.matrix.conversion.structure_view`).
Element-wise operations use ``bool`` data, which scipy's kernels combine
with OR and AND. Products use float32 data: every cell of a product of 0/1
matrices is a sum of non-negative terms, so it is non-zero exactly when some
path reaches it, however many paths do (no accumulator wraps, and rounding
cannot turn a positive sum into 0). ``bool`` products would be exact too,
but on SparsEst B3.2's 620M-path ground-truth product scipy's ``bool``
kernel ran ~25% slower than float32 (scipy 1.17, 2-CPU x86 VM).

Kernel rule. A :func:`matmul` runs as one dense float32 (BLAS) product,
its CSR result read straight off the ``> 0`` mask, when the paper's
Appendix C cost model says the dense product is cheaper: the sparse
kernel's multiply count, Eq 17's ``sum_k nnz(A[:, k]) * nnz(B[k, :])``
(exact from the operands' counts), times :data:`DENSE_PRODUCT_BREAK_EVEN`
reaches the dense ``m * k * n``, and the densified operands and result
fit :data:`DENSE_PRODUCT_MAX_BYTES`. Every other product runs as a sparse
product. The count decides, not the operands' densities: a dense
785x4000 operand times SparsEst B3.2's 25%-dense 4000x785 images is a
620M-path product (dense wins ~20x), while the same operand times an
ultra-sparse 4000x4000 matrix is a 3M-path one (sparse wins 4-7x).
"""

from __future__ import annotations

from typing import Union

import numpy as np
import scipy.sparse as sp

from repro.errors import ShapeError
from repro.matrix.conversion import (
    MatrixLike,
    as_csr,
    boolean_structure,
    index_dtype,
    structure_view,
)
from repro.matrix.properties import col_nnz, row_nnz

#: How many BLAS multiply-adds one sparse-kernel path is worth: a product
#: runs dense when ``paths * DENSE_PRODUCT_BREAK_EVEN >= m * k * n``.
#: Measured on a 2-CPU x86 VM (scipy 1.17, OpenBLAS 0.3.31 on one thread,
#: best of 3, uniform 0/1 operands from 400x16x1000 to 2000x500x2000):
#: path-bound sparse products (``m * k * n / paths`` ~ 4) cost 1.8-2.2 ns
#: per path against 0.019-0.025 ns per dense multiply-add, a break-even
#: of 86-98 (38-78 at ``k = 16``, where BLAS runs at ~0.08 ns); sparser
#: products pay more per path (2.2-12 ns), so at ``m * k * n / paths``
#: ~ 100 the dense product won or tied on every shape tried. SparsEst's products at ratios of 393 and 628 (B3.2's
#: ``StXtDXS`` and ``StXt``) still ran faster sparse (6.2 vs 9.2 ms,
#: 40 vs 47 ms).
DENSE_PRODUCT_BREAK_EVEN = 100

#: Largest float32 ``A``, ``B`` and ``A B`` together (bytes) that the dense
#: kernel may allocate. B3.2's densified ``StXtD X`` takes 26 MiB at
#: SparsEst scale 0.2 and 128 MiB at scale 1.0.
DENSE_PRODUCT_MAX_BYTES = 256 * 2**20


def _structure(result: sp.csr_array) -> sp.csr_array:
    """Turn a fresh result with sorted, duplicate-free indices and no
    stored zeros into an int8 0/1 structure, in place."""
    result.has_canonical_format = True
    result.data = np.ones(result.nnz, dtype=np.int8)
    return result


def _mask_structure(mask: np.ndarray) -> sp.csr_array:
    """Canonical int8 0/1 CSR of the 2-D bool *mask*, read off row-major
    (so each row's columns come out sorted) without a COO detour."""
    m, n = mask.shape
    row_counts = np.count_nonzero(mask, axis=1)
    nnz = int(row_counts.sum())
    dtype = index_dtype(m, n, nnz)
    indptr = np.zeros(m + 1, dtype=dtype)
    np.cumsum(row_counts, out=indptr[1:])
    indices = np.broadcast_to(np.arange(n, dtype=dtype), mask.shape)[mask]
    result = sp.csr_array(
        (np.ones(nnz, dtype=np.int8), indices, indptr), shape=mask.shape
    )
    result.has_canonical_format = True
    return result


def _dense_kernel_pays(a: sp.csr_array, b: sp.csr_array) -> bool:
    """Whether the kernel rule runs the canonical product ``a b`` dense."""
    m, k = a.shape
    n = b.shape[1]
    if 4 * (m * k + k * n + m * n) > DENSE_PRODUCT_MAX_BYTES:
        return False
    paths = int(col_nnz(a) @ row_nnz(b))
    return paths * DENSE_PRODUCT_BREAK_EVEN >= m * k * n


def _product(a: MatrixLike, b: MatrixLike) -> Union[np.ndarray, sp.csr_array]:
    """The structural product ``A B`` of float32 0/1 views: a dense array
    when the kernel rule picks BLAS, otherwise a CSR result with unsorted
    column indices. Either way the stored positive cells are exactly the
    non-zeros."""
    sa, sb = as_csr(a), as_csr(b)
    if sa.shape[1] != sb.shape[0]:
        raise ShapeError(
            f"matmul requires inner dimensions to agree: {sa.shape} x {sb.shape}"
        )
    va, vb = structure_view(sa, np.float32), structure_view(sb, np.float32)
    if _dense_kernel_pays(sa, sb):
        return va.toarray() @ vb.toarray()
    return va @ vb


def matmul(a: MatrixLike, b: MatrixLike) -> sp.csr_array:
    """Structural matrix product ``C = A B`` under A1/A2.

    Computed as a boolean product of the operand structures: ``C[i, j]`` is
    non-zero iff some ``k`` has ``A[i, k] != 0`` and ``B[k, j] != 0``.
    """
    product = _product(a, b)
    if isinstance(product, np.ndarray):
        return _mask_structure(product > 0)
    product.sort_indices()
    return _structure(product)


def matmul_nnz(a: MatrixLike, b: MatrixLike) -> int:
    """``matmul(a, b).nnz``, counted without building the canonical result."""
    product = _product(a, b)
    if isinstance(product, np.ndarray):
        return int(np.count_nonzero(product))
    return int(product.nnz)


def boolean_matmul(a: MatrixLike, b: MatrixLike) -> sp.csr_array:
    """Boolean matrix product on non-zero structures, returned as 0/1 CSR."""
    return matmul(a, b)


def ewise_add(a: MatrixLike, b: MatrixLike) -> sp.csr_array:
    """Structural element-wise addition: the union of both structures."""
    sa, sb = as_csr(a), as_csr(b)
    if sa.shape != sb.shape:
        raise ShapeError(f"ewise_add requires equal shapes: {sa.shape} vs {sb.shape}")
    # Canonical operands take scipy's merge path, whose output is sorted.
    union = structure_view(sa, np.bool_) + structure_view(sb, np.bool_)
    return _structure(union)


def ewise_mult(a: MatrixLike, b: MatrixLike) -> sp.csr_array:
    """Structural element-wise (Hadamard) product: structure intersection."""
    sa, sb = as_csr(a), as_csr(b)
    if sa.shape != sb.shape:
        raise ShapeError(f"ewise_mult requires equal shapes: {sa.shape} vs {sb.shape}")
    intersection = structure_view(sa, np.bool_).multiply(structure_view(sb, np.bool_))
    return _structure(intersection)


def transpose(a: MatrixLike) -> sp.csr_array:
    """Structural transpose."""
    return as_csr(structure_view(as_csr(a)).transpose())


def reshape_rowwise(a: MatrixLike, rows: int, cols: int) -> sp.csr_array:
    """Row-major reshape of an ``m x n`` matrix into ``rows x cols``.

    Matches the paper's ``reshape`` semantics (row-wise linearization, as in
    SystemML): cell ``(i, j)`` maps to linear index ``i * n + j`` which maps to
    output cell ``(idx // cols, idx % cols)``. The total cell count must be
    preserved.
    """
    csr = as_csr(a)
    m, n = csr.shape
    if rows * cols != m * n:
        raise ShapeError(
            f"cannot reshape {m}x{n} ({m * n} cells) into {rows}x{cols} "
            f"({rows * cols} cells)"
        )
    coo = csr.tocoo()
    linear = coo.row.astype(np.int64) * n + coo.col.astype(np.int64)
    out = sp.coo_array(
        (coo.data, (linear // cols, linear % cols)), shape=(rows, cols)
    )
    return as_csr(out)


def diag_matrix(v: MatrixLike) -> sp.csr_array:
    """Place a column vector (``m x 1``) onto the diagonal of an ``m x m``
    matrix (the paper's vector-to-matrix ``diag``)."""
    csr = as_csr(v)
    m, n = csr.shape
    if n != 1:
        raise ShapeError(f"diag_matrix expects an m x 1 column vector, got {csr.shape}")
    coo = csr.tocoo()
    return as_csr(sp.coo_array((coo.data, (coo.row, coo.row)), shape=(m, m)))


def diag_extract(a: MatrixLike) -> sp.csr_array:
    """Extract the main diagonal of a square matrix as an ``m x 1`` vector
    (the paper's matrix-to-vector ``diag``)."""
    csr = as_csr(a)
    m, n = csr.shape
    if m != n:
        raise ShapeError(f"diag_extract expects a square matrix, got {csr.shape}")
    return as_csr(csr.diagonal().reshape(m, 1))


def rbind(a: MatrixLike, b: MatrixLike) -> sp.csr_array:
    """Row-wise concatenation (stack *b* below *a*)."""
    sa, sb = as_csr(a), as_csr(b)
    if sa.shape[1] != sb.shape[1]:
        raise ShapeError(
            f"rbind requires equal column counts: {sa.shape} vs {sb.shape}"
        )
    return as_csr(sp.vstack([sa, sb], format="csr"))


def cbind(a: MatrixLike, b: MatrixLike) -> sp.csr_array:
    """Column-wise concatenation (stack *b* to the right of *a*)."""
    sa, sb = as_csr(a), as_csr(b)
    if sa.shape[0] != sb.shape[0]:
        raise ShapeError(f"cbind requires equal row counts: {sa.shape} vs {sb.shape}")
    return as_csr(sp.hstack([sa, sb], format="csr"))


def row_sums(a: MatrixLike) -> sp.csr_array:
    """Structural row aggregation: an ``m x 1`` vector whose entry ``i`` is
    non-zero iff row ``i`` holds any non-zero.

    Under A1/A2 a numeric ``rowSums`` can only be zero when the whole row is
    structurally zero, so this is the exact structure of the aggregate.
    """
    csr = as_csr(a)
    return _mask_structure((np.diff(csr.indptr) > 0).reshape(-1, 1))


def col_sums(a: MatrixLike) -> sp.csr_array:
    """Structural column aggregation: a ``1 x n`` vector whose entry ``j``
    is non-zero iff column ``j`` holds any non-zero (see :func:`row_sums`)."""
    csr = as_csr(a)
    occupied = np.zeros((1, csr.shape[1]), dtype=np.bool_)
    occupied[0, csr.indices] = True
    return _mask_structure(occupied)


def not_equals_zero(a: MatrixLike) -> sp.csr_array:
    """The indicator structure ``A != 0`` as a 0/1 CSR matrix."""
    return boolean_structure(a)


def equals_zero(a: MatrixLike) -> sp.csr_array:
    """The complement indicator ``A == 0`` (dense complement, 0/1 CSR).

    The result has ``m * n - nnz(A)`` non-zeros, so it is typically dense;
    callers in the benchmark only apply it to modest shapes.
    """
    return _mask_structure(~structure_view(as_csr(a), np.bool_).toarray())
