"""Exact oracle "estimator": materializes every intermediate structure.

This is not a practical estimator — it performs the full (boolean) work of
the expression — but it provides the ground truth the SparsEst metrics are
computed against, through exactly the same interface as the real estimators.

Synopses are int8 0/1 structures that share ``indices``/``indptr`` with
their leaf matrices (:func:`~repro.matrix.conversion.boolean_structure`),
and interior nodes run the copy-free operations of
:mod:`repro.matrix.ops`. Estimating the root only counts its non-zeros:
a product is counted without sorting it into a canonical result.
"""

from __future__ import annotations

import scipy.sparse as sp

from repro.estimators.base import SparsityEstimator, Synopsis, register_estimator
from repro.matrix import ops as mops
from repro.matrix.conversion import MatrixLike, boolean_structure


class ExactSynopsis(Synopsis):
    """The materialized 0/1 structure of the (intermediate) matrix."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: sp.csr_array):
        self.matrix = matrix

    @property
    def shape(self) -> tuple[int, int]:
        return tuple(int(d) for d in self.matrix.shape)

    @property
    def nnz_estimate(self) -> float:
        return float(self.matrix.nnz)

    def size_bytes(self) -> int:
        return (
            self.matrix.data.nbytes
            + self.matrix.indices.nbytes
            + self.matrix.indptr.nbytes
        )


@register_estimator("exact")
class ExactOracle(SparsityEstimator):
    """Ground-truth oracle implementing every operation exactly."""

    name = "Exact"
    contract_tags = frozenset({"exact"})

    def build(self, matrix: MatrixLike) -> ExactSynopsis:
        return ExactSynopsis(boolean_structure(matrix))

    # Every op: materialize, then read off the count (a product is only
    # counted).

    def _propagate_matmul(self, a: ExactSynopsis, b: ExactSynopsis) -> ExactSynopsis:
        return ExactSynopsis(mops.matmul(a.matrix, b.matrix))

    def _estimate_matmul(self, a: ExactSynopsis, b: ExactSynopsis) -> float:
        return float(mops.matmul_nnz(a.matrix, b.matrix))

    def _propagate_ewise_add(self, a: ExactSynopsis, b: ExactSynopsis) -> ExactSynopsis:
        return ExactSynopsis(mops.ewise_add(a.matrix, b.matrix))

    def _estimate_ewise_add(self, a: ExactSynopsis, b: ExactSynopsis) -> float:
        return self._propagate_ewise_add(a, b).nnz_estimate

    def _propagate_ewise_mult(self, a: ExactSynopsis, b: ExactSynopsis) -> ExactSynopsis:
        return ExactSynopsis(mops.ewise_mult(a.matrix, b.matrix))

    def _estimate_ewise_mult(self, a: ExactSynopsis, b: ExactSynopsis) -> float:
        return self._propagate_ewise_mult(a, b).nnz_estimate

    def _propagate_transpose(self, a: ExactSynopsis) -> ExactSynopsis:
        return ExactSynopsis(mops.transpose(a.matrix))

    def _estimate_transpose(self, a: ExactSynopsis) -> float:
        return a.nnz_estimate

    def _propagate_reshape(self, a: ExactSynopsis, *, rows: int, cols: int) -> ExactSynopsis:
        return ExactSynopsis(mops.reshape_rowwise(a.matrix, rows, cols))

    def _estimate_reshape(self, a: ExactSynopsis, *, rows: int, cols: int) -> float:
        return a.nnz_estimate

    def _propagate_diag_v2m(self, a: ExactSynopsis) -> ExactSynopsis:
        return ExactSynopsis(mops.diag_matrix(a.matrix))

    def _estimate_diag_v2m(self, a: ExactSynopsis) -> float:
        return a.nnz_estimate

    def _propagate_diag_m2v(self, a: ExactSynopsis) -> ExactSynopsis:
        return ExactSynopsis(mops.diag_extract(a.matrix))

    def _estimate_diag_m2v(self, a: ExactSynopsis) -> float:
        return self._propagate_diag_m2v(a).nnz_estimate

    def _propagate_rbind(self, a: ExactSynopsis, b: ExactSynopsis) -> ExactSynopsis:
        return ExactSynopsis(mops.rbind(a.matrix, b.matrix))

    def _estimate_rbind(self, a: ExactSynopsis, b: ExactSynopsis) -> float:
        return a.nnz_estimate + b.nnz_estimate

    def _propagate_cbind(self, a: ExactSynopsis, b: ExactSynopsis) -> ExactSynopsis:
        return ExactSynopsis(mops.cbind(a.matrix, b.matrix))

    def _estimate_cbind(self, a: ExactSynopsis, b: ExactSynopsis) -> float:
        return a.nnz_estimate + b.nnz_estimate

    def _propagate_neq_zero(self, a: ExactSynopsis) -> ExactSynopsis:
        return ExactSynopsis(mops.not_equals_zero(a.matrix))

    def _estimate_neq_zero(self, a: ExactSynopsis) -> float:
        return a.nnz_estimate

    def _propagate_eq_zero(self, a: ExactSynopsis) -> ExactSynopsis:
        return ExactSynopsis(mops.equals_zero(a.matrix))

    def _estimate_eq_zero(self, a: ExactSynopsis) -> float:
        return a.cells - a.nnz_estimate

    def _propagate_row_sums(self, a: ExactSynopsis) -> ExactSynopsis:
        return ExactSynopsis(mops.row_sums(a.matrix))

    def _estimate_row_sums(self, a: ExactSynopsis) -> float:
        return self._propagate_row_sums(a).nnz_estimate

    def _propagate_col_sums(self, a: ExactSynopsis) -> ExactSynopsis:
        return ExactSynopsis(mops.col_sums(a.matrix))

    def _estimate_col_sums(self, a: ExactSynopsis) -> float:
        return self._propagate_col_sums(a).nnz_estimate
