"""MNC estimator adapter: exposes :mod:`repro.core` behind the common
estimator interface so the SparsEst runner treats it like any baseline.

Two registered variants mirror the paper's figures:

- ``"mnc"`` — the full estimator (extension vectors + Theorem 3.2 bounds).
- ``"mnc_basic"`` — count vectors only, no extensions and no bounds.
"""

from __future__ import annotations

from repro.core import ops as core_ops
from repro.core.estimate import estimate_product_nnz
from repro.core.propagate import propagate_product
from repro.core.rounding import SeedLike, resolve_rng
from repro.core.sketch import MNCSketch
from repro.errors import ShapeError
from repro.estimators.base import SparsityEstimator, Synopsis, register_estimator
from repro.matrix.conversion import MatrixLike


class MNCSynopsis(Synopsis):
    """Thin :class:`Synopsis` wrapper around an :class:`MNCSketch`."""

    __slots__ = ("sketch",)

    def __init__(self, sketch: MNCSketch):
        self.sketch = sketch

    @property
    def shape(self) -> tuple[int, int]:
        return self.sketch.shape

    @property
    def nnz_estimate(self) -> float:
        return float(self.sketch.total_nnz)

    def size_bytes(self) -> int:
        return self.sketch.size_bytes()

    def footprint_bytes(self) -> int:
        return self.sketch.footprint_bytes()


@register_estimator("mnc")
class MNCEstimator(SparsityEstimator):
    """The paper's MNC estimator (Sections 3–4).

    Args:
        use_extensions: build and exploit the extended count vectors.
        use_bounds: apply the Theorem 3.2 bounds and the reduced output size.
        seed: randomness for probabilistic rounding during propagation.
    """

    name = "MNC"
    contract_tags = frozenset(
        {"theorem31", "theorem32", "sketch", "randomized_propagation"}
    )

    def __init__(
        self,
        *,
        use_extensions: bool = True,
        use_bounds: bool = True,
        seed: SeedLike = 0x5EED,
    ):
        self.use_extensions = bool(use_extensions)
        self.use_bounds = bool(use_bounds)
        self._rng = resolve_rng(seed)

    def build(self, matrix: MatrixLike) -> MNCSynopsis:
        sketch = MNCSketch.from_matrix(matrix, with_extensions=self.use_extensions)
        return MNCSynopsis(sketch)

    # -- products ---------------------------------------------------------

    def _estimate_matmul(self, a: MNCSynopsis, b: MNCSynopsis) -> float:
        return estimate_product_nnz(
            a.sketch, b.sketch,
            use_extensions=self.use_extensions, use_bounds=self.use_bounds,
        )

    def _propagate_matmul(self, a: MNCSynopsis, b: MNCSynopsis) -> MNCSynopsis:
        sketch = propagate_product(
            a.sketch, b.sketch, rng=self._rng,
            use_extensions=self.use_extensions, use_bounds=self.use_bounds,
        )
        return MNCSynopsis(sketch)

    # -- element-wise (Eq 13 / Eq 15) ---------------------------------------

    def _estimate_ewise_add(self, a: MNCSynopsis, b: MNCSynopsis) -> float:
        return core_ops.estimate_ewise_add_nnz(a.sketch, b.sketch)

    def _propagate_ewise_add(self, a: MNCSynopsis, b: MNCSynopsis) -> MNCSynopsis:
        return MNCSynopsis(core_ops.propagate_ewise_add(a.sketch, b.sketch, rng=self._rng))

    def _estimate_ewise_mult(self, a: MNCSynopsis, b: MNCSynopsis) -> float:
        return core_ops.estimate_ewise_mult_nnz(a.sketch, b.sketch)

    def _propagate_ewise_mult(self, a: MNCSynopsis, b: MNCSynopsis) -> MNCSynopsis:
        return MNCSynopsis(core_ops.propagate_ewise_mult(a.sketch, b.sketch, rng=self._rng))

    # -- reorganizations (Eq 14, exact where possible) -------------------------

    def _estimate_transpose(self, a: MNCSynopsis) -> float:
        return a.nnz_estimate

    def _propagate_transpose(self, a: MNCSynopsis) -> MNCSynopsis:
        return MNCSynopsis(core_ops.propagate_transpose(a.sketch))

    def _estimate_reshape(self, a: MNCSynopsis, *, rows: int, cols: int) -> float:
        if rows * cols != a.cells:
            raise ShapeError(
                f"cannot reshape {a.shape} into {rows}x{cols}: cell counts differ"
            )
        return a.nnz_estimate

    def _propagate_reshape(self, a: MNCSynopsis, *, rows: int, cols: int) -> MNCSynopsis:
        return MNCSynopsis(
            core_ops.propagate_reshape(a.sketch, rows, cols, rng=self._rng)
        )

    def _estimate_diag_v2m(self, a: MNCSynopsis) -> float:
        return a.nnz_estimate

    def _propagate_diag_v2m(self, a: MNCSynopsis) -> MNCSynopsis:
        return MNCSynopsis(core_ops.propagate_diag_vector(a.sketch))

    def _estimate_diag_m2v(self, a: MNCSynopsis) -> float:
        return self._propagate_diag_m2v(a).nnz_estimate

    def _propagate_diag_m2v(self, a: MNCSynopsis) -> MNCSynopsis:
        return MNCSynopsis(core_ops.propagate_diag_extract(a.sketch, rng=self._rng))

    def _estimate_rbind(self, a: MNCSynopsis, b: MNCSynopsis) -> float:
        return a.nnz_estimate + b.nnz_estimate

    def _propagate_rbind(self, a: MNCSynopsis, b: MNCSynopsis) -> MNCSynopsis:
        return MNCSynopsis(core_ops.propagate_rbind(a.sketch, b.sketch))

    def _estimate_cbind(self, a: MNCSynopsis, b: MNCSynopsis) -> float:
        return a.nnz_estimate + b.nnz_estimate

    def _propagate_cbind(self, a: MNCSynopsis, b: MNCSynopsis) -> MNCSynopsis:
        return MNCSynopsis(core_ops.propagate_cbind(a.sketch, b.sketch))

    def _estimate_neq_zero(self, a: MNCSynopsis) -> float:
        return a.nnz_estimate

    def _propagate_neq_zero(self, a: MNCSynopsis) -> MNCSynopsis:
        return MNCSynopsis(core_ops.propagate_not_equals_zero(a.sketch))

    def _estimate_eq_zero(self, a: MNCSynopsis) -> float:
        return a.cells - a.nnz_estimate

    def _propagate_eq_zero(self, a: MNCSynopsis) -> MNCSynopsis:
        return MNCSynopsis(core_ops.propagate_equals_zero(a.sketch))

    # -- aggregations (exact from the count vectors) -------------------------

    def _estimate_row_sums(self, a: MNCSynopsis) -> float:
        return float(a.sketch.nnz_rows)

    def _propagate_row_sums(self, a: MNCSynopsis) -> MNCSynopsis:
        return MNCSynopsis(core_ops.propagate_row_sums(a.sketch))

    def _estimate_col_sums(self, a: MNCSynopsis) -> float:
        return float(a.sketch.nnz_cols)

    def _propagate_col_sums(self, a: MNCSynopsis) -> MNCSynopsis:
        return MNCSynopsis(core_ops.propagate_col_sums(a.sketch))


@register_estimator("mnc_basic")
class MNCBasicEstimator(MNCEstimator):
    """MNC without extension vectors and Theorem 3.2 bounds (ablation)."""

    name = "MNC Basic"

    def __init__(self, *, seed: SeedLike = 0x5EED):
        super().__init__(use_extensions=False, use_bounds=False, seed=seed)
