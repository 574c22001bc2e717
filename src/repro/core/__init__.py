"""MNC (Matrix Non-zero Count) sketch — the paper's core contribution.

- :mod:`repro.core.sketch` — the :class:`~repro.core.sketch.MNCSketch` data
  structure and its construction (Section 3.1).
- :mod:`repro.core.estimate` — the matrix-product sparsity estimator
  (Algorithm 1, Theorems 3.1 and 3.2).
- :mod:`repro.core.propagate` — sketch propagation over matrix products
  (Section 3.3, Equations 11–12).
- :mod:`repro.core.ops` — estimators and propagation for reorganizations and
  element-wise operations (Section 4, Equations 13–15).
- :mod:`repro.core.rounding` — shared probabilistic rounding.
- :mod:`repro.core.incremental` — incremental sketch maintenance under
  row/column appends, deletes, and block updates (docs/STREAMING.md).
"""

from repro.core.chain import (
    chain_sketches,
    estimate_all_subchains,
    estimate_chain_nnz,
    estimate_chain_sparsity,
)
from repro.core.estimate import (
    estimate_product_nnz,
    estimate_product_sparsity,
    product_nnz_lower_bound,
    product_nnz_upper_bound,
)
from repro.core.distributed import (
    merge_col_partitions,
    merge_row_partitions,
    sketch_partitioned,
)
from repro.core.incremental import (
    AppendCols,
    AppendRows,
    BlockUpdate,
    DeleteCols,
    DeleteRows,
    IncrementalSketch,
    apply_update,
    random_deltas,
)
from repro.core.intervals import NnzInterval, estimate_product_interval
from repro.core.ops import (
    estimate_ewise_add_nnz,
    estimate_ewise_mult_nnz,
    propagate_cbind,
    propagate_col_sums,
    propagate_diag_vector,
    propagate_equals_zero,
    propagate_ewise_add,
    propagate_ewise_mult,
    propagate_not_equals_zero,
    propagate_rbind,
    propagate_reshape,
    propagate_row_sums,
    propagate_transpose,
)
from repro.core.propagate import propagate_product
from repro.core.rounding import probabilistic_round
from repro.core.sketch import MNCSketch

__all__ = [
    "AppendCols",
    "AppendRows",
    "BlockUpdate",
    "DeleteCols",
    "DeleteRows",
    "IncrementalSketch",
    "MNCSketch",
    "NnzInterval",
    "apply_update",
    "chain_sketches",
    "estimate_all_subchains",
    "estimate_chain_nnz",
    "estimate_chain_sparsity",
    "estimate_ewise_add_nnz",
    "estimate_ewise_mult_nnz",
    "estimate_product_interval",
    "estimate_product_nnz",
    "estimate_product_sparsity",
    "merge_col_partitions",
    "merge_row_partitions",
    "probabilistic_round",
    "product_nnz_lower_bound",
    "product_nnz_upper_bound",
    "propagate_cbind",
    "propagate_col_sums",
    "propagate_diag_vector",
    "propagate_equals_zero",
    "propagate_ewise_add",
    "propagate_ewise_mult",
    "propagate_not_equals_zero",
    "propagate_product",
    "propagate_rbind",
    "propagate_reshape",
    "propagate_row_sums",
    "propagate_transpose",
    "random_deltas",
    "sketch_partitioned",
]
