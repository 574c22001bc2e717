"""Ground-truth structural evaluation of expression DAGs.

Evaluates every node with the exact structural operations of
:mod:`repro.matrix.ops` (assumptions A1/A2), memoizing shared sub-DAGs.
This provides the true structure of every intermediate (the runtime
executor scores each allocation decision against it). SparsEst's root
truths need only a count, which the exact oracle takes without sorting a
product root (:func:`repro.sparsest.runner.true_nnz_of`).
"""

from __future__ import annotations

from typing import Dict

import scipy.sparse as sp

from repro.errors import ReproError
from repro.ir.nodes import Expr
from repro.matrix import ops as mops
from repro.opcodes import Op


def evaluate(root: Expr) -> sp.csr_array:
    """Evaluate *root* and return its exact 0/1 non-zero structure."""
    return evaluate_all(root)[id(root)]


def evaluate_all(root: Expr) -> Dict[int, sp.csr_array]:
    """Evaluate the whole DAG; returns ``id(node) -> structure`` for every
    node (the id-keyed map keeps distinct nodes distinct even when equal)."""
    results: Dict[int, sp.csr_array] = {}
    for node in root.postorder():
        results[id(node)] = _evaluate_node(node, results)
    return results


def _evaluate_node(node: Expr, results: Dict[int, sp.csr_array]) -> sp.csr_array:
    op = node.op
    children = [results[id(child)] for child in node.inputs]
    if op is Op.LEAF:
        return mops.not_equals_zero(node.matrix)
    if op is Op.MATMUL:
        return mops.matmul(children[0], children[1])
    if op is Op.EWISE_ADD:
        return mops.ewise_add(children[0], children[1])
    if op is Op.EWISE_MULT:
        return mops.ewise_mult(children[0], children[1])
    if op is Op.TRANSPOSE:
        return mops.transpose(children[0])
    if op is Op.RESHAPE:
        return mops.reshape_rowwise(children[0], node.params["rows"], node.params["cols"])
    if op is Op.DIAG_V2M:
        return mops.diag_matrix(children[0])
    if op is Op.DIAG_M2V:
        return mops.diag_extract(children[0])
    if op is Op.RBIND:
        return mops.rbind(children[0], children[1])
    if op is Op.CBIND:
        return mops.cbind(children[0], children[1])
    if op is Op.NEQ_ZERO:
        return mops.not_equals_zero(children[0])
    if op is Op.EQ_ZERO:
        return mops.equals_zero(children[0])
    if op is Op.ROW_SUMS:
        return mops.row_sums(children[0])
    if op is Op.COL_SUMS:
        return mops.col_sums(children[0])
    raise ReproError(f"cannot evaluate operation {op!r}")  # pragma: no cover
