"""Seeded inputs for the serve workloads: leaf matrices, expression DAGs
in the wire format, and block updates.

Every leaf is square with the same side, so any composition of
``matmul``/``ewise_mult``/``ewise_add``/``transpose`` is shape-valid and a
block update (which keeps a matrix's shape) never breaks a registered
expression.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: Side of every serve leaf.
SIDE = 20_000

#: (name, structure, density). Together they cover Algorithm 1's exact case
#: (at most one non-zero per row or column: S0, Q0), its extended case
#: (rows/columns with a single non-zero mixed with heavier ones: P0, P1,
#: B0) and the generic case (uniform: U0-U2). S0 and Q0 have density 1/SIDE
#: by construction.
LEAF_SPECS: Tuple[Tuple[str, str, float], ...] = (
    ("U0", "uniform", 2e-3),
    ("U1", "uniform", 5e-4),
    ("U2", "uniform", 1e-4),
    ("P0", "power_law", 1e-3),
    ("P1", "power_law", 2e-4),
    ("S0", "single_nnz_per_row", 1.0 / SIDE),
    ("Q0", "permutation", 1.0 / SIDE),
    ("B0", "banded", 5.0 / SIDE),
)

#: Operation mix of generated inner nodes.
OPS = ("matmul", "ewise_mult", "ewise_add", "transpose")
OP_WEIGHTS = (0.4, 0.2, 0.2, 0.2)


def make_leaf(structure: str, density: float, side: int, seed: int):
    """One leaf matrix as a 0/1 CSR array."""
    from repro.matrix.random import (
        banded_matrix,
        permutation_matrix,
        power_law_columns,
        random_sparse,
        single_nnz_per_row,
    )

    if structure == "uniform":
        return random_sparse(side, side, density, seed=seed)
    if structure == "power_law":
        return power_law_columns(side, side, int(density * side * side), seed=seed)
    if structure == "single_nnz_per_row":
        return single_nnz_per_row(side, side, seed=seed)
    if structure == "permutation":
        return permutation_matrix(side, seed=seed)
    if structure == "banded":
        return banded_matrix(side, int(round(density * side)) // 2)
    raise ValueError(f"unknown leaf structure {structure!r}")


def make_leaves(seed: int, side: int = SIDE) -> Dict[str, object]:
    return {
        name: make_leaf(structure, density, side, seed * 1000 + index)
        for index, (name, structure, density) in enumerate(LEAF_SPECS)
    }


def register_body(name: str, matrix) -> bytes:
    """``POST /matrices`` body for *matrix* (COO structure payload).

    Same wire format as ``repro.serve.protocol.encode_matrix``, but
    ``tolist()`` encodes an 800k-entry leaf an order of magnitude faster
    than that function's per-element loop, which keeps setup time about
    the server rather than the client.
    """
    coo = matrix.tocoo()
    return json.dumps({
        "name": name,
        "matrix": {
            "shape": [int(coo.shape[0]), int(coo.shape[1])],
            "rows": coo.row.tolist(),
            "cols": coo.col.tolist(),
        },
    }).encode()


def canonical(expr: dict) -> str:
    """Canonical JSON of a wire expression (the server's parse-cache key)."""
    return json.dumps(expr, sort_keys=True, separators=(",", ":"))


class ExpressionGenerator:
    """Distinct seeded expression DAGs over named leaves.

    Roots are inner nodes of depth 2-4 and never repeat. With probability
    *share* an inner node below the root reuses a previously generated
    subtree of the same depth, so sub-DAGs are partly shared across
    expressions.
    """

    def __init__(self, names: Sequence[str], seed: int, share: float = 0.3):
        self.names = list(names)
        self.rng = np.random.default_rng(seed)
        self.share = share
        self._pool: Dict[int, List[dict]] = {}
        self._roots: set = set()

    def _leaf(self) -> dict:
        return {"ref": self.names[int(self.rng.integers(len(self.names)))]}

    def _node(self, depth: int, root: bool = False) -> dict:
        if depth == 0:
            return self._leaf()
        pool = self._pool.setdefault(depth, [])
        if not root and pool and self.rng.random() < self.share:
            return pool[int(self.rng.integers(len(pool)))]
        op = OPS[int(self.rng.choice(len(OPS), p=OP_WEIGHTS))]
        if op == "transpose":
            inputs = [self._node(depth - 1)]
        else:
            inputs = [self._node(depth - 1), self._node(int(self.rng.integers(depth)))]
            if self.rng.random() < 0.5:
                inputs.reverse()
        node = {"op": op, "inputs": inputs}
        pool.append(node)
        return node

    def next(self) -> dict:
        """The next expression whose root has not been produced before."""
        while True:
            expr = self._node(int(self.rng.integers(2, 5)), root=True)
            key = canonical(expr)
            if key not in self._roots:
                self._roots.add(key)
                return expr

    def take(self, count: int) -> List[dict]:
        return [self.next() for _ in range(count)]


def block_update(rng: np.random.Generator, side: int = SIDE, block: int = 4) -> dict:
    """A small seeded ``BlockUpdate`` in the wire format."""
    row, col = (int(v) for v in rng.integers(0, side - block, size=2))
    pattern = (rng.random((block, block)) < 0.25).astype(np.uint8)
    return {
        "kind": "block",
        "row_start": row,
        "col_start": col,
        "pattern": pattern.tolist(),
    }
