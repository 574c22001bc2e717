"""Analytical synopsis-size models (paper Figure 9 and Table 1).

Figure 9 plots synopsis sizes for matrices far too large to materialize
(e.g. 1M x 1M at sparsity 1.0); these closed-form models mirror the actual
implementations' footprints so the figure can be regenerated analytically.
The constants match this reproduction: int32 count vectors for MNC (the
paper's 4-byte counts), float64 density maps, packed bits for the bitset,
float64 r-vectors plus index arrays for the layered graph.
"""

from __future__ import annotations

from repro.errors import UnsupportedOperationError


def bitset_size_bytes(m: int, n: int, nnz: int) -> float:
    """Packed boolean structure: one bit per cell."""
    return m * ((n + 7) // 8)


def density_map_size_bytes(m: int, n: int, nnz: int, block_size: int = 256) -> float:
    """One float64 per ``b x b`` block."""
    row_blocks = -(-m // block_size) if m else 0
    col_blocks = -(-n // block_size) if n else 0
    return row_blocks * col_blocks * 8


def mnc_size_bytes(m: int, n: int, nnz: int, with_extensions: bool = True) -> float:
    """Row + column count vectors (int32), doubled when extensions exist."""
    vectors = 4 if with_extensions else 2
    return vectors * (m + n) / 2 * 4 + 9 * 8


def layered_graph_size_bytes(m: int, n: int, nnz: int, rounds: int = 32) -> float:
    """r-vectors for all nodes plus edge arrays: O(r*d + nnz)."""
    nodes = m + n
    return nodes * rounds * 8 + nnz * 4 + (n + 1) * 4


def metadata_size_bytes(m: int, n: int, nnz: int) -> float:
    """Dimensions and a count."""
    return 3 * 8


def sampling_size_bytes(m: int, n: int, nnz: int, fraction: float = 0.05) -> float:
    """Sample indices only (nothing materialized)."""
    return max(1, round(fraction * n)) * 8


_MODELS = {
    "bitset": bitset_size_bytes,
    "density_map": density_map_size_bytes,
    "mnc": mnc_size_bytes,
    "layered_graph": layered_graph_size_bytes,
    "meta_ac": metadata_size_bytes,
    "meta_wc": metadata_size_bytes,
    "sampling": sampling_size_bytes,
}


def synopsis_size_bytes(name: str, m: int, n: int, nnz: int, **params: object) -> float:
    """Analytical synopsis size for estimator *name* on an ``m x n`` matrix
    with *nnz* non-zeros.

    Args:
        name: registry name of the estimator.
        **params: model parameters (``block_size``, ``rounds``,
            ``fraction``, ``with_extensions``).
    """
    try:
        model = _MODELS[name]
    except KeyError:
        raise UnsupportedOperationError(
            f"no size model for estimator {name!r}; available: {sorted(_MODELS)}"
        ) from None
    return model(m, n, nnz, **params)
