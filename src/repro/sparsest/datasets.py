"""Synthetic stand-ins for the paper's six real datasets (Table 3).

No network access is available in this reproduction, so each dataset is
replaced by a generator reproducing the *structural properties the
estimators key on* — exactly one non-zero per row, power-law column skew,
dummy-coded column groups, center-concentrated images — at roughly 1/10 of
the paper's scale. DESIGN.md Section 2 documents each substitution.

All generators are deterministic given their seed and return canonical 0/1
CSR structures.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.matrix.conversion import as_csr
from repro.matrix.random import (
    SeedLike,
    _rng,
    coords_structure,
    one_hot_block,
    single_nnz_per_row,
)


def aminer_abstracts(
    rows: int = 20_000,
    vocab: int = 10_000,
    unknown_fraction: float = 0.2,
    zipf_alpha: float = 1.1,
    seed: SeedLike = 41,
) -> sp.csr_array:
    """AMin A stand-in: token-sequence matrix with one non-zero per row.

    Row = padded sequence position, column = dictionary token; the last
    column collects unknowns/pads and receives *unknown_fraction* of all
    rows, the rest follow a Zipf law — the structure (``max(hr) = 1`` plus
    column skew) that drives B2.1/B3.1.
    """
    weights = np.arange(1, vocab + 1, dtype=np.float64) ** (-zipf_alpha)
    weights[-1] = 0.0
    weights *= (1.0 - unknown_fraction) / weights.sum()
    weights[-1] = unknown_fraction
    return single_nnz_per_row(rows, vocab, seed=seed, column_weights=weights)


def aminer_references(
    nodes: int = 20_000,
    average_degree: float = 8.0,
    zipf_alpha: float = 0.9,
    seed: SeedLike = 42,
) -> sp.csr_array:
    """AMin R stand-in: directed citation graph with power-law in-degrees.

    Sources are uniform (every paper cites a few references); targets follow
    a Zipf popularity law (a few papers collect most citations).
    """
    rng = _rng(seed)
    total = int(nodes * average_degree)
    sources = rng.integers(0, nodes, size=total)
    popularity = np.arange(1, nodes + 1, dtype=np.float64) ** (-zipf_alpha)
    popularity /= popularity.sum()
    # Shuffle popularity over node ids so "popular" nodes are not contiguous.
    order = rng.permutation(nodes)
    targets = order[rng.choice(nodes, size=total, p=popularity)]
    return coords_structure(sources, targets, (nodes, nodes))


def amazon_ratings(
    users: int = 80_000,
    items: int = 23_000,
    average_ratings: float = 2.8,
    zipf_alpha: float = 0.8,
    seed: SeedLike = 43,
) -> sp.csr_array:
    """Amazon books stand-in: ultra-sparse bipartite ratings with power-law
    item popularity and user activity."""
    rng = _rng(seed)
    total = int(users * average_ratings)
    user_weights = np.arange(1, users + 1, dtype=np.float64) ** (-zipf_alpha)
    user_weights /= user_weights.sum()
    item_weights = np.arange(1, items + 1, dtype=np.float64) ** (-zipf_alpha)
    item_weights /= item_weights.sum()
    user_order = rng.permutation(users)
    item_order = rng.permutation(items)
    rows = user_order[rng.choice(users, size=total, p=user_weights)]
    cols = item_order[rng.choice(items, size=total, p=item_weights)]
    return coords_structure(rows, cols, (users, items))


def covtype(
    rows: int = 58_000,
    quantitative: int = 10,
    wilderness_areas: int = 4,
    soil_types: int = 40,
    seed: SeedLike = 44,
) -> sp.csr_array:
    """Covertype stand-in: dense quantitative columns plus two dummy-coded
    one-hot groups — columns of wildly varying sparsity (overall ~0.22).

    Category frequencies are skewed (Zipf) as in the real dataset, which is
    what makes the B2.2 column projection hard for block-based estimators.
    """
    rng = _rng(seed)
    dense = (rng.random((rows, quantitative)) * 0.9 + 0.1)
    wilderness_weights = np.arange(1, wilderness_areas + 1, dtype=np.float64) ** (-1.0)
    soil_weights = np.arange(1, soil_types + 1, dtype=np.float64) ** (-1.2)
    blocks = [
        as_csr(dense),
        one_hot_block(rows, wilderness_areas, seed=rng, weights=wilderness_weights),
        one_hot_block(rows, soil_types, seed=rng, weights=soil_weights),
    ]
    return as_csr(sp.hstack([sp.csr_matrix(b) for b in blocks], format="csr"))


def email_graph(
    nodes: int = 26_000,
    edges: int = 42_000,
    zipf_alpha: float = 1.0,
    seed: SeedLike = 45,
) -> sp.csr_array:
    """Email-EuAll stand-in: sparse directed communication graph in which a
    small core of addresses sends/receives most mail."""
    rng = _rng(seed)
    weights = np.arange(1, nodes + 1, dtype=np.float64) ** (-zipf_alpha)
    weights /= weights.sum()
    order = rng.permutation(nodes)
    sources = order[rng.choice(nodes, size=edges, p=weights)]
    targets = order[rng.choice(nodes, size=edges, p=weights)]
    return coords_structure(sources, targets, (nodes, nodes))


def mnist_like(
    rows: int = 20_000,
    side: int = 28,
    target_sparsity: float = 0.25,
    seed: SeedLike = 46,
) -> sp.csr_array:
    """Mnist1m stand-in: images as rows with non-zeros concentrated around
    the image center (Gaussian intensity profile), overall sparsity ~0.25.

    The center concentration is the structural property the B2.5/B3.5
    masking experiments exploit: a 14x14 center mask hits most of the mass.
    """
    rng = _rng(seed)
    y, x = np.mgrid[0:side, 0:side]
    center = (side - 1) / 2.0
    distance_sq = (x - center) ** 2 + (y - center) ** 2
    profile = np.exp(-distance_sq / (2.0 * (side / 4.5) ** 2)).ravel()
    # Scale the profile so the mean activation probability hits the target.
    probabilities = np.clip(profile * (target_sparsity / profile.mean()), 0.0, 1.0)
    mask = rng.random((rows, side * side)) < probabilities[None, :]
    return as_csr(mask.astype(np.int8))


def center_mask(
    rows: int, side: int = 28, inner: int = 14
) -> sp.csr_array:
    """The B2.5 mask: selects the ``inner x inner`` center of each
    ``side x side`` image, replicated for every row."""
    start = (side - inner) // 2
    image = np.zeros((side, side), dtype=np.int8)
    image[start:start + inner, start:start + inner] = 1
    row = image.ravel()
    dense = np.broadcast_to(row, (rows, side * side))
    return as_csr(np.ascontiguousarray(dense))
