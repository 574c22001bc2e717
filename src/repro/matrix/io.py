"""Persistence helpers for sparse matrices and a tiny dataset cache.

The SparsEst datasets are generated synthetically (see
:mod:`repro.sparsest.datasets`); generation of the larger ones takes seconds,
so benchmark modules cache them on disk in ``.npz`` form keyed by a content
string. The cache lives under ``~/.cache/repro-mnc`` by default and can be
redirected via the ``REPRO_MNC_CACHE`` environment variable.
"""

from __future__ import annotations

import hashlib
import os
import threading
from pathlib import Path
from typing import Callable

import scipy.sparse as sp

from repro.matrix.conversion import MatrixLike, as_csr


def save_matrix(path: str | Path, matrix: MatrixLike) -> None:
    """Save a matrix to *path* in scipy ``.npz`` sparse format."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    sp.save_npz(target, sp.csr_matrix(as_csr(matrix)))


def load_matrix(path: str | Path) -> sp.csr_array:
    """Load a matrix previously stored with :func:`save_matrix`."""
    return as_csr(sp.load_npz(Path(path)))


def cache_dir() -> Path:
    """Directory used by :func:`cached_matrix` (created on demand)."""
    root = os.environ.get("REPRO_MNC_CACHE")
    if root:
        path = Path(root)
    else:
        path = Path.home() / ".cache" / "repro-mnc"
    path.mkdir(parents=True, exist_ok=True)
    return path


def cached_matrix(key: str, build: Callable[[], MatrixLike]) -> sp.csr_array:
    """Return the matrix for *key*, building and caching it on first use.

    Args:
        key: human-readable content key; hashed into the cache filename so
            keys may contain arbitrary characters.
        build: zero-argument callable producing the matrix on cache miss.
    """
    digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:24]
    path = cache_dir() / f"{digest}.npz"
    if path.exists():
        try:
            return load_matrix(path)
        except (OSError, ValueError):
            path.unlink(missing_ok=True)
    matrix = as_csr(build())
    # Publish by rename: a parallel worker building the same dataset, or a
    # writer killed mid-file, never leaves a torn entry under the key.
    tmp = path.with_name(f"{path.stem}.tmp{os.getpid()}-{threading.get_ident()}.npz")
    save_matrix(tmp, matrix)
    os.replace(tmp, path)
    return matrix
