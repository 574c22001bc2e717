"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import errno

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.serialize import sketch_to_arrays
from repro.matrix.conversion import as_csr
from repro.matrix.random import random_sparse


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for tests."""
    return np.random.default_rng(1234)


@pytest.fixture
def small_pair() -> tuple[sp.csr_array, sp.csr_array]:
    """A deterministic small product pair with mild structure."""
    a = random_sparse(60, 40, 0.1, seed=7)
    b = random_sparse(40, 50, 0.15, seed=8)
    return a, b


@pytest.fixture
def paper_example() -> tuple[sp.csr_array, sp.csr_array]:
    """The 9x9-ish running example of the paper's Figure 3 (recreated at
    small scale with the same flavor: skewed rows/columns, empty slices)."""
    a = np.zeros((7, 9))
    a[0, [1, 4]] = 1
    a[1, 2] = 1
    a[2, [0, 3, 6]] = 1
    a[4, 8] = 1
    a[5, [2, 5]] = 1
    a[6, 7] = 1
    b = np.zeros((9, 6))
    b[0, 1] = 1
    b[2, [0, 3]] = 1
    b[3, 4] = 1
    b[4, [2, 5]] = 1
    b[6, 0] = 1
    b[8, [1, 2]] = 1
    return as_csr(a), as_csr(b)


class _FullDisk:
    """An array payload whose write fails like a full disk."""

    def __array__(self, dtype=None, copy=None):
        raise OSError(errno.ENOSPC, "No space left on device")


def full_disk_after_header(sketch):
    """A stand-in for ``repro.core.serialize.sketch_to_arrays`` whose npz
    write fails after the ``version`` and ``shape`` members (a full disk or
    a killed writer)."""
    arrays = sketch_to_arrays(sketch)
    return {"version": arrays["version"], "shape": arrays["shape"],
            "hr": _FullDisk()}


def assert_structure_equal(actual, expected) -> None:
    """Assert two matrices have identical non-zero structure."""
    lhs, rhs = as_csr(actual), as_csr(expected)
    assert lhs.shape == rhs.shape
    lhs_coo, rhs_coo = lhs.tocoo(), rhs.tocoo()
    lhs_set = set(zip(lhs_coo.row.tolist(), lhs_coo.col.tolist()))
    rhs_set = set(zip(rhs_coo.row.tolist(), rhs_coo.col.tolist()))
    assert lhs_set == rhs_set
