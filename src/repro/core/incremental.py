"""Incremental MNC sketch maintenance for dynamic matrices.

Every estimator in the library assumes build-once matrices: you sketch a
matrix with :meth:`MNCSketch.from_matrix` and the sketch is immutable.
Production traffic mutates data — rows are appended to feature matrices,
sliding-window graphs drop old vertices, recommender blocks are rewritten
in place. :class:`IncrementalSketch` holds the evolving non-zero
*structure* (MNC never looks at values) under five delta kinds:

- :class:`AppendRows` / :class:`AppendCols` — new trailing rows/columns
  with explicit non-zero patterns,
- :class:`DeleteRows` / :class:`DeleteCols` — drop rows/columns by
  position (later positions shift down, as in a database compaction),
- :class:`BlockUpdate` — overwrite the structure of a contiguous
  submatrix with a new boolean pattern.

The structure is one canonical CSR, the row pointers and column indices
Section 3.1 builds a sketch from, plus the column counts ``hc``. Each
delta is one vectorized splice into new arrays; no array is written
after it is built, so :meth:`IncrementalSketch.to_matrix` hands out the
arrays themselves and earlier snapshots stay valid. Every other sketch
field is derived on request: :meth:`IncrementalSketch.sketch` reads
``hr`` off the row pointers and the extension vectors (``her``/``hec``)
off at most one gather over the column indices, and returns an :class:`MNCSketch` *field-identical* to
``MNCSketch.from_matrix`` on the same structure (the differential
``incremental_equals_rebuild`` verify contract fuzzes exactly this
equivalence). There is no deferred state, so every snapshot is exact.

See docs/STREAMING.md for the delta model, the derivation rule, and how
deltas chain into catalog delta-fingerprints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np
import scipy.sparse as sp

from repro.core.sketch import COUNT_DTYPE, MNCSketch
from repro.errors import ShapeError, SketchError
from repro.matrix.conversion import MatrixLike, as_csr, index_dtype
from repro.observability.metrics import metric_inc

__all__ = [
    "AppendCols",
    "AppendRows",
    "BlockUpdate",
    "Delta",
    "DeleteCols",
    "DeleteRows",
    "IncrementalSketch",
    "apply_update",
    "delta_from_payload",
    "delta_to_payload",
    "next_shape",
    "random_deltas",
]

_INT = np.int64


def _positions(values, axis_name: str) -> np.ndarray:
    """Normalize *values* to a sorted, unique int64 position vector."""
    arr = np.asarray(values, dtype=_INT).reshape(-1)
    if arr.size and arr.min() < 0:
        raise SketchError(f"{axis_name} positions must be non-negative")
    return np.unique(arr)


def _pattern_tuple(patterns, axis_name: str) -> tuple[np.ndarray, ...]:
    return tuple(_positions(p, axis_name) for p in patterns)


@dataclass(frozen=True, eq=False)
class AppendRows:
    """Append ``len(patterns)`` rows; each pattern lists its non-zero columns."""

    patterns: tuple[np.ndarray, ...]

    def __init__(self, patterns: Iterable) -> None:
        object.__setattr__(
            self, "patterns", _pattern_tuple(patterns, "column")
        )


@dataclass(frozen=True, eq=False)
class AppendCols:
    """Append ``len(patterns)`` columns; each pattern lists its non-zero rows."""

    patterns: tuple[np.ndarray, ...]

    def __init__(self, patterns: Iterable) -> None:
        object.__setattr__(self, "patterns", _pattern_tuple(patterns, "row"))


@dataclass(frozen=True, eq=False)
class DeleteRows:
    """Delete rows by current position (later rows shift up)."""

    positions: np.ndarray

    def __init__(self, positions) -> None:
        object.__setattr__(self, "positions", _positions(positions, "row"))


@dataclass(frozen=True, eq=False)
class DeleteCols:
    """Delete columns by current position (later columns shift left)."""

    positions: np.ndarray

    def __init__(self, positions) -> None:
        object.__setattr__(self, "positions", _positions(positions, "column"))


@dataclass(frozen=True, eq=False)
class BlockUpdate:
    """Overwrite the structure of a submatrix with a boolean pattern.

    The block spans rows ``[row_start, row_start + pattern.shape[0])`` and
    columns ``[col_start, col_start + pattern.shape[1])`` in *position*
    space; cells inside the block take exactly the pattern's structure,
    cells outside are untouched.
    """

    row_start: int
    col_start: int
    pattern: np.ndarray

    def __init__(self, row_start: int, col_start: int, pattern) -> None:
        pat = np.ascontiguousarray(np.asarray(pattern) != 0)
        if pat.ndim != 2:
            raise SketchError(
                f"block pattern must be 2-D, got shape {pat.shape}"
            )
        if row_start < 0 or col_start < 0:
            raise SketchError("block origin must be non-negative")
        object.__setattr__(self, "row_start", int(row_start))
        object.__setattr__(self, "col_start", int(col_start))
        object.__setattr__(self, "pattern", pat)


Delta = Union[AppendRows, AppendCols, DeleteRows, DeleteCols, BlockUpdate]

_DELTA_KINDS = {
    AppendRows: "append_rows",
    AppendCols: "append_cols",
    DeleteRows: "delete_rows",
    DeleteCols: "delete_cols",
    BlockUpdate: "block",
}


def delta_to_payload(delta: Delta) -> dict:
    """Encode *delta* as a JSON-safe dict (the serve wire format)."""
    if isinstance(delta, (AppendRows, AppendCols)):
        return {
            "kind": _DELTA_KINDS[type(delta)],
            "patterns": [p.tolist() for p in delta.patterns],
        }
    if isinstance(delta, (DeleteRows, DeleteCols)):
        return {
            "kind": _DELTA_KINDS[type(delta)],
            "positions": delta.positions.tolist(),
        }
    if isinstance(delta, BlockUpdate):
        return {
            "kind": "block",
            "row_start": delta.row_start,
            "col_start": delta.col_start,
            "pattern": delta.pattern.astype(np.uint8).tolist(),
        }
    raise SketchError(f"unknown delta type {type(delta).__name__}")


def delta_from_payload(obj: object) -> Delta:
    """Decode a dict produced by :func:`delta_to_payload`.

    Raises :class:`SketchError` on malformed payloads; the serve protocol
    layer maps that to a 400.
    """
    if not isinstance(obj, dict):
        raise SketchError("delta payload must be an object")
    kind = obj.get("kind")
    try:
        if kind == "append_rows":
            return AppendRows(obj["patterns"])
        if kind == "append_cols":
            return AppendCols(obj["patterns"])
        if kind == "delete_rows":
            return DeleteRows(obj["positions"])
        if kind == "delete_cols":
            return DeleteCols(obj["positions"])
        if kind == "block":
            return BlockUpdate(
                obj["row_start"], obj["col_start"], obj["pattern"]
            )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, SketchError):
            raise
        raise SketchError(f"malformed {kind!r} delta payload: {exc}") from exc
    raise SketchError(f"unknown delta kind {kind!r}")


def next_shape(shape: tuple[int, int], delta: Delta) -> tuple[int, int]:
    """The shape after applying *delta* to a matrix of *shape*.

    Raises :class:`ShapeError` when the delta does not fit *shape*. This
    is the one place deltas are checked against a shape: :func:`apply_update`
    calls it before mutating anything, and the server runs a whole batch
    through it before applying the first delta.
    """
    m, n = int(shape[0]), int(shape[1])
    if isinstance(delta, AppendRows):
        for pat in delta.patterns:
            if pat.size and pat[-1] >= n:
                raise ShapeError(
                    f"appended row touches column {int(pat[-1])} "
                    f"but the matrix has {n} columns"
                )
        return m + len(delta.patterns), n
    if isinstance(delta, AppendCols):
        for pat in delta.patterns:
            if pat.size and pat[-1] >= m:
                raise ShapeError(
                    f"appended column touches row {int(pat[-1])} "
                    f"but the matrix has {m} rows"
                )
        return m, n + len(delta.patterns)
    if isinstance(delta, DeleteRows):
        positions = delta.positions
        if positions.size and positions[-1] >= m:
            raise ShapeError(
                f"cannot delete row {int(positions[-1])} of a {m}-row matrix"
            )
        return m - positions.size, n
    if isinstance(delta, DeleteCols):
        positions = delta.positions
        if positions.size and positions[-1] >= n:
            raise ShapeError(
                f"cannot delete column {int(positions[-1])} "
                f"of a {n}-column matrix"
            )
        return m, n - positions.size
    if isinstance(delta, BlockUpdate):
        bh, bw = delta.pattern.shape
        r0, c0 = delta.row_start, delta.col_start
        if r0 + bh > m or c0 + bw > n:
            raise ShapeError(
                f"block [{r0}:{r0 + bh}, {c0}:{c0 + bw}] exceeds "
                f"matrix shape {(m, n)}"
            )
        return m, n
    raise SketchError(f"unknown delta type {type(delta).__name__}")


_EMPTY = np.empty(0, dtype=_INT)


def _rows_of(indptr: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Row of each position in *cells* (positions into ``indices``)."""
    return np.searchsorted(indptr, cells, side="right") - 1


def _row_pointers(lengths: np.ndarray) -> np.ndarray:
    """CSR row pointers of rows with these *lengths*."""
    return np.concatenate(([0], np.cumsum(lengths)))


def _moved_counts(
    hc: np.ndarray, added: np.ndarray, removed: np.ndarray = _EMPTY
) -> np.ndarray:
    """New column counts: *hc* plus the cells in columns *added*, minus
    those in columns *removed*."""
    n = hc.size
    shift = np.bincount(added, minlength=n) - np.bincount(removed, minlength=n)
    return (hc + shift).astype(COUNT_DTYPE)


class IncrementalSketch:
    """Mutable MNC sketch over an evolving sparse structure.

    The instance owns the structure: construct it from a matrix, feed it
    deltas via :func:`apply_update`, and materialize immutable
    :class:`MNCSketch` snapshots with :meth:`sketch`. The structure is one
    canonical CSR (``indptr``/``indices`` at
    :func:`~repro.matrix.conversion.index_dtype`) plus the column counts
    ``hc`` at :data:`COUNT_DTYPE`. A delta is ``O(nnz)`` memory traffic in
    vectorized splices, :meth:`sketch` is ``O(m + n)`` plus at most one
    gather, and :meth:`to_matrix` copies nothing.

    No array is written after it is built: each delta builds new ones. So
    the arrays shared with the input matrix, with earlier :meth:`to_matrix`
    results and with earlier snapshots never change.

    Not thread-safe; callers serialize updates (the serve registry holds
    one per matrix behind its own lock).
    """

    def __init__(self, matrix: MatrixLike) -> None:
        csr = as_csr(matrix)
        hc = np.bincount(csr.indices, minlength=csr.shape[1])
        self._set(csr.shape, csr.indptr, csr.indices, hc.astype(COUNT_DTYPE))

    def _set(
        self,
        shape: tuple[int, int],
        indptr: np.ndarray,
        indices: np.ndarray,
        hc: np.ndarray,
    ) -> None:
        """Adopt a new structure, at the index width its shape and nnz need."""
        dtype = index_dtype(*shape, int(indptr[-1]))
        self._shape = (int(shape[0]), int(shape[1]))
        self._indptr = indptr.astype(dtype, copy=False)
        self._indices = indices.astype(dtype, copy=False)
        self._hc = hc
        self._cached_sketch: Optional[MNCSketch] = None

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def total_nnz(self) -> int:
        return int(self._indices.size)

    # ------------------------------------------------------------------
    # Delta application: one splice per delta, always into new arrays
    # ------------------------------------------------------------------

    def _append_rows(self, delta: AppendRows) -> None:
        patterns = delta.patterns
        if not patterns:
            return
        (m, n), indptr, indices = self._shape, self._indptr, self._indices
        sizes = np.fromiter(map(len, patterns), dtype=_INT, count=len(patterns))
        cells = np.concatenate(patterns, dtype=indices.dtype)
        self._set(
            (m + len(patterns), n),
            np.concatenate((indptr, indptr[-1] + np.cumsum(sizes))),
            np.concatenate((indices, cells)),
            _moved_counts(self._hc, cells),
        )

    def _append_cols(self, delta: AppendCols) -> None:
        patterns = delta.patterns
        if not patterns:
            return
        (m, n), indptr, indices = self._shape, self._indptr, self._indices
        k = len(patterns)
        sizes = np.fromiter(map(len, patterns), dtype=_INT, count=k)
        rows = np.concatenate(patterns)
        cols = np.repeat(np.arange(n, n + k, dtype=indices.dtype), sizes)
        # The new column ids exceed every stored one, so each cell goes at
        # its row's end; a stable sort by row keeps each row's new cells in
        # column order.
        order = np.argsort(rows, kind="stable")
        rows = rows[order]
        self._set(
            (m, n + k),
            _row_pointers(np.diff(indptr) + np.bincount(rows, minlength=m)),
            np.insert(indices, indptr[rows + 1], cols[order]),
            np.concatenate((self._hc, sizes.astype(COUNT_DTYPE))),
        )

    def _delete_rows(self, delta: DeleteRows) -> None:
        positions = delta.positions
        if not positions.size:
            return
        (m, n), indptr, indices = self._shape, self._indptr, self._indices
        # Kept rows run from the end of one deleted row to the start of the
        # next: one slice per gap, and the deleted rows lie between them.
        starts = indptr[np.concatenate(([0], positions + 1))].tolist()
        ends = indptr[np.concatenate((positions, [m]))].tolist()
        kept = [indices[a:b] for a, b in zip(starts, ends)]
        removed = [indices[a:b] for a, b in zip(ends, starts[1:])]
        self._set(
            (m - positions.size, n),
            _row_pointers(np.delete(np.diff(indptr), positions)),
            np.concatenate(kept),
            _moved_counts(self._hc, _EMPTY, np.concatenate(removed)),
        )

    def _delete_cols(self, delta: DeleteCols) -> None:
        positions = delta.positions
        if not positions.size:
            return
        (m, n), indptr, indices = self._shape, self._indptr, self._indices
        # Each column maps to its position minus the deleted columns before
        # it, and a deleted column to -1.
        keep = np.ones(n, dtype=bool)
        keep[positions] = False
        remap = np.cumsum(keep, dtype=indices.dtype) - 1
        remap[positions] = -1
        mapped = remap[indices]
        alive = mapped >= 0
        dropped = _rows_of(indptr, np.flatnonzero(~alive))
        self._set(
            (m, n - positions.size),
            _row_pointers(np.diff(indptr) - np.bincount(dropped, minlength=m)),
            mapped[alive],
            np.delete(self._hc, positions),
        )

    def _block(self, delta: BlockUpdate) -> None:
        bh, bw = delta.pattern.shape
        if not (bh and bw):
            return
        indptr, indices = self._indptr, self._indices
        r0, c0 = delta.row_start, delta.col_start
        start, end = int(indptr[r0]), int(indptr[r0 + bh])
        # The block's rows are one contiguous segment: keep its cells
        # outside the block's columns, add the pattern, and sort by
        # (row, column).
        segment = indices[start:end]
        rows = np.repeat(np.arange(bh), np.diff(indptr[r0:r0 + bh + 1]))
        inside = (segment >= c0) & (segment < c0 + bw)
        new_rows, new_cols = np.nonzero(delta.pattern)
        new_cols += c0
        rows = np.concatenate((rows[~inside], new_rows))
        cols = np.concatenate((segment[~inside], new_cols), dtype=indices.dtype)
        lengths = np.diff(indptr)
        lengths[r0:r0 + bh] = np.bincount(rows, minlength=bh)
        self._set(
            self._shape,
            _row_pointers(lengths),
            np.concatenate((
                indices[:start], cols[np.lexsort((cols, rows))], indices[end:]
            )),
            _moved_counts(self._hc, new_cols, segment[inside]),
        )

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------

    def sketch(self) -> MNCSketch:
        """Materialize the exact sketch of the current structure.

        Field-identical to ``MNCSketch.from_matrix(self.to_matrix())``:
        same gating of extension vectors (built only when some count
        exceeds one and their filter is non-empty), same
        ``fully_diagonal`` detection, ``exact=True``. ``hr`` comes from the
        row pointers, ``hec`` from the first cell of each single-non-zero
        row, and ``her`` from one gather of the cells in single-non-zero
        columns. Cached until the next delta.
        """
        if self._cached_sketch is not None:
            return self._cached_sketch
        (m, n), indptr, indices, hc = (
            self._shape, self._indptr, self._indices, self._hc
        )
        hr = np.diff(indptr).astype(COUNT_DTYPE, copy=False)
        max_hr = int(hr.max()) if m else 0
        max_hc = int(hc.max()) if n else 0
        her: Optional[np.ndarray] = None
        hec: Optional[np.ndarray] = None
        if max_hr > 1 or max_hc > 1:
            single_cols = hc == 1
            if single_cols.any():
                cells = np.flatnonzero(single_cols[indices])
                her = np.bincount(
                    _rows_of(indptr, cells), minlength=m
                ).astype(COUNT_DTYPE)
            single_rows = hr == 1
            if single_rows.any():
                # A single-non-zero row's one cell is its first cell.
                hec = np.bincount(
                    indices[indptr[:-1][single_rows]], minlength=n
                ).astype(COUNT_DTYPE)
        diagonal = (
            m == n == indices.size
            and max_hr <= 1
            and np.array_equal(indices, np.arange(m))
        )
        result = MNCSketch.trusted(
            shape=(m, n),
            hr=hr,
            hc=hc,
            her=her,
            hec=hec,
            fully_diagonal=diagonal,
            exact=True,
        )
        result.__dict__["_row_stats_max"] = max_hr
        result.__dict__["_col_stats_max"] = max_hc
        self._cached_sketch = result
        metric_inc("incremental.materializations")
        return result

    def to_matrix(self) -> sp.csr_array:
        """The current structure as a canonical CSR array.

        Non-zeros carry value ``1.0`` (the sketch only ever tracked
        structure). The index arrays are the instance's own: no delta
        writes into them, so the result stays valid after later deltas.
        """
        matrix = sp.csr_array(
            (np.ones(self._indices.size), self._indices, self._indptr),
            shape=self._shape,
        )
        matrix.has_canonical_format = True
        return matrix

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IncrementalSketch(shape={self.shape}, nnz={self.total_nnz})"


def apply_update(sketch: IncrementalSketch, delta: Delta) -> IncrementalSketch:
    """Apply one *delta* to *sketch* in place and return it.

    One vectorized splice of the CSR arrays (``O(nnz)`` memory traffic).
    Raises :class:`ShapeError` when the delta does not fit the current
    shape (:func:`next_shape`) and :class:`SketchError` for an unknown
    delta type, both before mutating anything.
    """
    if not isinstance(sketch, IncrementalSketch):
        raise SketchError(
            f"apply_update needs an IncrementalSketch, got "
            f"{type(sketch).__name__} (materialized MNCSketch instances "
            f"are immutable; wrap the matrix in IncrementalSketch first)"
        )
    next_shape(sketch.shape, delta)
    if isinstance(delta, AppendRows):
        sketch._append_rows(delta)
    elif isinstance(delta, AppendCols):
        sketch._append_cols(delta)
    elif isinstance(delta, DeleteRows):
        sketch._delete_rows(delta)
    elif isinstance(delta, DeleteCols):
        sketch._delete_cols(delta)
    else:
        sketch._block(delta)
    metric_inc("incremental.updates")
    return sketch


def random_deltas(
    rng: np.random.Generator,
    shape: tuple[int, int],
    steps: int,
    max_batch: int = 3,
) -> list[Delta]:
    """Draw a seeded sequence of *steps* deltas starting from *shape*.

    Pure function of the generator state: the verify contract, the test
    suite, and corpus replay all derive identical sequences from the
    same seed. Tracks the evolving shape so every delta is in-bounds,
    interleaving all five kinds (appends, deletes, blocks) with
    densities drawn per delta.
    """
    m, n = int(shape[0]), int(shape[1])
    deltas: list[Delta] = []
    for _ in range(steps):
        kinds = ["append_rows", "append_cols"]
        if m:
            kinds.append("delete_rows")
        if n:
            kinds.append("delete_cols")
        if m and n:
            kinds.extend(["block", "block"])
        kind = kinds[int(rng.integers(len(kinds)))]
        if kind == "append_rows":
            k = int(rng.integers(1, max_batch + 1))
            density = float(rng.random())
            patterns = [
                np.flatnonzero(rng.random(n) < density) if n else []
                for _ in range(k)
            ]
            deltas.append(AppendRows(patterns))
            m += k
        elif kind == "append_cols":
            k = int(rng.integers(1, max_batch + 1))
            density = float(rng.random())
            patterns = [
                np.flatnonzero(rng.random(m) < density) if m else []
                for _ in range(k)
            ]
            deltas.append(AppendCols(patterns))
            n += k
        elif kind == "delete_rows":
            k = int(rng.integers(1, min(m, max_batch) + 1))
            positions = rng.choice(m, size=k, replace=False)
            deltas.append(DeleteRows(positions))
            m -= k
        elif kind == "delete_cols":
            k = int(rng.integers(1, min(n, max_batch) + 1))
            positions = rng.choice(n, size=k, replace=False)
            deltas.append(DeleteCols(positions))
            n -= k
        else:
            bh = int(rng.integers(1, min(m, 4) + 1))
            bw = int(rng.integers(1, min(n, 4) + 1))
            r0 = int(rng.integers(0, m - bh + 1))
            c0 = int(rng.integers(0, n - bw + 1))
            pattern = rng.random((bh, bw)) < float(rng.random())
            deltas.append(BlockUpdate(r0, c0, pattern))
    return deltas
