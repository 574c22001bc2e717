"""The MNC (Matrix Non-zero Count) sketch data structure (paper Section 3.1).

An MNC sketch of an ``m x n`` matrix ``A`` holds:

- ``hr`` — non-zeros per row (length ``m``),
- ``hc`` — non-zeros per column (length ``n``),
- ``her`` — per row, the count of its non-zeros that fall in columns holding a
  *single* non-zero (``rowSums((A != 0) * (hc == 1))``), or ``None``,
- ``hec`` — per column, the count of its non-zeros that fall in rows holding a
  single non-zero (``colSums((A != 0) * (hr == 1))``), or ``None``,
- summary metadata (maxima, non-empty counts, half-full counts, single-nnz
  counts, fully-diagonal flag) derived from ``hr``/``hc`` lazily on first
  access and cached on the instance.

The sketch is ``O(m + n)`` in size and is constructed in
``O(nnz(A) + m + n)`` time. Every count vector has one width,
:data:`COUNT_DTYPE` (int32, the paper's 4-byte counts of Figure 9); totals
such as :attr:`MNCSketch.total_nnz` are Python ints, and Algorithm 1 and
the Eq 17 scan read float64 views of the counts, so the width never
changes an answer. Instances are immutable value objects: all
propagation rules build new sketches, which makes memoization across DAG
paths and DP subchains safe.

Construction comes in two tiers (docs/PERFORMANCE.md):

- the **validating** constructor (``MNCSketch(...)``) checks every sketch
  invariant — shapes, count ranges, ``sum(hr) == sum(hc)``, extension
  dominance. User-facing entry points (:meth:`from_matrix`,
  deserialization, hand-built sketches) always go through it.
- the **trusted** fast path (:meth:`MNCSketch.trusted`) skips validation
  entirely. It is reserved for internal propagation rules whose outputs
  satisfy the invariants by construction; the chain DP builds O(n^2)
  derived sketches, so this tier is what keeps estimation inside an
  optimizer loop cheap. ``repro.core.hotpath.validated_scope`` re-routes
  it through full validation (used by ``repro.verify`` and the
  equivalence tests).

Summary statistics (``max_hr``, ``nnz_rows``, ``total_nnz``, ...) are
properties backed by per-axis caches: a propagated intermediate that is
only ever fed to a cost scan never pays for reductions it does not use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.hotpath import validation_forced
from repro.errors import SketchError
from repro.matrix.conversion import MatrixLike, as_csr
from repro.observability.metrics import METRICS
from repro.observability.trace import trace, tracing_enabled

_FIELD_NAMES = ("shape", "hr", "hc", "her", "hec", "fully_diagonal", "exact")

#: The one width of every count vector (``hr``, ``hc``, ``her``, ``hec``).
#: A count never exceeds the opposing dimension, and the validating
#: constructor rejects a dimension above :data:`COUNT_MAX`, so int32 holds
#: every count; totals are summed in int64 (numpy widens an int32 sum).
COUNT_DTYPE = np.dtype(np.int32)
COUNT_MAX = int(np.iinfo(COUNT_DTYPE).max)

#: ``__dict__`` slots of the cached float64 views, and the mark of a sketch
#: that never caches them (:meth:`MNCSketch.counts_only`).
_F64_VIEWS = ("_hr_f64", "_hc_f64", "_her_f64", "_hec_f64")
_COUNTS_ONLY = "_counts_only"

#: Cached immutable zero vectors handed out by ``her_or_zeros``/
#: ``hec_or_zeros`` (Algorithm 1 treats a missing extension as all-zero;
#: allocating a fresh vector per estimate is pure hot-path garbage).
_ZEROS_CACHE: dict[tuple[int, str], np.ndarray] = {}
_ZEROS_CACHE_LIMIT = 128

# Hot-path counters (docs/PERFORMANCE.md): registry cells, bumped inline.
_TRUSTED = METRICS.cell("hotpath.trusted_constructions")
_VALIDATED = METRICS.cell("hotpath.validated_constructions")
_SUMMARIES = METRICS.cell("hotpath.summaries_materialized")
_ZERO_HITS = METRICS.cell("hotpath.zero_vector_hits")


def empty_counts(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Uninitialized ``hr``/``hc`` of an ``m x n`` sketch, as two views of
    one allocation.

    A propagated synopsis then owns one block of ``4 (m + n)`` bytes,
    which for square shapes is the size of one float64 view of its
    counts, so blocks the memo evicts are reused by the views and counts
    that later requests allocate instead of fragmenting the heap.
    """
    block = np.empty(m + n, dtype=COUNT_DTYPE)
    return block[:m], block[m:]


def _range_checked(values) -> np.ndarray:
    """*values* as an integer vector wide enough to range-check: count
    vectors pass through, anything else converts to int64 first."""
    arr = np.asarray(values)
    if arr.dtype != COUNT_DTYPE:
        arr = arr.astype(np.int64, copy=False)
    return arr


def _cached_zeros(length: int, dtype=COUNT_DTYPE) -> np.ndarray:
    key = (length, np.dtype(dtype).char)
    arr = _ZEROS_CACHE.get(key)
    if arr is None:
        if len(_ZEROS_CACHE) >= _ZEROS_CACHE_LIMIT:
            _ZEROS_CACHE.clear()
        arr = np.zeros(length, dtype=dtype)
        arr.setflags(write=False)
        _ZEROS_CACHE[key] = arr
    else:
        _ZERO_HITS.value += 1
    return arr


@dataclass(frozen=True, eq=False)
class MNCSketch:
    """Count-based synopsis of a sparse matrix's non-zero structure.

    Attributes:
        shape: the matrix shape ``(m, n)``.
        hr: int32 (:data:`COUNT_DTYPE`) vector of non-zeros per row.
        hc: int32 (:data:`COUNT_DTYPE`) vector of non-zeros per column.
        her: extended row counts (non-zeros lying in single-non-zero
            columns), or ``None`` when not constructed / not propagated.
        hec: extended column counts (non-zeros lying in single-non-zero
            rows), or ``None`` when not constructed / not propagated.
        fully_diagonal: ``True`` only when the matrix is known to be square
            with a fully dense diagonal and nothing off-diagonal (enables
            exact propagation, Eq 12). ``False`` means "unknown or not".
        exact: ``True`` while the counts are exact for the underlying matrix;
            propagation through estimated operations clears the flag. Used
            only for introspection/diagnostics, never for estimation.
    """

    shape: tuple[int, int]
    hr: np.ndarray
    hc: np.ndarray
    her: Optional[np.ndarray] = None
    hec: Optional[np.ndarray] = None
    fully_diagonal: bool = False
    exact: bool = True

    def __post_init__(self) -> None:
        _VALIDATED.value += 1
        m, n = self.shape
        if m > COUNT_MAX or n > COUNT_MAX:
            raise SketchError(
                f"shape {self.shape} exceeds the largest dimension a "
                f"{COUNT_DTYPE} count can hold ({COUNT_MAX})"
            )
        # Every check runs before the counts narrow to COUNT_DTYPE, so an
        # out-of-range input is rejected instead of wrapped.
        hr = _range_checked(self.hr)
        hc = _range_checked(self.hc)
        if hr.shape != (m,):
            raise SketchError(f"hr has shape {hr.shape}, expected ({m},)")
        if hc.shape != (n,):
            raise SketchError(f"hc has shape {hc.shape}, expected ({n},)")
        if hr.size and (hr.min() < 0 or hr.max() > n):
            raise SketchError("row counts must lie in [0, n]")
        if hc.size and (hc.min() < 0 or hc.max() > m):
            raise SketchError("column counts must lie in [0, m]")
        row_total = int(hr.sum())
        col_total = int(hc.sum())
        if row_total != col_total:
            raise SketchError(
                f"inconsistent sketch: sum(hr)={row_total} != sum(hc)={col_total}"
            )
        for name, ext, counts in (("her", self.her, hr), ("hec", self.hec, hc)):
            if ext is None:
                continue
            ext = _range_checked(ext)
            if ext.shape != counts.shape:
                raise SketchError(
                    f"{name} has shape {ext.shape}, expected {counts.shape}"
                )
            if ext.size and ext.min() < 0:
                raise SketchError(f"{name} must be non-negative")
            if np.any(ext > counts):
                counts_name = "hr" if name == "her" else "hc"
                raise SketchError(f"{name} cannot exceed {counts_name} entry-wise")
            object.__setattr__(
                self, name, np.ascontiguousarray(ext, dtype=COUNT_DTYPE)
            )
        object.__setattr__(self, "hr", np.ascontiguousarray(hr, dtype=COUNT_DTYPE))
        object.__setattr__(self, "hc", np.ascontiguousarray(hc, dtype=COUNT_DTYPE))
        # Validation already paid for the row total; keep it.
        self.__dict__["_total_nnz"] = row_total

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def trusted(
        cls,
        shape: tuple[int, int],
        hr: np.ndarray,
        hc: np.ndarray,
        her: Optional[np.ndarray] = None,
        hec: Optional[np.ndarray] = None,
        fully_diagonal: bool = False,
        exact: bool = True,
    ) -> MNCSketch:
        """Build a sketch *without* invariant validation (fast tier).

        Callers guarantee what the validating constructor would check:
        ``hr``/``hc`` are contiguous :data:`COUNT_DTYPE` vectors of the
        right lengths with entries in range, ``sum(hr) == sum(hc)``, and
        extensions (if any) are :data:`COUNT_DTYPE`, non-negative, and
        dominated by the counts. Every internal propagation rule satisfies
        this by construction.

        Under :func:`repro.core.hotpath.validated_scope` (active during
        ``repro.verify`` contract runs) the call transparently degrades to
        the validating constructor, so fuzzing exercises the checks, and
        counts of any other dtype are rejected rather than converted: the
        validating constructor would narrow them silently, and a rule that
        emits them is a bug.
        """
        if validation_forced():
            for name, counts in (("hr", hr), ("hc", hc), ("her", her), ("hec", hec)):
                dtype = getattr(counts, "dtype", None)
                if counts is not None and dtype != COUNT_DTYPE:
                    raise SketchError(
                        f"trusted {name} has dtype {dtype}, expected {COUNT_DTYPE}"
                    )
            return cls(
                shape=shape, hr=hr, hc=hc, her=her, hec=hec,
                fully_diagonal=fully_diagonal, exact=exact,
            )
        _TRUSTED.value += 1
        self = object.__new__(cls)
        d = self.__dict__
        d["shape"] = shape
        d["hr"] = hr
        d["hc"] = hc
        d["her"] = her
        d["hec"] = hec
        d["fully_diagonal"] = fully_diagonal
        d["exact"] = exact
        return self

    @classmethod
    def from_matrix(cls, matrix: MatrixLike, with_extensions: bool = True) -> MNCSketch:
        """Build the MNC sketch of *matrix* (Section 3.1).

        Everything comes from one canonical CSR, never a CSC transpose:
        ``hr`` from the index pointers and ``hc`` as a count of the column
        indices (one scan over the non-zeros). Extension vectors are built in
        a second filtered scan and only when they can carry information, i.e.
        when some row or column has more than one non-zero; otherwise
        Theorem 3.1 already yields exact estimates and the extensions are
        omitted. An extension whose filter is empty (no single-non-zero
        column for ``her``, no single-non-zero row for ``hec``) is all-zero,
        so it is omitted without scanning.

        This is a user-facing entry point, so the result is fully validated.

        Args:
            matrix: matrix-like input.
            with_extensions: set ``False`` to build the "MNC Basic" variant
                used as an ablation in the paper's Figures 10–13.
        """
        if not tracing_enabled():
            return cls._from_matrix_impl(matrix, with_extensions)
        with trace("mnc.sketch.build", with_extensions=with_extensions) as span:
            sketch = cls._from_matrix_impl(matrix, with_extensions)
            span.annotate(shape=sketch.shape, nnz=sketch.total_nnz)
            return sketch

    @classmethod
    def _from_matrix_impl(cls, matrix: MatrixLike, with_extensions: bool) -> MNCSketch:
        csr = as_csr(matrix)
        m, n = csr.shape
        indices = csr.indices
        hr = np.diff(csr.indptr).astype(COUNT_DTYPE, copy=False)
        hc = np.bincount(indices, minlength=n).astype(COUNT_DTYPE)
        her: Optional[np.ndarray] = None
        hec: Optional[np.ndarray] = None
        max_hr = int(hr.max()) if hr.size else 0
        max_hc = int(hc.max()) if hc.size else 0
        if with_extensions and (max_hr > 1 or max_hc > 1):
            # An extension is all-zero exactly when its filter is empty (a
            # single-non-zero column adds its non-zero to some row's her, and
            # symmetrically for hec). All-zero extensions are never built:
            # Algorithm 1's extension case degenerates bit-for-bit to the
            # fallback case, and dropping them saves the residual
            # subtractions and dot products on every downstream estimate.
            single_cols = hc == 1
            if single_cols.any():
                # her[i]: non-zeros of row i lying in single-non-zero columns.
                row_ids = np.repeat(np.arange(m), hr)
                her = np.bincount(
                    row_ids[single_cols[indices]], minlength=m
                ).astype(COUNT_DTYPE)
            single_rows = hr == 1
            if single_rows.any():
                # hec[j]: non-zeros of column j lying in single-non-zero rows.
                hec = np.bincount(
                    indices[np.repeat(single_rows, hr)], minlength=n
                ).astype(COUNT_DTYPE)
        diagonal = bool(
            m == n and csr.nnz == m and _structure_is_diagonal(csr)
        )
        sketch = cls(
            shape=(m, n), hr=hr, hc=hc, her=her, hec=hec,
            fully_diagonal=diagonal, exact=True,
        )
        # The extensions decision already computed the maxima — keep them.
        sketch.__dict__["_row_stats_max"] = max_hr
        sketch.__dict__["_col_stats_max"] = max_hc
        return sketch

    @classmethod
    def synthetic(
        cls,
        m: int,
        n: int,
        sparsity: float,
        rng: Optional[np.random.Generator] = None,
    ) -> MNCSketch:
        """Synthesize the sketch of a *virtual* uniform random matrix.

        Draws row/column histograms from the multinomial distribution an
        actual uniform ``m x n`` matrix of the given sparsity would induce,
        without materializing any matrix. Used for optimizer experiments at
        dimensions too large to materialize (paper Appendix C's 20-matrix
        chains with 10^4 dimensions).
        """
        if rng is None:
            rng = np.random.default_rng()
        if not 0.0 <= sparsity <= 1.0:
            raise SketchError(f"sparsity must be in [0, 1], got {sparsity}")
        nnz = min(int(round(sparsity * m * n)), m * n)
        hr = _capped_multinomial(nnz, m, n, rng)
        hc = _capped_multinomial(int(hr.sum()), n, m, rng)
        return cls(shape=(m, n), hr=hr, hc=hc, her=None, hec=None,
                   fully_diagonal=False, exact=False)

    # ------------------------------------------------------------------
    # Lazy cached summary statistics
    # ------------------------------------------------------------------
    #
    # Row-side and column-side statistics are each materialized in one
    # bundled pass on first access (they share the scan); the total comes
    # free with validation and is otherwise a single reduction.

    def _materialize_rows(self) -> None:
        hr, n = self.hr, self.shape[1]
        d = self.__dict__
        if hr.size:
            if "_row_stats_max" not in d:
                d["_row_stats_max"] = int(hr.max())
            d["_row_stats_nnz"] = int(np.count_nonzero(hr))
            # Integer counts: ``hr > n / 2`` exactly when ``hr > n // 2``,
            # and the integer comparison skips a float conversion.
            d["_row_stats_half"] = int(np.count_nonzero(hr > n // 2))
            d["_row_stats_single"] = int(np.count_nonzero(hr == 1))
        else:
            d.setdefault("_row_stats_max", 0)
            d["_row_stats_nnz"] = d["_row_stats_half"] = d["_row_stats_single"] = 0
        _SUMMARIES.value += 1

    def _materialize_cols(self) -> None:
        hc, m = self.hc, self.shape[0]
        d = self.__dict__
        if hc.size:
            if "_col_stats_max" not in d:
                d["_col_stats_max"] = int(hc.max())
            d["_col_stats_nnz"] = int(np.count_nonzero(hc))
            d["_col_stats_half"] = int(np.count_nonzero(hc > m // 2))
            d["_col_stats_single"] = int(np.count_nonzero(hc == 1))
        else:
            d.setdefault("_col_stats_max", 0)
            d["_col_stats_nnz"] = d["_col_stats_half"] = d["_col_stats_single"] = 0
        _SUMMARIES.value += 1

    @property
    def max_hr(self) -> int:
        """Largest row count (0 for empty shapes)."""
        try:
            return self.__dict__["_row_stats_max"]
        except KeyError:
            hr = self.hr
            value = int(hr.max()) if hr.size else 0
            self.__dict__["_row_stats_max"] = value
            return value

    @property
    def max_hc(self) -> int:
        """Largest column count (0 for empty shapes)."""
        try:
            return self.__dict__["_col_stats_max"]
        except KeyError:
            hc = self.hc
            value = int(hc.max()) if hc.size else 0
            self.__dict__["_col_stats_max"] = value
            return value

    @property
    def nnz_rows(self) -> int:
        """Number of non-empty rows."""
        try:
            return self.__dict__["_row_stats_nnz"]
        except KeyError:
            self._materialize_rows()
            return self.__dict__["_row_stats_nnz"]

    @property
    def nnz_cols(self) -> int:
        """Number of non-empty columns."""
        try:
            return self.__dict__["_col_stats_nnz"]
        except KeyError:
            self._materialize_cols()
            return self.__dict__["_col_stats_nnz"]

    @property
    def rows_half_full(self) -> int:
        """Rows more than half full (Theorem 3.2 lower bound)."""
        try:
            return self.__dict__["_row_stats_half"]
        except KeyError:
            self._materialize_rows()
            return self.__dict__["_row_stats_half"]

    @property
    def cols_half_full(self) -> int:
        """Columns more than half full (Theorem 3.2 lower bound)."""
        try:
            return self.__dict__["_col_stats_half"]
        except KeyError:
            self._materialize_cols()
            return self.__dict__["_col_stats_half"]

    @property
    def rows_single(self) -> int:
        """Rows holding exactly one non-zero."""
        try:
            return self.__dict__["_row_stats_single"]
        except KeyError:
            self._materialize_rows()
            return self.__dict__["_row_stats_single"]

    @property
    def cols_single(self) -> int:
        """Columns holding exactly one non-zero."""
        try:
            return self.__dict__["_col_stats_single"]
        except KeyError:
            self._materialize_cols()
            return self.__dict__["_col_stats_single"]

    @property
    def row_stats(self) -> tuple[int, int, int, int]:
        """``(max_hr, nnz_rows, rows_half_full, rows_single)`` as one tuple.

        Algorithm 1 touches four row-side statistics per call; the bundle
        turns eight cached-property lookups per estimate into two.
        """
        d = self.__dict__
        try:
            return d["_row_bundle"]
        except KeyError:
            bundle = (
                self.max_hr, self.nnz_rows,
                self.rows_half_full, self.rows_single,
            )
            d["_row_bundle"] = bundle
            return bundle

    @property
    def col_stats(self) -> tuple[int, int, int, int]:
        """``(max_hc, nnz_cols, cols_half_full, cols_single)`` as one tuple."""
        d = self.__dict__
        try:
            return d["_col_bundle"]
        except KeyError:
            bundle = (
                self.max_hc, self.nnz_cols,
                self.cols_half_full, self.cols_single,
            )
            d["_col_bundle"] = bundle
            return bundle

    @property
    def total_nnz(self) -> int:
        """Total non-zero count ``sum(hr)``."""
        try:
            return self.__dict__["_total_nnz"]
        except KeyError:
            value = int(self.hr.sum())
            self.__dict__["_total_nnz"] = value
            return value

    def _f64(self, slot: str, counts: np.ndarray) -> np.ndarray:
        """*counts* as a read-only float64 vector, cached under *slot*
        unless this is a :meth:`counts_only` sketch."""
        value = counts.astype(np.float64)
        value.setflags(write=False)
        if _COUNTS_ONLY not in self.__dict__:
            self.__dict__[slot] = value
        return value

    @property
    def hr_f64(self) -> np.ndarray:
        """``hr`` as float64, cached (Algorithm 1 / cost-scan operand)."""
        try:
            return self.__dict__["_hr_f64"]
        except KeyError:
            return self._f64("_hr_f64", self.hr)

    @property
    def hc_f64(self) -> np.ndarray:
        """``hc`` as float64, cached (Algorithm 1 / cost-scan operand)."""
        try:
            return self.__dict__["_hc_f64"]
        except KeyError:
            return self._f64("_hc_f64", self.hc)

    def her_f64_or_zeros(self) -> np.ndarray:
        """``her_or_zeros()`` as float64, cached and read-only."""
        if self.her is None:
            return _cached_zeros(self.shape[0], np.float64)
        try:
            return self.__dict__["_her_f64"]
        except KeyError:
            return self._f64("_her_f64", self.her)

    def hec_f64_or_zeros(self) -> np.ndarray:
        """``hec_or_zeros()`` as float64, cached and read-only."""
        if self.hec is None:
            return _cached_zeros(self.shape[1], np.float64)
        try:
            return self.__dict__["_hec_f64"]
        except KeyError:
            return self._f64("_hec_f64", self.hec)

    def counts_only(self) -> MNCSketch:
        """This sketch holding only its count vectors, for long-lived caches.

        The result shares the count vectors and summary statistics, drops
        any cached float64 view and never caches one: each use re-derives
        it (one ``astype``, ~5 µs at 20000 entries). Its arrays therefore
        stay exactly what :meth:`size_bytes` counts, which is what
        :meth:`footprint_bytes` charges for it.
        """
        if _COUNTS_ONLY in self.__dict__:
            return self
        twin = object.__new__(MNCSketch)
        state = twin.__dict__
        state.update(self.__dict__)
        for slot in _F64_VIEWS:
            state.pop(slot, None)
        state[_COUNTS_ONLY] = True
        return twin

    # ------------------------------------------------------------------
    # Pickling: drop lazy caches (cheap to rebuild, and the float64
    # mirrors would double the size of pickled task payloads).
    # ------------------------------------------------------------------

    def __getstate__(self) -> dict:
        return {name: self.__dict__[name] for name in _FIELD_NAMES}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def nrows(self) -> int:
        """Number of matrix rows."""
        return self.shape[0]

    @property
    def ncols(self) -> int:
        """Number of matrix columns."""
        return self.shape[1]

    @property
    def cells(self) -> int:
        """Total number of matrix cells ``m * n``."""
        return self.shape[0] * self.shape[1]

    @property
    def sparsity(self) -> float:
        """``nnz / (m * n)`` (the paper's sparsity; 0.0 for empty shapes)."""
        if self.cells == 0:
            return 0.0
        return self.total_nnz / self.cells

    @property
    def has_extensions(self) -> bool:
        """True when at least one extension vector is present."""
        return self.her is not None or self.hec is not None

    def her_or_zeros(self) -> np.ndarray:
        """``her`` with missing vector treated as all-zero (Algorithm 1).

        The zero vector is cached and read-only; copy before mutating.
        """
        if self.her is not None:
            return self.her
        return _cached_zeros(self.nrows)

    def hec_or_zeros(self) -> np.ndarray:
        """``hec`` with missing vector treated as all-zero (Algorithm 1).

        The zero vector is cached and read-only; copy before mutating.
        """
        if self.hec is not None:
            return self.hec
        return _cached_zeros(self.ncols)

    def without_extensions(self) -> MNCSketch:
        """Return an MNC-Basic view of this sketch (extensions dropped)."""
        if not self.has_extensions:
            return self
        return MNCSketch.trusted(
            shape=self.shape, hr=self.hr, hc=self.hc, her=None, hec=None,
            fully_diagonal=self.fully_diagonal, exact=self.exact,
        )

    def size_bytes(self) -> int:
        """Synopsis size in bytes (count vectors + fixed metadata).

        The count vectors are :data:`COUNT_DTYPE`, the 4-byte counts the
        paper sizes MNC with in Figure 9, plus a small constant for the
        summary statistics.
        """
        return sum(v.nbytes for v in self._vectors()) + 9 * 8

    def footprint_bytes(self) -> int:
        """Bytes this sketch can come to hold: :meth:`size_bytes` plus the
        float64 view of each count vector, which Algorithm 1 caches on
        first use; a :meth:`counts_only` twin caches none.

        Long-lived caches charge this (``repro.catalog.memo.entry_charge``),
        so what they hold never outgrows what they were charged.
        """
        size = self.size_bytes()
        if _COUNTS_ONLY in self.__dict__:
            return size
        return size + 8 * sum(v.size for v in self._vectors())

    def _vectors(self) -> tuple[np.ndarray, ...]:
        """``hr``, ``hc`` and the extensions that are present."""
        return tuple(
            v for v in (self.hr, self.hc, self.her, self.hec) if v is not None
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MNCSketch(shape={self.shape}, nnz={self.total_nnz}, "
            f"max_hr={self.max_hr}, max_hc={self.max_hc}, "
            f"extensions={self.has_extensions}, diagonal={self.fully_diagonal})"
        )


def _capped_multinomial(
    total: int, bins: int, cap: int, rng: np.random.Generator
) -> np.ndarray:
    """Spread *total* counts over *bins* uniformly, each at most *cap*.

    Overflow beyond the cap (only possible when ``total`` is close to
    ``bins * cap``) is redistributed over bins with remaining room, so the
    result always sums to *total* exactly. Redistribution is bulk: each
    round spreads the whole remaining overflow proportionally to the
    per-bin room (capped), so near-dense inputs converge in a handful of
    rounds instead of degenerating into ``overflow / room`` one-increment
    passes.
    """
    if bins == 1:
        return np.array([total], dtype=np.int64)
    counts = rng.multinomial(total, np.full(bins, 1.0 / bins)).astype(np.int64)
    overflow = int((counts - cap).clip(min=0).sum())
    np.minimum(counts, cap, out=counts)
    while overflow > 0:
        room_idx = np.flatnonzero(counts < cap)
        if room_idx.size == 0:  # pragma: no cover - total <= bins * cap
            break
        room = (cap - counts[room_idx]).astype(np.int64)
        capacity = int(room.sum())
        if overflow >= capacity:
            counts[room_idx] = cap
            overflow -= capacity
            continue
        add = rng.multinomial(overflow, room / capacity).astype(np.int64)
        np.minimum(add, room, out=add)
        counts[room_idx] += add
        overflow -= int(add.sum())
    return counts


def _structure_is_diagonal(csr) -> bool:
    rows = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))
    return bool(np.array_equal(rows, csr.indices))
