"""Named-matrix registry backing the estimation server.

The wire protocol references matrices by logical name (``{"ref": "X"}``);
:class:`MatrixRegistry` owns that namespace. Beyond a name -> matrix map it
keeps one **cached leaf Expr per name**: expression identity is object
identity for the fingerprint layer's weak memo, so handing every request
the *same* leaf object makes a re-sent expression hit every cache from
fingerprints down to memoized root estimates. Rebinding a name invalidates
the old fingerprint through the service, so stale estimates cannot leak
into answers for the replacement matrix.

Shard-merged registration is the distributed-ingest path of paper
Section 3.1: shards are sketched individually, merged exactly via
:mod:`repro.core.distributed`, and the merged sketch is registered as the
full matrix's canonical synopsis (see
:meth:`~repro.catalog.service.EstimationService.register_sketched` for why
the merged — not rebuilt — sketch must win).
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Sequence

import scipy.sparse as sp

from repro.catalog.fingerprint import assign_fingerprint
from repro.catalog.service import EstimationService
from repro.core.distributed import merge_partitions
from repro.core.incremental import IncrementalSketch
from repro.core.sketch import MNCSketch
from repro.errors import ProtocolError, SketchError
from repro.ir.nodes import Expr, leaf
from repro.observability.metrics import metric_inc


class MatrixRegistry:
    """Thread-safe name -> (matrix, leaf Expr, fingerprint) registry."""

    def __init__(self, service: EstimationService):
        self.service = service
        self._lock = threading.Lock()
        self._matrices: Dict[str, sp.csr_array] = {}
        self._leaves: Dict[str, Expr] = {}
        self._fingerprints: Dict[str, str] = {}
        #: Per-name streaming trackers, created lazily on the first delta
        #: and discarded whenever the name is re-registered wholesale.
        self._incrementals: Dict[str, IncrementalSketch] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register(self, name: str, matrix: sp.csr_array) -> str:
        """Register a whole matrix under *name*; returns its fingerprint."""
        self._invalidate_rebind(name)
        fingerprint = self.service.register(matrix, name=name)
        with self._lock:
            self._matrices[name] = matrix
            self._leaves[name] = leaf(matrix, name=name)
            self._fingerprints[name] = fingerprint
            self._incrementals.pop(name, None)
        metric_inc("serve.registry.register")
        return fingerprint

    def register_partitioned(
        self,
        name: str,
        shards: Sequence[sp.csr_array],
        axis: int = 0,
        indices: Optional[Sequence[int]] = None,
    ) -> str:
        """Register shards of one matrix, merging sketches on ingest.

        Shards are sketched individually, merged exactly (out-of-order
        arrival handled via *indices*), and the merged sketch becomes the
        canonical synopsis of the reassembled matrix. Returns the full
        matrix's fingerprint.
        """
        if not shards:
            raise ProtocolError("'shards' must be a non-empty list")
        try:
            merged_sketch = merge_partitions(
                [MNCSketch.from_matrix(shard) for shard in shards],
                axis=axis,
                indices=indices,
            )
        except SketchError as exc:
            raise ProtocolError(f"cannot merge shards: {exc}") from None
        ordered = list(shards)
        if indices is not None:
            order = sorted(range(len(shards)), key=lambda i: indices[i])
            ordered = [shards[i] for i in order]
        stack = sp.vstack if axis == 0 else sp.hstack
        matrix = sp.csr_array(stack(ordered))
        self._invalidate_rebind(name)
        fingerprint = self.service.register_sketched(matrix, merged_sketch, name=name)
        with self._lock:
            self._matrices[name] = matrix
            self._leaves[name] = leaf(matrix, name=name)
            self._fingerprints[name] = fingerprint
            self._incrementals.pop(name, None)
        metric_inc("serve.registry.register_partitioned")
        return fingerprint

    # ------------------------------------------------------------------
    # Streaming updates
    # ------------------------------------------------------------------

    def apply_update(self, name: str, delta: Any) -> str:
        """Apply a streaming *delta* to the matrix registered as *name*.

        The name's :class:`~repro.core.incremental.IncrementalSketch` is
        created lazily from the registered matrix on the first delta and
        patched in place afterwards. The service chains the fingerprint in
        ``O(|delta|)`` and partially invalidates memoized results
        (:meth:`EstimationService.apply_update`); here the registry rebinds
        the name to ``to_matrix()``'s result as it is, with the chained
        fingerprint pre-assigned, and to a fresh leaf Expr over that very
        object (it is canonical, so ``as_csr`` keeps it). Leaf
        fingerprinting then finds the chained fingerprint, and no
        ``O(nnz)`` rehash ever runs. Held under the registry lock end to
        end, so concurrent deltas on one name serialize. Returns the new
        fingerprint.
        """
        with self._lock:
            if name not in self._matrices:
                raise ProtocolError(
                    f"no matrix registered under name {name!r}"
                )
            incremental = self._incrementals.get(name)
            if incremental is None:
                incremental = IncrementalSketch(self._matrices[name])
                self._incrementals[name] = incremental
            try:
                fingerprint = self.service.apply_update(
                    name, incremental, delta
                )
            except SketchError as exc:
                raise ProtocolError(f"cannot apply delta: {exc}") from None
            matrix = incremental.to_matrix()
            assign_fingerprint(matrix, fingerprint)
            self._matrices[name] = matrix
            self._leaves[name] = leaf(matrix, name=name)
            self._fingerprints[name] = fingerprint
        metric_inc("serve.registry.update")
        return fingerprint

    def _invalidate_rebind(self, name: str) -> None:
        with self._lock:
            stale = self._fingerprints.get(name)
        if stale is not None:
            self.service.invalidate(stale)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def resolve(self, name: str) -> Expr:
        """The cached leaf Expr for *name* (the wire decoder's resolver)."""
        with self._lock:
            try:
                return self._leaves[name]
            except KeyError:
                raise ProtocolError(f"no matrix registered under name {name!r}") from None

    def matrix(self, name: str) -> sp.csr_array:
        """The registered matrix itself (the chain optimizer's input)."""
        with self._lock:
            try:
                return self._matrices[name]
            except KeyError:
                raise ProtocolError(f"no matrix registered under name {name!r}") from None

    def fingerprint(self, name: str) -> str:
        with self._lock:
            try:
                return self._fingerprints[name]
            except KeyError:
                raise ProtocolError(f"no matrix registered under name {name!r}") from None

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._matrices)

    def __len__(self) -> int:
        with self._lock:
            return len(self._matrices)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._matrices

    def describe(self) -> List[Dict[str, Any]]:
        """JSON-safe listing for ``GET /stats``."""
        with self._lock:
            return [
                {
                    "name": name,
                    "shape": [int(d) for d in matrix.shape],
                    "nnz": int(matrix.nnz),
                    "fingerprint": self._fingerprints[name],
                }
                for name, matrix in sorted(self._matrices.items())
            ]
