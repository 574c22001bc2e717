"""JSON wire format for the estimation server.

Everything the server speaks is plain JSON over HTTP; this module is the
single place where wire payloads become library objects and back. Design
rules:

- **Structure only travels.** The estimators are structural, so matrices
  cross the wire as sparsity *patterns*: a COO structure payload
  ``{"shape": [m, n], "rows": [...], "cols": [...]}`` (all listed cells
  are non-zero) or, for small inputs, ``{"dense": [[...]]}`` whose
  non-zeros define the pattern. Values never travel.
- **Expressions are trees with named leaves.** A leaf is
  ``{"ref": name}`` resolved against the registry (which returns a cached
  :class:`~repro.ir.nodes.Expr`, so resends hit every fingerprint memo);
  an inner node is ``{"op": <Op value>, "inputs": [...]}`` with optional
  ``"params"`` (only ``reshape`` has any: ``rows``/``cols``).
- **Malformed input is a 400, not a 500.** Every decoder raises
  :class:`~repro.errors.ProtocolError` with a message naming the bad
  field; the server maps that to a client error.

:func:`canonical_expr_key` gives the cache key the server uses to avoid
re-parsing a resent expression: canonical JSON (sorted keys, no spaces) of
the wire tree, which is exactly identity under the wire format.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Optional

import numpy as np
import scipy.sparse as sp

from repro.errors import ProtocolError
from repro.ir.nodes import Expr
from repro.opcodes import Op

#: Guard rail for wire matrices: reject absurd dense payloads outright.
MAX_DENSE_CELLS = 4_000_000


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError(message)


# ----------------------------------------------------------------------
# Matrices
# ----------------------------------------------------------------------

def decode_matrix(obj: Any) -> sp.csr_array:
    """Wire matrix payload -> structural CSR (all non-zeros are 1.0)."""
    _require(isinstance(obj, dict), f"matrix payload must be an object, got {type(obj).__name__}")
    if "dense" in obj:
        return _decode_dense(obj["dense"])
    for field in ("shape", "rows", "cols"):
        _require(field in obj, f"matrix payload missing {field!r}")
    shape = obj["shape"]
    _require(
        isinstance(shape, (list, tuple)) and len(shape) == 2,
        f"matrix shape must be [rows, cols], got {shape!r}",
    )
    try:
        m, n = int(shape[0]), int(shape[1])
    except (TypeError, ValueError):
        raise ProtocolError(f"matrix shape must be integers, got {shape!r}") from None
    _require(m >= 0 and n >= 0, f"matrix shape must be non-negative, got {shape!r}")
    try:
        rows = np.asarray(obj["rows"], dtype=np.int64)
        cols = np.asarray(obj["cols"], dtype=np.int64)
    except (TypeError, ValueError):
        raise ProtocolError("matrix rows/cols must be integer arrays") from None
    _require(rows.ndim == 1 and cols.ndim == 1, "matrix rows/cols must be flat arrays")
    _require(
        rows.shape == cols.shape,
        f"matrix rows/cols lengths differ: {rows.size} != {cols.size}",
    )
    if rows.size:
        _require(
            bool(rows.min() >= 0 and rows.max() < m),
            f"matrix row index out of range for {m} rows",
        )
        _require(
            bool(cols.min() >= 0 and cols.max() < n),
            f"matrix column index out of range for {n} columns",
        )
    data = np.ones(rows.size, dtype=np.float64)
    matrix = sp.csr_array(sp.coo_array((data, (rows, cols)), shape=(m, n)))
    # Duplicate coordinates collapse structurally (1+1 is still non-zero).
    matrix.data[:] = 1.0
    return matrix


def _decode_dense(cells: Any) -> sp.csr_array:
    _require(isinstance(cells, list), "dense payload must be a list of rows")
    try:
        array = np.asarray(cells, dtype=np.float64)
    except (TypeError, ValueError):
        raise ProtocolError("dense payload must be numeric and rectangular") from None
    _require(array.ndim == 2, f"dense payload must be 2-D, got {array.ndim}-D")
    _require(
        array.size <= MAX_DENSE_CELLS,
        f"dense payload too large ({array.size} cells > {MAX_DENSE_CELLS})",
    )
    return sp.csr_array(array)


def encode_matrix(matrix: Any) -> Dict[str, Any]:
    """Matrix-like -> COO structure wire payload (the client's encoder)."""
    coo = sp.coo_array(sp.csr_array(matrix))
    return {
        "shape": [int(coo.shape[0]), int(coo.shape[1])],
        "rows": [int(r) for r in coo.row],
        "cols": [int(c) for c in coo.col],
    }


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------

def decode_expr(obj: Any, resolve: Callable[[str], Expr]) -> Expr:
    """Wire expression tree -> :class:`Expr` DAG.

    *resolve* maps a leaf name to its (cached) leaf expression; it should
    raise :class:`ProtocolError` for unknown names.
    """
    _require(isinstance(obj, dict), f"expression node must be an object, got {type(obj).__name__}")
    if "ref" in obj:
        name = obj["ref"]
        _require(isinstance(name, str), f"ref must be a string, got {name!r}")
        return resolve(name)
    if "matrix" in obj:
        # Anonymous inline leaf: useful for one-shot queries, but it skips
        # the registry's Expr cache, so repeated queries should register.
        from repro.ir.nodes import leaf

        return leaf(decode_matrix(obj["matrix"]))
    _require("op" in obj, "expression node needs 'ref', 'matrix', or 'op'")
    try:
        op = Op(obj["op"])
    except ValueError:
        raise ProtocolError(f"unknown operation {obj['op']!r}") from None
    _require(op is not Op.LEAF, "leaf nodes travel as {'ref': name}, not op='leaf'")
    inputs = obj.get("inputs", [])
    _require(isinstance(inputs, list), "'inputs' must be a list of nodes")
    _require(
        len(inputs) == op.arity,
        f"{op.value} expects {op.arity} inputs, got {len(inputs)}",
    )
    params = obj.get("params", {})
    _require(isinstance(params, dict), "'params' must be an object")
    if op is Op.RESHAPE:
        for field in ("rows", "cols"):
            _require(field in params, f"reshape needs params.{field}")
        params = {"rows": int(params["rows"]), "cols": int(params["cols"])}
    children = tuple(decode_expr(child, resolve) for child in inputs)
    from repro.errors import ShapeError

    try:
        return Expr(op, children, params=params)
    except ShapeError as exc:
        raise ProtocolError(f"invalid expression: {exc}") from None


def canonical_expr_key(obj: Any) -> str:
    """Canonical JSON of a wire expression — the parse-cache key."""
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError):
        raise ProtocolError("expression is not JSON-serializable") from None


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------

def encode_estimate_result(result: Dict[str, Any]) -> Dict[str, Any]:
    """Service result dict -> JSON-safe response payload."""
    payload: Dict[str, Any] = {
        "nnz": float(result["nnz"]),
        "sparsity": float(result["sparsity"]),
        "fingerprint": str(result["fingerprint"]),
        "cached": bool(result["cached"]),
        "seconds": float(result.get("seconds", 0.0)),
    }
    router = result.get("router")
    if router is not None:
        # Routed requests echo the decision: chosen tier, escalation
        # count, and the uncertainty interval the stop was based on.
        payload["router"] = _jsonable_dict(router)
    intermediates = result.get("intermediates")
    if intermediates is not None:
        # estimate_dag reports id(node) -> NodeEstimate; node identity is
        # meaningless across the wire, so ship the per-node records only
        # (postorder — children before parents, root last).
        payload["intermediates"] = [
            {
                "label": str(entry.label),
                "shape": [int(d) for d in entry.shape],
                "nnz": float(entry.nnz),
            }
            for entry in intermediates.values()
        ]
    return payload


def encode_chain_solution(solution: Any) -> Dict[str, Any]:
    """ChainSolution -> ``{"plan": nested lists, "cost": float}``."""
    return {"plan": _plan_to_json(solution.plan), "cost": float(solution.cost)}


def _plan_to_json(plan: Any) -> Any:
    if isinstance(plan, (int, np.integer)):
        return int(plan)
    left, right = plan
    return [_plan_to_json(left), _plan_to_json(right)]


def _jsonable(value: Any) -> Any:
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return _jsonable_dict(value)
    return value


def _jsonable_dict(payload: Dict[str, Any]) -> Dict[str, Any]:
    return {str(key): _jsonable(value) for key, value in payload.items()}


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------

def decode_estimate_request(body: Dict[str, Any]) -> Dict[str, Any]:
    """Classify and validate a ``POST /estimate`` body.

    Returns a dict with ``kind`` in ``{"estimate", "estimate_many",
    "optimize_chain"}`` plus the kind's raw fields, leaving expression
    parsing to the server (which owns the parse cache). Exactly one of
    ``expr`` / ``exprs`` / ``chain`` must be present.
    """
    _require(isinstance(body, dict), "request body must be a JSON object")
    present = [field for field in ("expr", "exprs", "chain") if field in body]
    _require(
        len(present) == 1,
        f"request needs exactly one of 'expr', 'exprs', 'chain'; got {present or 'none'}",
    )
    workers = body.get("workers")
    if workers is not None:
        try:
            workers = int(workers)
        except (TypeError, ValueError):
            raise ProtocolError(f"'workers' must be an integer, got {workers!r}") from None
    estimator_spec = _decode_estimator(body)
    if "expr" in body:
        return {
            "kind": "estimate",
            "expr": body["expr"],
            "include_intermediates": bool(body.get("include_intermediates", False)),
            "estimator_spec": estimator_spec,
        }
    if "exprs" in body:
        exprs = body["exprs"]
        _require(isinstance(exprs, list) and exprs, "'exprs' must be a non-empty list")
        return {
            "kind": "estimate_many",
            "exprs": exprs,
            "workers": workers,
            "estimator_spec": estimator_spec,
        }
    _require(
        estimator_spec is None,
        "'estimator'/'tolerance' do not apply to chain optimization "
        "(plans cost with the catalog's canonical sketches)",
    )
    chain = body["chain"]
    _require(isinstance(chain, list) and len(chain) >= 2, "'chain' must list >= 2 matrix names")
    _require(
        all(isinstance(name, str) for name in chain),
        "'chain' entries must be registered matrix names",
    )
    seed = body.get("seed")
    if seed is not None:
        try:
            seed = int(seed)
        except (TypeError, ValueError):
            raise ProtocolError(f"'seed' must be an integer, got {seed!r}") from None
    return {"kind": "optimize_chain", "chain": chain, "seed": seed, "workers": workers}


def _decode_estimator(body: Dict[str, Any]):
    """Optional per-request estimator selection.

    ``"estimator"`` may be a name string (``"auto"`` routes adaptively) or
    a spec object (``{"name": ..., "options": ..., ...}``); a bare
    ``"tolerance"`` implies ``"auto"``. Returns an
    :class:`~repro.estimators.spec.EstimatorSpec` or ``None``. Malformed
    selections raise :class:`~repro.errors.EstimatorError` subclasses,
    which the server maps to a structured 400.
    """
    from repro.estimators.spec import EstimatorSpec

    estimator = body.get("estimator")
    tolerance = body.get("tolerance")
    seed = body.get("seed") if "expr" in body or "exprs" in body else None
    if estimator is None and tolerance is None and seed is None:
        return None
    if seed is not None:
        try:
            seed = int(seed)
        except (TypeError, ValueError):
            raise ProtocolError(f"'seed' must be an integer, got {seed!r}") from None
    return EstimatorSpec.parse(estimator, tolerance=tolerance, seed=seed)


def decode_update_request(body: Dict[str, Any]) -> List[Any]:
    """Validate a ``POST /matrices/{name}/updates`` body.

    The body carries either one ``"delta"`` or a non-empty ordered
    ``"deltas"`` list, each entry in the
    :func:`repro.core.incremental.delta_to_payload` wire format. Returns
    the decoded delta objects in application order; malformed payloads are
    a 400 (:class:`ProtocolError`), never a 500.
    """
    from repro.core.incremental import delta_from_payload
    from repro.errors import SketchError

    _require(isinstance(body, dict), "request body must be a JSON object")
    has_delta = "delta" in body
    has_deltas = "deltas" in body
    _require(
        has_delta != has_deltas,
        "provide exactly one of 'delta' or 'deltas'",
    )
    raw = [body["delta"]] if has_delta else body["deltas"]
    _require(
        isinstance(raw, list) and bool(raw),
        "'deltas' must be a non-empty list",
    )
    deltas: List[Any] = []
    for position, payload in enumerate(raw):
        try:
            deltas.append(delta_from_payload(payload))
        except SketchError as exc:
            raise ProtocolError(f"delta {position}: {exc}") from None
    return deltas


def decode_register_request(body: Dict[str, Any]) -> Dict[str, Any]:
    """Validate a ``POST /matrices`` body (whole matrix or shards)."""
    _require(isinstance(body, dict), "request body must be a JSON object")
    name = body.get("name")
    _require(
        isinstance(name, str) and bool(name),
        "'name' (non-empty string) is required",
    )
    has_matrix = "matrix" in body
    has_shards = "shards" in body
    _require(
        has_matrix != has_shards,
        "provide exactly one of 'matrix' or 'shards'",
    )
    if has_matrix:
        return {"name": name, "matrix": body["matrix"]}
    shards = body["shards"]
    _require(isinstance(shards, list) and shards, "'shards' must be a non-empty list")
    axis = body.get("axis", 0)
    _require(axis in (0, 1), f"'axis' must be 0 (rows) or 1 (cols), got {axis!r}")
    indices: Optional[List[int]] = None
    entries: List[Any] = []
    for position, shard in enumerate(shards):
        _require(isinstance(shard, dict), f"shard {position} must be an object")
        entries.append(shard.get("matrix", shard))
        if "index" in shard:
            if indices is None:
                _require(position == 0, "either every shard carries 'index' or none does")
                indices = []
            try:
                indices.append(int(shard["index"]))
            except (TypeError, ValueError):
                raise ProtocolError(f"shard {position} 'index' must be an integer") from None
        else:
            _require(indices is None, "either every shard carries 'index' or none does")
    return {"name": name, "shards": entries, "axis": axis, "indices": indices}
