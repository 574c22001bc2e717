"""Keep-alive HTTP client for the estimation server (stdlib only).

:class:`ServeClient` wraps ``http.client`` with the server's JSON protocol:
one persistent connection (reconnecting transparently if the server hung
up), matrix encoding via :func:`repro.serve.protocol.encode_matrix`, and
typed helpers for every endpoint. It exists so tests, the serving
benchmark, and the CI smoke job all speak the wire format through one
audited path instead of three hand-rolled ones.

Server-reported errors raise :class:`ServeClientError` carrying the HTTP
status and the server's ``error`` message.
"""

from __future__ import annotations

import http.client
import json
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ReproError
from repro.serve.protocol import encode_matrix


def _delta_payload(delta: Any) -> Dict[str, Any]:
    if isinstance(delta, dict):
        return delta
    from repro.core.incremental import delta_to_payload

    return delta_to_payload(delta)


def _add_estimator(
    body: Dict[str, Any], estimator: Any, tolerance: Optional[float]
) -> None:
    if estimator is not None:
        body["estimator"] = (
            estimator.to_wire() if hasattr(estimator, "to_wire") else estimator
        )
    if tolerance is not None:
        body["tolerance"] = float(tolerance)


class ServeClientError(ReproError):
    """The server answered with an error status.

    ``details`` holds the full decoded error body — estimator-selection
    failures, for instance, carry ``available_estimators`` there.
    """

    def __init__(self, status: int, message: str, details: Optional[Dict] = None):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        self.details = dict(details or {})


class ServeClient:
    """Minimal blocking client for one estimation server."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        self._connection: Optional[http.client.HTTPConnection] = None

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def _connect(self) -> http.client.HTTPConnection:
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._connection

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def request(
        self, method: str, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> Any:
        """One round trip; returns the decoded JSON body (or raw text)."""
        body = json.dumps(payload).encode() if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        for attempt in (0, 1):
            connection = self._connect()
            try:
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
                raw = response.read()
                break
            except (
                http.client.HTTPException,
                ConnectionError,
                BrokenPipeError,
            ):
                # Stale keep-alive connection: reconnect once, then give up.
                self.close()
                if attempt:
                    raise
        content_type = response.getheader("Content-Type", "")
        if content_type.startswith("application/json"):
            decoded: Any = json.loads(raw.decode("utf-8")) if raw else None
        else:
            decoded = raw.decode("utf-8")
        if response.status >= 400:
            message = (
                decoded.get("error", raw.decode("utf-8", "replace"))
                if isinstance(decoded, dict)
                else str(decoded)
            )
            raise ServeClientError(
                response.status, message,
                details=decoded if isinstance(decoded, dict) else None,
            )
        return decoded

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        return self.request("GET", "/healthz")

    def stats(self) -> Dict[str, Any]:
        return self.request("GET", "/stats")

    def metrics_text(self) -> str:
        return self.request("GET", "/metrics")

    def register(self, name: str, matrix: Any) -> Dict[str, Any]:
        """Register a whole matrix (encoded as COO structure) under *name*."""
        return self.request(
            "POST", "/matrices", {"name": name, "matrix": encode_matrix(matrix)}
        )

    def register_partitioned(
        self,
        name: str,
        shards: Sequence[Any],
        axis: int = 0,
        indices: Optional[Sequence[int]] = None,
    ) -> Dict[str, Any]:
        """Register one matrix as row/col partitions, merged server-side."""
        payload: Dict[str, Any] = {
            "name": name,
            "axis": axis,
            "shards": [{"matrix": encode_matrix(shard)} for shard in shards],
        }
        if indices is not None:
            for entry, index in zip(payload["shards"], indices):
                entry["index"] = int(index)
        return self.request("POST", "/matrices", payload)

    def apply_update(self, name: str, delta: Any) -> Dict[str, Any]:
        """Apply one streaming delta to the matrix registered as *name*.

        *delta* is either a :mod:`repro.core.incremental` delta object or
        an already-encoded wire payload dict.
        """
        return self.apply_updates(name, [delta])

    def apply_updates(
        self, name: str, deltas: Sequence[Any]
    ) -> Dict[str, Any]:
        """Apply an ordered batch of deltas in one request."""
        return self.request(
            "POST",
            f"/matrices/{name}/updates",
            {"deltas": [_delta_payload(delta) for delta in deltas]},
        )

    def estimate(
        self,
        expr: Dict[str, Any],
        include_intermediates: bool = False,
        estimator: Any = None,
        tolerance: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Estimate one wire expression.

        *estimator* is a registry name, ``"auto"``, or a spec dict;
        *tolerance* (implies ``"auto"``) caps the routed uncertainty
        width. Routed responses carry a ``"router"`` payload with the
        chosen tier and escalation count.
        """
        body: Dict[str, Any] = {"expr": expr}
        if include_intermediates:
            body["include_intermediates"] = True
        _add_estimator(body, estimator, tolerance)
        return self.request("POST", "/estimate", body)

    def estimate_batch(
        self,
        exprs: Sequence[Dict[str, Any]],
        estimator: Any = None,
        tolerance: Optional[float] = None,
    ) -> List[Dict[str, Any]]:
        body: Dict[str, Any] = {"exprs": list(exprs)}
        _add_estimator(body, estimator, tolerance)
        return self.request("POST", "/estimate", body)["results"]

    def optimize_chain(
        self,
        names: Sequence[str],
        seed: Optional[int] = None,
    ) -> Dict[str, Any]:
        body: Dict[str, Any] = {"chain": list(names)}
        if seed is not None:
            body["seed"] = int(seed)
        return self.request("POST", "/estimate", body)
