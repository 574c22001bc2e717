"""Asyncio HTTP/1.1 estimation server (stdlib only, no framework).

One process serves many tenants' estimation traffic over a shared catalog:

- the **event loop** owns connections: a handwritten, keep-alive HTTP/1.1
  reader/writer (request line, headers, ``Content-Length`` body — the
  subset a JSON API needs, implemented in ~60 lines rather than imported);
- all estimation work runs on a dedicated **single-thread executor**, so
  the loop never blocks and — more importantly — cold estimates issue
  sequentially in arrival order. That is the determinism contract: the MNC
  estimator consumes instance-local randomness per estimate, so a serial
  issue order makes server answers bit-identical to calling
  :meth:`EstimationService.submit` directly in the same order (the serving
  benchmark asserts exactly this); parallelism inside one batch still fans
  out over :mod:`repro.parallel` worker processes. The one exception is a
  single estimate whose root is already memoized, arriving while the
  executor has nothing queued or running: the loop answers it itself,
  which skips the thread hop and gives the same answer (a memo hit draws
  no randomness, and no earlier request is left to change the memo);
- a bounded **expression parse cache** keyed on canonical wire JSON hands
  repeated queries the same :class:`Expr` object, so the warm path runs
  entirely on memo hits (microseconds per estimate).

Endpoints: ``POST /matrices`` (whole or row/col-partitioned, shards merged
on ingest), ``POST /matrices/{name}/updates`` (streaming deltas patched
into the name's incremental sketch, fingerprint chained in ``O(|delta|)``),
``POST /estimate`` (single / batch / chain), ``GET /stats``,
``GET /metrics`` (Prometheus text), ``GET /healthz``. Per-endpoint request
counters and latency histograms land in the global metrics registry as
``serve.requests.<route>`` / ``serve.latency_seconds.<route>``.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.catalog.service import EstimationService, ServiceRequest
from repro.core.incremental import next_shape
from repro.errors import EstimatorError, ProtocolError, ReproError, ShapeError
from repro.estimators.base import available_estimators
from repro.ir.nodes import Expr
from repro.observability.export import prometheus_exposition
from repro.observability.metrics import (
    METRICS,
    metric_inc,
    metric_observe,
    metrics_snapshot,
)
from repro.serve.protocol import (
    canonical_expr_key,
    decode_estimate_request,
    decode_expr,
    decode_matrix,
    decode_register_request,
    decode_update_request,
    encode_chain_solution,
    encode_estimate_result,
)
from repro.serve.registry import MatrixRegistry

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8642
#: Upper bound on request bodies; larger payloads get a 413.
MAX_BODY_BYTES = 64 * 1024 * 1024
#: Parsed-expression cache entries (wire JSON -> Expr).
PARSE_CACHE_ENTRIES = 4096

#: Estimates answered on the event loop (memo hits with nothing in flight).
_INLINE = METRICS.cell("serve.estimate.inline")

_JSON = "application/json"
_TEXT = "text/plain; charset=utf-8"
_STATUS_LINES = {
    200: "200 OK",
    400: "400 Bad Request",
    404: "404 Not Found",
    405: "405 Method Not Allowed",
    413: "413 Payload Too Large",
    500: "500 Internal Server Error",
}


class _HttpError(Exception):
    """Internal signal carrying an HTTP status + message to the writer."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


class EstimationServer:
    """The serving front end around one :class:`EstimationService`.

    Args:
        service: the backing service (bring your own store/memo/pool);
            a default MNC service over a fresh in-memory store if omitted.
        host/port: bind address; port 0 picks a free port (see
            :attr:`port` after :meth:`start`).
        max_body_bytes: request-body cap (413 beyond it).
    """

    def __init__(
        self,
        service: Optional[EstimationService] = None,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        max_body_bytes: int = MAX_BODY_BYTES,
    ):
        self.service = service if service is not None else EstimationService()
        self.registry = MatrixRegistry(self.service)
        self.host = host
        self.port = port
        self.max_body_bytes = int(max_body_bytes)
        self._server: Optional[asyncio.AbstractServer] = None
        # Single thread == sequential estimation == deterministic rng
        # consumption (see module docstring). Do not widen casually.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-estimate"
        )
        #: Calls handed to the executor and not yet resumed on the loop.
        #: Only the loop thread reads or writes it, so it needs no lock.
        self._in_flight = 0
        self._parse_lock = threading.Lock()
        self._parse_cache: "OrderedDict[str, Expr]" = OrderedDict()
        self._started = time.time()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections (resolves :attr:`port`)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self, announce=None) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        if announce is not None:
            announce(self.host, self.port)
        async with self._server:
            await self._server.serve_forever()

    def run(self, announce=None) -> None:
        """Blocking entry point (the CLI's).

        *announce*, if given, is called with ``(host, port)`` once the
        socket is bound — after port 0 has resolved to a real port.
        """
        try:
            asyncio.run(self.serve_forever(announce))
        except KeyboardInterrupt:  # pragma: no cover - interactive exit
            pass
        finally:
            self.close()

    def close(self) -> None:
        self._executor.shutdown(wait=False, cancel_futures=True)
        if self.service.pool is not None:
            self.service.pool.close()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _HttpError as exc:
                    # Unparseable request: answer once, then hang up (the
                    # stream position is unknown, so keep-alive is unsafe).
                    writer.write(_render_response(
                        exc.status, _json_bytes({"error": exc.message}), _JSON, False
                    ))
                    await writer.drain()
                    break
                if request is None:
                    break
                method, path, headers, body = request
                keep_alive = headers.get("connection", "keep-alive").lower() != "close"
                status, payload, content_type = await self._dispatch(method, path, body)
                writer.write(_render_response(status, payload, content_type, keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
            asyncio.LimitOverrunError,
        ):
            pass  # client went away mid-request; nothing to answer
        except asyncio.CancelledError:
            pass  # server shutting down with this connection idle/open
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (
                ConnectionResetError,
                BrokenPipeError,
                # Cancellation can land while awaiting the close handshake
                # (shutdown cancels handler tasks); the transport is already
                # closed, so swallowing here is safe.
                asyncio.CancelledError,
            ):  # pragma: no cover - timing-dependent
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        """Parse one HTTP/1.1 request; ``None`` on clean connection close."""
        request_line = await reader.readline()
        if not request_line:
            return None
        parts = request_line.decode("latin-1").strip().split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _HttpError(400, "malformed request line")
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            raise _HttpError(400, "malformed Content-Length") from None
        if length > self.max_body_bytes:
            raise _HttpError(413, f"request body exceeds {self.max_body_bytes} bytes")
        body = await reader.readexactly(length) if length else b""
        path = target.split("?", 1)[0]
        return method, path, headers, body

    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, bytes, str]:
        route = _route_name(method, path)
        started = time.perf_counter()
        try:
            status, payload, content_type = await self._route(method, path, body)
        except _HttpError as exc:
            status = exc.status
            payload = _json_bytes({"error": exc.message})
            content_type = _JSON
        except ProtocolError as exc:
            status, payload, content_type = 400, _json_bytes({"error": str(exc)}), _JSON
        except EstimatorError as exc:
            # Estimator selection failures get a structured body: the
            # offending name/options plus the authoritative estimator list,
            # so wire clients can self-correct without a docs round-trip.
            detail: Dict[str, Any] = {"error": str(exc)}
            detail.update(exc.details)
            detail.setdefault("available_estimators", available_estimators())
            status, payload, content_type = 400, _json_bytes(detail), _JSON
        except ReproError as exc:
            status, payload, content_type = 400, _json_bytes({"error": str(exc)}), _JSON
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            status = 500
            payload = _json_bytes({"error": f"{type(exc).__name__}: {exc}"})
            content_type = _JSON
        elapsed = time.perf_counter() - started
        metric_inc(f"serve.requests.{route}")
        metric_observe(f"serve.latency_seconds.{route}", elapsed)
        if status >= 400:
            metric_inc(f"serve.errors.{status}")
        return status, payload, content_type

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, bytes, str]:
        if path == "/healthz":
            if method != "GET":
                raise _HttpError(405, "use GET /healthz")
            return 200, _json_bytes({"status": "ok", "uptime_seconds": time.time() - self._started}), _JSON
        if path == "/metrics":
            if method != "GET":
                raise _HttpError(405, "use GET /metrics")
            return 200, prometheus_exposition(metrics_snapshot()).encode(), _TEXT
        if path == "/stats":
            if method != "GET":
                raise _HttpError(405, "use GET /stats")
            return 200, _json_bytes(self._stats_payload()), _JSON
        if path == "/matrices":
            if method != "POST":
                raise _HttpError(405, "use POST /matrices")
            payload = await self._in_executor(self._handle_register, _parse_json(body))
            return 200, _json_bytes(payload), _JSON
        if path == "/estimate":
            if method != "POST":
                raise _HttpError(405, "use POST /estimate")
            request = _parse_json(body)
            if self._in_flight:
                # Queued behind earlier work, which may change what the
                # request decodes to: decode on the estimation thread.
                payload = await self._in_executor(self._handle_estimate, request)
            else:
                request = self._decode_estimate(request)
                if self._is_memo_hit(request):
                    _INLINE.value += 1
                    payload = self._answer_estimate(request)
                else:
                    payload = await self._in_executor(self._answer_estimate, request)
            return 200, _json_bytes(payload), _JSON
        name = _update_target(path)
        if name is not None:
            if method != "POST":
                raise _HttpError(405, f"use POST /matrices/{name}/updates")
            payload = await self._in_executor(
                self._handle_update, name, _parse_json(body)
            )
            return 200, _json_bytes(payload), _JSON
        raise _HttpError(404, f"unknown path {path!r}")

    async def _in_executor(self, fn, *args) -> Any:
        self._in_flight += 1
        try:
            return await asyncio.get_running_loop().run_in_executor(
                self._executor, fn, *args
            )
        finally:
            self._in_flight -= 1

    def _is_memo_hit(self, request: Dict[str, Any]) -> bool:
        """Whether a decoded estimate request is a single memoized root.

        Only then may the loop answer it itself: with nothing in flight no
        earlier request can change the memo, the parse cache or the
        registry, and a memo hit consumes no estimator randomness, so the
        answer is the one the estimation thread would give in arrival
        order (docs/SERVING.md, "The determinism contract").
        """
        return (
            request["kind"] == "estimate"
            and not request["include_intermediates"]
            and self.service.is_memoized(request["expr"], request["estimator_spec"])
        )

    # ------------------------------------------------------------------
    # Handlers (run on the estimation thread, or on the loop when it is
    # idle: see _route)
    # ------------------------------------------------------------------

    def _handle_register(self, body: Dict[str, Any]) -> Dict[str, Any]:
        request = decode_register_request(body)
        name = request["name"]
        # Cached parses hold leaf Expr objects; a (re)bind would leave them
        # pointing at the name's old matrix. Registration is rare relative
        # to estimation, so flushing the whole cache is the simple safe move.
        with self._parse_lock:
            self._parse_cache.clear()
        if "matrix" in request:
            matrix = decode_matrix(request["matrix"])
            fingerprint = self.registry.register(name, matrix)
            merged = False
            shard_count = 0
        else:
            shards = [decode_matrix(shard) for shard in request["shards"]]
            fingerprint = self.registry.register_partitioned(
                name, shards, axis=request["axis"], indices=request["indices"]
            )
            matrix = self.registry.matrix(name)
            merged = True
            shard_count = len(shards)
        return {
            "name": name,
            "fingerprint": fingerprint,
            "shape": [int(d) for d in matrix.shape],
            "nnz": int(matrix.nnz),
            "merged": merged,
            "shards": shard_count,
        }

    def _handle_estimate(self, body: Dict[str, Any]) -> Dict[str, Any]:
        return self._answer_estimate(self._decode_estimate(body))

    def _decode_estimate(self, body: Dict[str, Any]) -> Dict[str, Any]:
        """Decode a ``POST /estimate`` body, replacing its wire expressions
        with parsed :class:`Expr` objects from the parse cache."""
        request = decode_estimate_request(body)
        if request["kind"] == "estimate":
            request["expr"] = self._parse_expr(request["expr"])
        elif request["kind"] == "estimate_many":
            request["exprs"] = [self._parse_expr(wire) for wire in request["exprs"]]
        return request

    def _answer_estimate(self, request: Dict[str, Any]) -> Dict[str, Any]:
        if request["kind"] == "estimate":
            result = self.service.submit(
                ServiceRequest.estimate(
                    request["expr"],
                    include_intermediates=request["include_intermediates"],
                    estimator=request["estimator_spec"],
                )
            )
            return encode_estimate_result(result)
        if request["kind"] == "estimate_many":
            results = self.service.submit(
                ServiceRequest.batch(
                    request["exprs"],
                    workers=request["workers"],
                    estimator=request["estimator_spec"],
                )
            )
            return {"results": [encode_estimate_result(result) for result in results]}
        matrices = [self.registry.matrix(name) for name in request["chain"]]
        rng = (
            np.random.default_rng(request["seed"])
            if request["seed"] is not None
            else None
        )
        solution = self.service.submit(
            ServiceRequest.chain(matrices, rng=rng, workers=request["workers"])
        )
        payload = encode_chain_solution(solution)
        payload["names"] = list(request["chain"])
        return payload

    def _handle_update(self, name: str, body: Dict[str, Any]) -> Dict[str, Any]:
        deltas = decode_update_request(body)
        # Check the whole batch before applying any of it: a rejected batch
        # must leave the name untouched, or a client's retry would apply
        # its leading deltas twice.
        shape = self.registry.matrix(name).shape
        for position, delta in enumerate(deltas):
            try:
                shape = next_shape(shape, delta)
            except ShapeError as exc:
                raise ProtocolError(f"delta {position}: {exc}") from None
        # Same reasoning as registration: cached parses hold the name's old
        # leaf Expr, which after a delta points at the pre-update structure.
        with self._parse_lock:
            self._parse_cache.clear()
        fingerprint = self.registry.fingerprint(name)
        for delta in deltas:
            fingerprint = self.registry.apply_update(name, delta)
        matrix = self.registry.matrix(name)
        return {
            "name": name,
            "fingerprint": fingerprint,
            "shape": [int(d) for d in matrix.shape],
            "nnz": int(matrix.nnz),
            "updates": len(deltas),
        }

    def _parse_expr(self, wire: Any) -> Expr:
        key = canonical_expr_key(wire)
        with self._parse_lock:
            cached = self._parse_cache.get(key)
            if cached is not None:
                self._parse_cache.move_to_end(key)
                metric_inc("serve.parse_cache.hit")
                return cached
        expr = decode_expr(wire, self.registry.resolve)
        with self._parse_lock:
            self._parse_cache[key] = expr
            self._parse_cache.move_to_end(key)
            while len(self._parse_cache) > PARSE_CACHE_ENTRIES:
                self._parse_cache.popitem(last=False)
        metric_inc("serve.parse_cache.miss")
        return expr

    def _stats_payload(self) -> Dict[str, Any]:
        payload = {
            "uptime_seconds": time.time() - self._started,
            "matrices": self.registry.describe(),
            "catalog": self.service.stats(),
            "parse_cache_entries": len(self._parse_cache),
        }
        store = self.service.store
        if hasattr(store, "num_shards"):
            payload["store_shards"] = store.num_shards
            payload["ttl_evictions"] = getattr(store, "ttl_evictions", 0)
        return payload


# ----------------------------------------------------------------------
# Wire helpers
# ----------------------------------------------------------------------

def _route_name(method: str, path: str) -> str:
    known = {"/matrices", "/estimate", "/stats", "/metrics", "/healthz"}
    if path in known:
        return path.lstrip("/")
    if _update_target(path) is not None:
        # One label for every name, so per-route metrics stay bounded.
        return "matrix_updates"
    return "unknown"


def _update_target(path: str) -> Optional[str]:
    """The matrix name in a ``/matrices/{name}/updates`` path, else None."""
    prefix, suffix = "/matrices/", "/updates"
    if not (path.startswith(prefix) and path.endswith(suffix)):
        return None
    name = path[len(prefix): -len(suffix)]
    if not name or "/" in name:
        return None
    return name


def _parse_json(body: bytes) -> Dict[str, Any]:
    try:
        parsed = json.loads(body.decode("utf-8")) if body else {}
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _HttpError(400, f"invalid JSON body: {exc}") from None
    if not isinstance(parsed, dict):
        raise _HttpError(400, "request body must be a JSON object")
    return parsed


def _json_bytes(payload: Any) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def _render_response(
    status: int, payload: bytes, content_type: str, keep_alive: bool
) -> bytes:
    head = (
        f"HTTP/1.1 {_STATUS_LINES.get(status, status)}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + payload


# ----------------------------------------------------------------------
# Embedded server (tests, benchmark, smoke jobs)
# ----------------------------------------------------------------------

class ServerHandle:
    """A running server on a background thread; ``stop()`` to shut down."""

    def __init__(self, server: EstimationServer, thread: threading.Thread,
                 loop: asyncio.AbstractEventLoop, task: "asyncio.Task[Any]"):
        self.server = server
        self._thread = thread
        self._loop = loop
        self._task = task

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def stop(self, timeout: float = 10.0) -> None:
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._task.cancel)
            self._thread.join(timeout)
        self.server.close()

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_server_thread(
    server: Optional[EstimationServer] = None,
    host: str = DEFAULT_HOST,
    port: int = 0,
    timeout: float = 10.0,
) -> ServerHandle:
    """Run an :class:`EstimationServer` on a daemon thread; returns once
    the port is bound (``handle.port`` is the real port even for 0)."""
    if server is None:
        server = EstimationServer(host=host, port=port)
    started = threading.Event()
    holder: Dict[str, Any] = {}

    def main() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        holder["loop"] = loop

        async def body() -> None:
            await server.start()
            started.set()
            assert server._server is not None
            async with server._server:
                await server._server.serve_forever()

        task = loop.create_task(body())
        holder["task"] = task
        try:
            loop.run_until_complete(task)
        except asyncio.CancelledError:
            pass
        finally:
            # Give cancelled connection handlers a chance to unwind.
            pending = asyncio.all_tasks(loop)
            for item in pending:
                item.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.close()

    thread = threading.Thread(target=main, daemon=True, name="repro-serve")
    thread.start()
    if not started.wait(timeout):
        raise RuntimeError(f"server failed to bind {host}:{port} within {timeout}s")
    return ServerHandle(server, thread, holder["loop"], holder["task"])
