"""Multi-tenant estimation serving over the sketch catalog.

The paper's deployment story — sketch once (possibly distributed), consult
many times during optimization — becomes a long-running process here: an
asyncio HTTP/JSON server (stdlib only, no framework) in front of one
:class:`~repro.catalog.service.EstimationService` backed by a
fingerprint-sharded :class:`~repro.catalog.store.SketchStore`
(``num_shards``, default 8 under ``repro serve``).

- :mod:`repro.serve.protocol` — the JSON wire format: matrix payloads
  (COO structure or dense), expression trees with ``{"ref": name}``
  leaves, request/response codecs over :class:`ServiceRequest`;
- :mod:`repro.serve.registry` — :class:`MatrixRegistry`, named matrices
  with cached leaf :class:`~repro.ir.nodes.Expr` objects (so re-sent
  expressions hit the fingerprint memo) and shard-merged registration via
  :mod:`repro.core.distributed`;
- :mod:`repro.serve.server` — :class:`EstimationServer`, the handwritten
  HTTP/1.1 front end: ``POST /matrices``, ``POST /matrices/{name}/updates``
  (streaming deltas, see ``docs/STREAMING.md``), ``POST /estimate``,
  ``GET /stats``, ``GET /metrics`` (Prometheus), ``GET /healthz``;
- :mod:`repro.serve.client` — :class:`ServeClient`, a keep-alive
  ``http.client`` wrapper used by the tests, the benchmark, and the CI
  smoke job.

Launch with ``repro serve --catalog DIR --port 8642`` or embed via
:func:`repro.serve.server.start_server_thread`. See ``docs/SERVING.md``.
"""

from repro.serve.client import ServeClient
from repro.serve.protocol import (
    canonical_expr_key,
    decode_expr,
    decode_matrix,
    decode_update_request,
    encode_chain_solution,
    encode_estimate_result,
    encode_matrix,
)
from repro.serve.registry import MatrixRegistry
from repro.serve.server import EstimationServer, start_server_thread

__all__ = [
    "EstimationServer",
    "MatrixRegistry",
    "ServeClient",
    "canonical_expr_key",
    "decode_expr",
    "decode_matrix",
    "decode_update_request",
    "encode_chain_solution",
    "encode_estimate_result",
    "encode_matrix",
    "start_server_thread",
]
