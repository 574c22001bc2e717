"""The serve workloads: one closed-loop client over one keep-alive HTTP
connection against a ``repro serve`` subprocess.

``serve_cold`` sends a distinct expression per request, so every root
misses the memo. ``serve_rw`` re-sends 128 primed expressions (memo hits)
and interleaves one small block update every :data:`READS_PER_WRITE`
reads, which invalidates the results that depend on the updated leaf.

After the timed window the run replays the setup requests and a prefix of
the timed ones, in order, against an in-process ``EstimationService`` and
``MatrixRegistry`` built as ``repro serve`` builds them; every served
answer must match the replay bit for bit.
"""

from __future__ import annotations

import http.client
import json
import queue
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import exprgen
from common import BENCH_DIR, OUT_DIR, peak_rss_mb

#: Expressions sent before timing starts (serve_cold).
WARMUP = 20
#: Fixed read set (serve_rw).
READ_SET = 128
#: One block update after this many reads (serve_rw). An update flushes the
#: parse cache, so 1 - READ_SET / READS_PER_WRITE = 3/4 of reads hit it and
#: the read median sits well inside the parse-hit mode.
READS_PER_WRITE = 512
#: serve_rw updates rotate over these leaves. Each appears in about two
#: fifths of the read set, so an update turns about
#: READ_SET * 0.4 / READS_PER_WRITE = 1 read in 10 into a miss.
WRITE_TARGETS = ("U2", "Q0")
#: Timed requests replayed in-process for the bit-identity check.
REPLAY_PREFIX = {"serve_cold": 150, "serve_rw": 1100}


class ServerProcess:
    """A ``repro serve`` subprocess started through the launcher."""

    def __init__(self, trace_out: Optional[Path] = None, timeout: float = 120.0):
        command = [sys.executable, str(BENCH_DIR / "serve_launcher.py")]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        self.process = subprocess.Popen(
            command, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        self.lines: "queue.Queue[str]" = queue.Queue()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        self.timeout = timeout
        self.host: Optional[str] = None
        self.port: Optional[int] = None

    def _drain(self) -> None:
        for line in self.process.stderr:
            self.lines.put(line)

    def wait_for(self, needle: str) -> str:
        deadline = time.monotonic() + self.timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.process.poll() is not None and self.lines.empty():
                raise RuntimeError(f"server never printed {needle!r}")
            try:
                line = self.lines.get(timeout=min(remaining, 0.5))
            except queue.Empty:
                continue
            if needle in line:
                return line

    def wait_listening(self) -> None:
        line = self.wait_for("listening on http://")
        address = line.strip().rsplit("http://", 1)[1]
        host, port = address.rsplit(":", 1)
        self.host, self.port = host, int(port)

    def start_tracing(self) -> None:
        self.process.send_signal(signal.SIGUSR1)
        self.wait_for("e2ebench: tracing on")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        self._reader.join(timeout=10)


class Connection:
    """One keep-alive connection.

    Bodies are pre-encoded bytes, so a timed round trip holds no client-side
    JSON encoding (``ServeClient`` encodes inside its request call).
    """

    def __init__(self, host: str, port: int):
        self.http = http.client.HTTPConnection(host, port, timeout=60)

    def post(self, path: str, body: bytes) -> Tuple[int, bytes]:
        self.http.request(
            "POST", path, body=body, headers={"Content-Type": "application/json"}
        )
        response = self.http.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self.http.close()


@dataclass
class Logged:
    """One request as sent, with the decoded answer for the replay."""

    path: str
    body: bytes
    answer: Optional[dict]


@dataclass
class ServeState:
    workload: str
    seed: int
    server: ServerProcess
    conn: Connection
    log: List[Logged] = field(default_factory=list)
    generator: Optional[exprgen.ExpressionGenerator] = None
    reads: List[bytes] = field(default_factory=list)
    write_rng: Optional[np.random.Generator] = None
    writes: int = 0
    read_misses: int = 0
    reads_done: int = 0
    setup_requests: int = 0
    trace_out: Optional[Path] = None

    def send(self, path: str, body: bytes) -> Tuple[int, Optional[dict], float, float]:
        start = time.perf_counter()
        status, raw = self.conn.post(path, body)
        end = time.perf_counter()
        answer = json.loads(raw) if status == 200 else None
        self.log.append(Logged(path, body, answer))
        return status, answer, start, end

    def must(self, path: str, body: bytes) -> dict:
        status, answer, _, _ = self.send(path, body)
        if status != 200:
            raise RuntimeError(f"setup request {path} answered {status}")
        return answer


def _estimate_ok(answer: Optional[dict]) -> bool:
    side = exprgen.SIDE
    return answer is not None and 0.0 <= answer["nnz"] <= side * side


class ServeWorkload:
    """``serve_cold`` or ``serve_rw``; see the module docstring."""

    setups = 3
    estimate_kinds = ("estimate", "read")
    #: Round trips are timed by the client; server spans join them later.
    records_operations = False
    modules = (
        "repro.matrix.random", "repro.serve.protocol", "repro.serve.registry",
        "repro.catalog.service", "repro.catalog.sharded",
    )

    def __init__(self, name: str):
        self.name = name
        self.tail_q = 99.0
        self.rss_ops = 1500 if name == "serve_cold" else 3000
        # serve_rw's round is one update with the reads before it.
        self.round_ops = 1 if name == "serve_cold" else READS_PER_WRITE + 1

    def prepare(self, seed: int) -> None:
        pass

    def setup(self, seed: int, traced: bool) -> ServeState:
        trace_out = OUT_DIR / f"{self.name}-{seed}-server-spans.json" if traced else None
        server = ServerProcess(trace_out)
        try:
            leaves = exprgen.make_leaves(seed)
            bodies = [exprgen.register_body(name, m) for name, m in leaves.items()]
            server.wait_listening()
            state = ServeState(
                self.name, seed, server, Connection(server.host, server.port),
                trace_out=trace_out,
            )
            for body in bodies:
                state.must("/matrices", body)
            if self.name == "serve_cold":
                self._setup_cold(state)
            else:
                self._setup_rw(state)
        except BaseException:
            server.stop()
            raise
        state.setup_requests = len(state.log)
        return state

    def _setup_cold(self, state: ServeState) -> None:
        names = [spec[0] for spec in exprgen.LEAF_SPECS]
        state.generator = exprgen.ExpressionGenerator(names, seed=state.seed)
        for expr in state.generator.take(WARMUP):
            state.must("/estimate", json.dumps({"expr": expr}).encode())

    def _setup_rw(self, state: ServeState) -> None:
        names = [spec[0] for spec in exprgen.LEAF_SPECS]
        generator = exprgen.ExpressionGenerator(names, seed=state.seed)
        state.reads = [
            json.dumps({"expr": expr}).encode() for expr in generator.take(READ_SET)
        ]
        state.write_rng = np.random.default_rng(state.seed + 7919)
        for body in state.reads:
            state.must("/estimate", body)
        # The first update of a name builds its incremental sketch; pay that
        # here, then re-prime so every timed read starts as a memo hit.
        for target in WRITE_TARGETS:
            state.must(*self._write(state, target))
        for body in state.reads:
            state.must("/estimate", body)

    def _write(self, state: ServeState, target: str) -> Tuple[str, bytes]:
        delta = exprgen.block_update(state.write_rng)
        return f"/matrices/{target}/updates", json.dumps({"deltas": [delta]}).encode()

    def operation(self, state: ServeState, index: int):
        """One request: ``(kind, ok, start, end)``."""
        if self.name == "serve_cold":
            body = json.dumps({"expr": state.generator.next()}).encode()
            status, answer, start, end = state.send("/estimate", body)
            return "estimate", status == 200 and _estimate_ok(answer), start, end
        cycle = READS_PER_WRITE + 1
        if index % cycle == READS_PER_WRITE:
            target = WRITE_TARGETS[state.writes % len(WRITE_TARGETS)]
            state.writes += 1
            status, answer, start, end = state.send(*self._write(state, target))
            ok = (
                status == 200 and answer["updates"] == 1
                and answer["shape"] == [exprgen.SIDE, exprgen.SIDE]
            )
            return "write", ok, start, end
        body = state.reads[state.reads_done % READ_SET]
        state.reads_done += 1
        status, answer, start, end = state.send("/estimate", body)
        ok = status == 200 and _estimate_ok(answer)
        if ok and not answer["cached"]:
            state.read_misses += 1
        return "read", ok, start, end

    def start_tracing(self, state: ServeState, recorder):
        """Tracing happens in the server; its spans come back at teardown."""
        state.server.start_tracing()
        return lambda: None

    def peak_rss_mb(self, state: ServeState) -> float:
        return peak_rss_mb(state.server.process.pid)

    def teardown(self, state: ServeState) -> List[list]:
        """Stop the server; returns its spans when it was traced."""
        state.conn.close()
        state.server.stop()
        if state.trace_out is None or not state.trace_out.exists():
            return []
        spans = json.loads(state.trace_out.read_text())
        state.trace_out.unlink()
        return spans

    def extra_metrics(self, state: ServeState) -> Dict[str, Tuple[float, str]]:
        if self.name != "serve_rw":
            return {}
        return {"serve.read_miss_ratio": (
            state.read_misses / state.reads_done if state.reads_done else 0.0, "ratio"
        )}

    def verify(self, state: ServeState) -> List[str]:
        """Replay the setup plus a prefix of the timed requests in-process."""
        count = state.setup_requests + REPLAY_PREFIX[self.name]
        return replay(state.log[:count])


def replay(log: List[Logged]) -> List[str]:
    """Failures where an in-process replay differs from the served answer."""
    from repro.catalog.service import EstimationService, ServiceRequest
    from repro.catalog.sharded import ShardedSketchStore
    from repro.catalog.store import DEFAULT_BUDGET_BYTES
    from repro.serve.protocol import (
        decode_estimate_request,
        decode_expr,
        decode_matrix,
        decode_update_request,
        encode_estimate_result,
    )
    from repro.serve.registry import MatrixRegistry

    # Mirrors `repro serve` defaults: MNC, 8 shards, default budget, no TTL.
    service = EstimationService(
        "mnc",
        store=ShardedSketchStore(num_shards=8, budget_bytes=DEFAULT_BUDGET_BYTES),
    )
    registry = MatrixRegistry(service)
    failures: List[str] = []
    for position, entry in enumerate(log):
        body = json.loads(entry.body)
        if entry.path == "/matrices":
            fingerprint = registry.register(body["name"], decode_matrix(body["matrix"]))
            expected = {"fingerprint": fingerprint}
        elif entry.path == "/estimate":
            request = decode_estimate_request(body)
            expr = decode_expr(request["expr"], registry.resolve)
            result = service.submit(ServiceRequest.estimate(
                expr, estimator=request["estimator_spec"]
            ))
            encoded = encode_estimate_result(result)
            expected = {key: encoded[key] for key in ("nnz", "fingerprint", "cached")}
        else:
            name = entry.path.split("/")[2]
            for delta in decode_update_request(body):
                fingerprint = registry.apply_update(name, delta)
            expected = {"fingerprint": fingerprint, "nnz": int(registry.matrix(name).nnz)}
        served = entry.answer or {}
        mismatched = [key for key, value in expected.items() if served.get(key) != value]
        if mismatched:
            failures.append(
                f"replay #{position} {entry.path}: {mismatched} differ "
                f"(served {[served.get(k) for k in mismatched]}, "
                f"replayed {[expected[k] for k in mismatched]})"
            )
    return failures
