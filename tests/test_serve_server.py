"""End-to-end tests for the estimation server (repro.serve.server).

Each test boots a real server on a loopback port (port 0 -> ephemeral) and
talks to it over actual HTTP via :class:`ServeClient` — the same transport
the CI smoke job and the serving benchmark use.
"""

import threading

import numpy as np
import pytest

from repro.catalog.service import EstimationService, ServiceRequest
from repro.catalog.store import SketchStore
from repro.matrix.random import random_sparse
from repro.serve import EstimationServer, MatrixRegistry, ServeClient, start_server_thread
from repro.serve.client import ServeClientError


@pytest.fixture()
def server():
    service = EstimationService(store=SketchStore(num_shards=4))
    handle = start_server_thread(EstimationServer(service=service, port=0))
    client = ServeClient(handle.host, handle.port)
    try:
        yield client, handle.server
    finally:
        client.close()
        handle.stop()


def _matrices():
    x = random_sparse(50, 40, 0.1, seed=11)
    w = random_sparse(40, 30, 0.15, seed=12)
    return x, w


MATMUL_XW = {"op": "matmul", "inputs": [{"ref": "X"}, {"ref": "W"}]}


def _described(client, name):
    """The ``GET /stats`` registry entry for *name*."""
    return next(m for m in client.stats()["matrices"] if m["name"] == name)


class TestEndpoints:
    def test_healthz(self, server):
        client, _ = server
        body = client.healthz()
        assert body["status"] == "ok"
        assert body["uptime_seconds"] >= 0

    def test_register_and_estimate(self, server):
        client, _ = server
        x, w = _matrices()
        reply = client.register("X", x)
        assert reply["nnz"] == x.nnz and reply["shape"] == [50, 40]
        client.register("W", w)
        result = client.estimate(MATMUL_XW)
        assert result["cached"] is False
        assert result["nnz"] > 0
        warm = client.estimate(MATMUL_XW)
        assert warm["cached"] is True
        assert warm["nnz"] == result["nnz"]
        assert warm["fingerprint"] == result["fingerprint"]

    def test_estimate_with_intermediates(self, server):
        client, _ = server
        x, w = _matrices()
        client.register("X", x)
        client.register("W", w)
        result = client.estimate(MATMUL_XW, include_intermediates=True)
        assert len(result["intermediates"]) == 3  # two leaves + root

    def test_batch(self, server):
        client, _ = server
        x, w = _matrices()
        client.register("X", x)
        client.register("W", w)
        results = client.estimate_batch([MATMUL_XW, {"ref": "X"}, MATMUL_XW])
        assert len(results) == 3
        assert results[1]["nnz"] == float(x.nnz)
        assert results[0]["nnz"] == results[2]["nnz"]

    def test_chain(self, server):
        client, _ = server
        x, w = _matrices()
        client.register("X", x)
        client.register("W", w)
        reply = client.optimize_chain(["X", "W"], seed=3)
        assert reply["plan"] == [0, 1]
        assert reply["cost"] > 0
        assert reply["names"] == ["X", "W"]

    def test_stats(self, server):
        client, _ = server
        x, _ = _matrices()
        client.register("X", x)
        client.estimate({"ref": "X"})
        stats = client.stats()
        assert [m["name"] for m in stats["matrices"]] == ["X"]
        assert stats["catalog"]["service"]["requests"] >= 1
        assert stats["store_shards"] == 4

    def test_metrics_scrape(self, server):
        client, _ = server
        x, _ = _matrices()
        client.register("X", x)
        client.estimate({"ref": "X"})
        text = client.metrics_text()
        assert "repro_serve_requests_estimate_total" in text
        assert "repro_serve_latency_seconds_estimate_bucket" in text
        assert "repro_serve_requests_matrices_total" in text


class TestShardMergedIngest:
    def test_row_partitioned_registration(self, server):
        client, srv = server
        _, w = _matrices()
        reply = client.register_partitioned("W", [w[:25], w[25:]], axis=0)
        assert reply["merged"] is True and reply["shards"] == 2
        assert reply["shape"] == [40, 30]
        assert reply["nnz"] == w.nnz
        # The reassembled matrix matches the original structurally.
        stored = srv.registry.matrix("W")
        np.testing.assert_array_equal(
            (stored.toarray() != 0), (w.toarray() != 0)
        )

    def test_out_of_order_shards(self, server):
        client, srv = server
        _, w = _matrices()
        reply = client.register_partitioned(
            "W", [w[25:], w[:25]], axis=0, indices=[1, 0]
        )
        assert reply["nnz"] == w.nnz
        stored = srv.registry.matrix("W")
        np.testing.assert_array_equal(
            (stored.toarray() != 0), (w.toarray() != 0)
        )

    def test_col_partitioned_registration(self, server):
        client, _ = server
        _, w = _matrices()
        reply = client.register_partitioned("W", [w[:, :10], w[:, 10:]], axis=1)
        assert reply["shape"] == [40, 30] and reply["nnz"] == w.nnz

    def test_merged_sketch_is_the_served_synopsis(self, server):
        """Estimates answered for a shard-merged matrix come from the
        *merged* sketch — identical to a direct service using
        register_sketched, not to one that re-sketched the full matrix."""
        client, _ = server
        x, w = _matrices()
        client.register("X", x)
        client.register_partitioned("W", [w[:25], w[25:]], axis=0)
        served = client.estimate(MATMUL_XW)

        direct = EstimationService()
        registry = MatrixRegistry(direct)
        registry.register("X", x)
        registry.register_partitioned("W", [w[:25], w[25:]], axis=0)
        expr_direct = direct.submit(ServiceRequest.estimate(
            __import__("repro.serve.protocol", fromlist=["decode_expr"]).decode_expr(
                MATMUL_XW, registry.resolve
            )
        ))
        assert served["nnz"] == expr_direct["nnz"]
        assert served["fingerprint"] == expr_direct["fingerprint"]

    def test_mismatched_shards_rejected(self, server):
        client, _ = server
        _, w = _matrices()
        with pytest.raises(ServeClientError) as excinfo:
            client.register_partitioned("W", [w[:25], w[25:, :10]], axis=0)
        assert excinfo.value.status == 400


class TestBitIdentity:
    def test_server_matches_direct_service(self, server):
        """The acceptance property at test scale: every server answer is
        bit-identical to a direct EstimationService fed the same
        registrations and the same request order."""
        client, _ = server
        x, w = _matrices()
        client.register("X", x)
        client.register_partitioned("W", [w[:20], w[20:]], axis=0)

        direct = EstimationService()
        registry = MatrixRegistry(direct)
        registry.register("X", x)
        registry.register_partitioned("W", [w[:20], w[20:]], axis=0)

        from repro.serve.protocol import decode_expr

        wires = [
            MATMUL_XW,
            {"ref": "X"},
            {"op": "transpose", "inputs": [MATMUL_XW]},
            MATMUL_XW,  # warm replay
        ]
        for wire in wires:
            served = client.estimate(wire)
            expected = direct.submit(
                ServiceRequest.estimate(decode_expr(wire, registry.resolve))
            )
            assert served["nnz"] == expected["nnz"], wire
            assert served["sparsity"] == expected["sparsity"], wire
            assert served["fingerprint"] == expected["fingerprint"], wire
            assert served["cached"] == expected["cached"], wire

        served_chain = client.optimize_chain(["X", "W"], seed=9)
        expected_chain = direct.submit(ServiceRequest.chain(
            [registry.matrix("X"), registry.matrix("W")],
            rng=np.random.default_rng(9),
        ))
        from repro.serve.protocol import encode_chain_solution

        expected_encoded = encode_chain_solution(expected_chain)
        assert served_chain["plan"] == expected_encoded["plan"]
        assert served_chain["cost"] == expected_encoded["cost"]

        # Counter parity: answering warm reads on the event loop counts
        # exactly what the estimation thread would have counted.
        served_catalog = client.stats()["catalog"]
        direct_catalog = direct.stats()
        for section, field in (
            ("service", "requests"), ("service", "hits"),
            ("memo", "hits"), ("memo", "misses"),
        ):
            assert (
                served_catalog[section][field] == direct_catalog[section][field]
            ), (section, field)


class TestInlineMemoHits:
    def test_read_never_overtakes_queued_work(self, server, monkeypatch):
        """A warm read that arrives while an update is still running waits
        for it and re-estimates; only a read arriving to an idle executor
        is answered on the event loop."""
        from repro.core.incremental import BlockUpdate
        from repro.observability.metrics import METRICS
        from repro.serve.protocol import decode_expr

        client, srv = server
        x, w = _matrices()
        client.register("X", x)
        client.register("W", w)
        primed = client.estimate(MATMUL_XW)
        assert client.estimate(MATMUL_XW)["cached"] is True

        entered, release = threading.Event(), threading.Event()
        original = srv.registry.apply_update

        def blocking_update(name, delta):
            entered.set()
            release.wait(10)
            return original(name, delta)

        monkeypatch.setattr(srv.registry, "apply_update", blocking_update)
        delta = BlockUpdate(0, 0, x[:2, :2].toarray() == 0)
        replies = {}

        def post(key, call):
            own = ServeClient(client.host, client.port)
            try:
                replies[key] = call(own)
            finally:
                own.close()

        updater = threading.Thread(
            target=post, args=("update", lambda c: c.apply_update("X", delta))
        )
        updater.start()
        assert entered.wait(10)
        reader = threading.Thread(
            target=post, args=("read", lambda c: c.estimate(MATMUL_XW))
        )
        reader.start()
        reader.join(0.3)
        assert reader.is_alive() and "read" not in replies
        release.set()
        updater.join(10)
        reader.join(10)
        assert not updater.is_alive() and not reader.is_alive()

        direct = EstimationService()
        registry = MatrixRegistry(direct)
        registry.register("X", x)
        registry.register("W", w)

        def direct_estimate():
            return direct.submit(
                ServiceRequest.estimate(decode_expr(MATMUL_XW, registry.resolve))
            )

        direct_estimate()
        direct_estimate()
        assert registry.apply_update("X", delta) == replies["update"]["fingerprint"]
        expected = direct_estimate()
        read = replies["read"]
        assert read["cached"] is False
        assert read["fingerprint"] == expected["fingerprint"] != primed["fingerprint"]
        assert read["nnz"] == expected["nnz"]

        inline = METRICS.cell("serve.estimate.inline")
        before = inline.value
        third = client.estimate(MATMUL_XW)
        assert third["cached"] is True
        assert third["fingerprint"] == read["fingerprint"]
        assert inline.value == before + 1

    def test_concurrent_reads_and_updates_stay_serial(self, server):
        """Readers racing an updater on more threads than cores, with a
        short switch interval: every version of the root is estimated
        exactly once, and every answer for a version agrees with it."""
        import sys

        from repro.core.incremental import BlockUpdate

        from repro.observability.metrics import METRICS

        client, _ = server
        x, w = _matrices()
        client.register("X", x)
        client.register("W", w)
        answers, errors = [], []
        before = client.stats()["catalog"]["service"]
        inline = METRICS.cell("serve.estimate.inline")
        inline_before = inline.value

        def reader():
            own = ServeClient(client.host, client.port)
            try:
                for _ in range(40):
                    answers.append(own.estimate(MATMUL_XW))
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)
            finally:
                own.close()

        def updater():
            own = ServeClient(client.host, client.port)
            rng = np.random.default_rng(5)
            try:
                for _ in range(8):
                    own.apply_update("X", BlockUpdate(1, 2, rng.random((3, 3)) < 0.5))
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)
            finally:
                own.close()

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=reader) for _ in range(4)]
            threads.append(threading.Thread(target=updater))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        by_version = {}
        for answer in answers:
            by_version.setdefault(answer["fingerprint"], []).append(answer)
        for version in by_version.values():
            assert sum(not a["cached"] for a in version) == 1
            assert len({a["nnz"] for a in version}) == 1
        # No counter update was lost between the loop and the executor.
        after = client.stats()["catalog"]["service"]
        hits = sum(a["cached"] for a in answers)
        assert after["requests"] - before["requests"] == len(answers) == 160
        assert after["hits"] - before["hits"] == hits
        assert inline.value - inline_before <= hits

    @pytest.mark.parametrize("selection", [
        {}, {"estimator": "meta_ac"}, {"tolerance": 0.3},
    ], ids=["default", "meta_ac", "routed"])
    def test_only_warm_single_estimates_are_inline(self, server, selection):
        """Only the repeat of a single estimate is answered on the loop,
        for the service's own estimator, a per-request one and a routed
        one alike, and its answer equals the executor's first answer."""
        from repro.observability.metrics import METRICS

        client, _ = server
        x, w = _matrices()
        client.register("X", x)
        client.register("W", w)
        inline = METRICS.cell("serve.estimate.inline")
        before = inline.value
        cold = client.estimate(MATMUL_XW, **selection)
        client.estimate(MATMUL_XW, include_intermediates=True, **selection)
        client.estimate_batch([MATMUL_XW], **selection)
        assert inline.value == before
        warm = client.estimate(MATMUL_XW, **selection)
        assert inline.value == before + 1
        assert warm["cached"] is True and cold["cached"] is False
        assert warm["nnz"] == cold["nnz"]
        assert warm.get("router") == cold.get("router")


class TestErrors:
    def test_unknown_path_404(self, server):
        client, _ = server
        with pytest.raises(ServeClientError) as excinfo:
            client.request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_wrong_method_405(self, server):
        client, _ = server
        with pytest.raises(ServeClientError) as excinfo:
            client.request("POST", "/healthz", {})
        assert excinfo.value.status == 405

    def test_invalid_json_400(self, server):
        client, _ = server
        import http.client

        connection = http.client.HTTPConnection(client.host, client.port)
        connection.request(
            "POST", "/estimate", body=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        assert response.status == 400
        connection.close()

    def test_unknown_ref_400(self, server):
        client, _ = server
        with pytest.raises(ServeClientError) as excinfo:
            client.estimate({"ref": "ghost"})
        assert excinfo.value.status == 400
        assert "ghost" in excinfo.value.message

    def test_shape_mismatch_400(self, server):
        client, _ = server
        x, _ = _matrices()
        client.register("X", x)
        with pytest.raises(ServeClientError) as excinfo:
            client.estimate({"op": "matmul", "inputs": [{"ref": "X"}, {"ref": "X"}]})
        assert excinfo.value.status == 400

    def test_server_survives_errors(self, server):
        """Errors never poison the connection or the server."""
        client, _ = server
        x, _ = _matrices()
        client.register("X", x)
        for _ in range(3):
            with pytest.raises(ServeClientError):
                client.estimate({"ref": "ghost"})
            assert client.estimate({"ref": "X"})["nnz"] == float(x.nnz)


class TestConcurrency:
    def test_many_threads_one_server(self, server):
        """Multi-tenant smoke: concurrent clients with distinct namespaces
        all get consistent answers."""
        client, _ = server
        x, w = _matrices()
        client.register("X", x)
        client.register("W", w)
        baseline = client.estimate(MATMUL_XW)["nnz"]
        errors = []
        barrier = threading.Barrier(6)

        def tenant(worker):
            own = ServeClient(client.host, client.port)
            try:
                barrier.wait()
                for _ in range(10):
                    assert own.estimate(MATMUL_XW)["nnz"] == baseline
                    assert own.estimate({"ref": "X"})["nnz"] == float(x.nnz)
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)
            finally:
                own.close()

        threads = [threading.Thread(target=tenant, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors

    def test_rebind_invalidates_old_estimates(self, server):
        client, _ = server
        x, _ = _matrices()
        client.register("X", x)
        first = client.estimate({"ref": "X"})
        replacement = random_sparse(50, 40, 0.3, seed=99)
        client.register("X", replacement)
        second = client.estimate({"ref": "X"})
        assert second["nnz"] == float(replacement.nnz)
        assert second["fingerprint"] != first["fingerprint"]


class TestStreamingUpdates:
    def test_update_rebinds_name_and_estimates_fresh(self, server):
        from repro.core.incremental import AppendRows

        client, _ = server
        x, w = _matrices()
        client.register("X", x)
        client.register("W", w)
        before = client.estimate(MATMUL_XW)
        assert client.estimate(MATMUL_XW)["cached"] is True

        reply = client.apply_update("X", AppendRows([np.array([0, 3, 7])]))
        assert reply["name"] == "X"
        assert reply["shape"] == [51, 40]
        assert reply["nnz"] == x.nnz + 3
        assert reply["updates"] == 1
        assert reply["fingerprint"] != before["fingerprint"]

        after = client.estimate(MATMUL_XW)
        # The old memoized result was evicted; the new answer covers the
        # appended row and is computed fresh.
        assert after["cached"] is False
        assert after["fingerprint"] != before["fingerprint"]
        assert client.estimate({"ref": "X"})["nnz"] == float(x.nnz + 3)

    def test_update_matches_from_scratch_registration(self, server):
        """Server answers over a patched name are bit-identical to
        registering the mutated matrix directly."""
        from repro.core.incremental import (
            AppendRows,
            BlockUpdate,
            DeleteRows,
            IncrementalSketch,
            apply_update,
        )

        client, _ = server
        x, w = _matrices()
        client.register("X", x)
        client.register("W", w)

        deltas = [
            AppendRows([np.array([1, 4]), np.array([0, 2, 39])]),
            DeleteRows([0, 5]),
            BlockUpdate(2, 3, (np.arange(20).reshape(4, 5) % 3 == 0)),
        ]
        reply = client.apply_updates("X", deltas)
        assert reply["updates"] == 3

        local = IncrementalSketch(x)
        for delta in deltas:
            apply_update(local, delta)
        mutated = local.to_matrix()
        assert reply["shape"] == [mutated.shape[0], mutated.shape[1]]
        assert reply["nnz"] == mutated.nnz
        client.register("Y", mutated)

        got = client.estimate(MATMUL_XW)["nnz"]
        want = client.estimate(
            {"op": "matmul", "inputs": [{"ref": "Y"}, {"ref": "W"}]}
        )["nnz"]
        assert got == want

    def test_untouched_name_stays_cached_across_update(self, server):
        from repro.core.incremental import DeleteCols

        client, _ = server
        x, w = _matrices()
        client.register("X", x)
        client.register("W", w)
        w_expr = {
            "op": "ewise_mult", "inputs": [{"ref": "W"}, {"ref": "W"}],
        }
        assert client.estimate(w_expr)["cached"] is False
        client.apply_update("X", DeleteCols([0]))
        # W was untouched: its memoized root estimate survived the delta
        # (partial invalidation), even though the parse cache flushed.
        assert client.estimate(w_expr)["cached"] is True

    def test_update_unknown_name_400(self, server):
        from repro.core.incremental import DeleteRows

        client, _ = server
        with pytest.raises(ServeClientError) as excinfo:
            client.apply_update("ghost", DeleteRows([0]))
        assert excinfo.value.status == 400
        assert "ghost" in excinfo.value.message

    def test_update_out_of_range_delta_400(self, server):
        from repro.core.incremental import DeleteRows

        client, _ = server
        x, _ = _matrices()
        client.register("X", x)
        with pytest.raises(ServeClientError) as excinfo:
            client.apply_update("X", DeleteRows([10_000]))
        assert excinfo.value.status == 400

    def test_rejected_batch_applies_nothing(self, server):
        """A batch whose second delta does not fit is refused whole: the
        name, its nnz and a memoized estimate over it are unchanged, so
        the valid delta alone then applies exactly once."""
        from repro.core.incremental import BlockUpdate

        client, _ = server
        x = random_sparse(30, 20, 0.2, seed=21)
        w = random_sparse(20, 15, 0.2, seed=22)
        client.register("X", x)
        client.register("W", w)
        before = _described(client, "X")
        primed = client.estimate(MATMUL_XW)

        valid = BlockUpdate(0, 0, x[:2, :2].toarray() == 0)
        past_edge = BlockUpdate(29, 19, np.ones((2, 2)))
        with pytest.raises(ServeClientError) as excinfo:
            client.apply_updates("X", [valid, past_edge])
        assert excinfo.value.status == 400
        assert _described(client, "X") == before
        assert "delta 1" in excinfo.value.message
        warm = client.estimate(MATMUL_XW)
        assert warm["cached"] is True
        assert warm["nnz"] == primed["nnz"]
        assert warm["fingerprint"] == primed["fingerprint"]

        reply = client.apply_updates("X", [valid])
        direct = MatrixRegistry(EstimationService())
        direct.register("X", x)
        assert reply["fingerprint"] == direct.apply_update("X", valid)
        assert reply["nnz"] == direct.matrix("X").nnz != before["nnz"]
        assert reply["shape"] == [30, 20]

    def test_update_malformed_payload_400(self, server):
        client, _ = server
        x, _ = _matrices()
        client.register("X", x)
        with pytest.raises(ServeClientError) as excinfo:
            client.request("POST", "/matrices/X/updates", {"delta": {"kind": "bogus"}})
        assert excinfo.value.status == 400

    def test_update_wrong_method_405(self, server):
        client, _ = server
        with pytest.raises(ServeClientError) as excinfo:
            client.request("GET", "/matrices/X/updates")
        assert excinfo.value.status == 405

    def test_reregister_resets_streaming_state(self, server):
        from repro.core.incremental import AppendRows

        client, _ = server
        x, _ = _matrices()
        client.register("X", x)
        client.apply_update("X", AppendRows([np.array([0])]))
        # Re-registering wholesale discards the incremental tracker; the
        # next delta starts from the re-registered structure.
        client.register("X", x)
        reply = client.apply_update("X", AppendRows([np.array([1])]))
        assert reply["shape"] == [51, 40]
        assert reply["nnz"] == x.nnz + 1
