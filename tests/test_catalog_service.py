"""Tests for the memoized estimation service (repro.catalog.service)."""

import numpy as np
import pytest

import repro.sparsest.runner as runner_module
from repro.catalog import EstimationService, ServiceRequest, SketchStore
from repro.catalog.fingerprint import fingerprint_matrix
from repro.errors import SketchError
from repro.estimators import EstimatorSpec
from repro.ir.interpreter import evaluate
from repro.ir.nodes import leaf, matmul, transpose
from repro.matrix.random import random_sparse
from repro.sparsest.runner import clear_truth_cache, true_nnz_of


@pytest.fixture
def matrices():
    a = random_sparse(40, 30, 0.15, seed=1)
    b = random_sparse(30, 35, 0.15, seed=2)
    return a, b


def build_expr(a, b):
    return matmul(leaf(a), leaf(b))


class TestRegistration:
    def test_register_returns_fingerprint_and_caches_sketch(self, matrices):
        a, _ = matrices
        service = EstimationService()
        fingerprint = service.register(a, name="A")
        assert fingerprint == fingerprint_matrix(a)
        assert service.resolve("A") == fingerprint
        assert service.store.get(fingerprint) is not None

    def test_resolve_unknown_name(self):
        with pytest.raises(SketchError):
            EstimationService().resolve("nope")

    def test_sketch_for_builds_once(self, matrices):
        a, _ = matrices
        service = EstimationService()
        first = service.sketch_for(a)
        second = service.sketch_for(a)
        assert first is second


class TestEstimate:
    def test_cold_then_warm(self, matrices):
        a, b = matrices
        service = EstimationService()
        cold = service.estimate(build_expr(a, b))
        warm = service.estimate(build_expr(a, b))  # rebuilt, same structure
        assert not cold["cached"]
        assert warm["cached"]
        assert warm["nnz"] == cold["nnz"]
        assert warm["fingerprint"] == cold["fingerprint"]

    def test_matches_uncached_estimator(self, matrices):
        a, b = matrices
        service = EstimationService()
        from repro.ir.estimate import estimate_root_nnz

        expr = build_expr(a, b)
        assert service.estimate(expr)["nnz"] == pytest.approx(
            estimate_root_nnz(build_expr(a, b), service.estimator)
        )

    def test_estimate_many_shares_cache(self, matrices):
        a, b = matrices
        service = EstimationService()
        results = service.submit(ServiceRequest.batch(
            [build_expr(a, b), build_expr(a, b), build_expr(a, b)]
        ))
        assert [r["cached"] for r in results] == [False, True, True]
        # A routed batch estimates each distinct root once and answers the
        # repeats from the memo, counted as hits.
        gram = matmul(transpose(leaf(a)), leaf(a))
        routed = EstimationService(EstimatorSpec.parse(None, tolerance=0.5))
        batch = [build_expr(a, b), gram, build_expr(a, b), gram, gram]
        results = routed.submit(ServiceRequest.batch(batch))
        assert [r["cached"] for r in results] == [False, False, True, True, True]
        for repeat, origin in ((2, 0), (3, 1), (4, 1)):
            assert results[repeat]["nnz"] == results[origin]["nnz"]
            assert results[repeat]["router"] == results[origin]["router"]
        assert routed.stats()["service"] == {
            "requests": 5, "hits": 3, "hit_rate": 0.6
        }

    def test_include_intermediates_bypasses_root_memo(self, matrices):
        a, b = matrices
        service = EstimationService()
        service.estimate(build_expr(a, b))
        detailed = service.estimate(build_expr(a, b), include_intermediates=True)
        assert not detailed["cached"]
        assert "intermediates" in detailed

    def test_register_then_estimate_reuses_leaf_sketches(self, matrices):
        a, b = matrices
        service = EstimationService()
        service.register(a)
        service.register(b)
        puts_before = service.store.stats().puts
        service.estimate(build_expr(a, b))
        # The DAG walk found both leaf sketches in the store; no new puts.
        assert service.store.stats().puts == puts_before

    def test_shared_subdag_cached_across_requests(self, matrices):
        a, _ = matrices
        service = EstimationService()
        gram = matmul(transpose(leaf(a)), leaf(a))
        service.estimate(gram)
        # A different root over the same sub-structure reuses its synopsis.
        bigger = matmul(matmul(transpose(leaf(a)), leaf(a)), leaf(a.T.tocsr()))
        result = service.estimate(bigger)
        assert not result["cached"]  # new root ...
        hits = service.memo.stats()["hits"]
        assert hits >= 1  # ... but the shared gram synopsis was a memo hit


class TestMixedSpecs:
    """One service answers per-request specs exactly as separate services,
    one per spec, over one shared store, memo and routing policy would."""

    def test_seeded_spec_does_not_answer_default_requests(self):
        """A seeded ``mnc`` request memoizes its root and the propagated
        synopsis under its own spec key, so a later default request of
        the same composite product is answered as by a fresh service."""
        from repro.catalog.service import ServiceRequest

        a = random_sparse(300, 200, 0.05, seed=1)
        b = random_sparse(200, 250, 0.05, seed=2)
        c = random_sparse(250, 150, 0.05, seed=3)

        def expr():
            return matmul(matmul(leaf(a), leaf(b)), leaf(c))

        service = EstimationService()
        seeded = service.submit(ServiceRequest.estimate(
            expr(), estimator={"name": "mnc", "seed": 7}
        ))
        default = service.submit(ServiceRequest.estimate(expr()))
        fresh = EstimationService().estimate(expr())
        assert not default["cached"]
        assert default["nnz"] == fresh["nnz"]
        assert seeded["nnz"] != fresh["nnz"]  # the seeds do round apart
        again = service.submit(ServiceRequest.estimate(
            expr(), estimator={"name": "mnc", "seed": 7}
        ))
        assert again["cached"] and again["nnz"] == seeded["nnz"]

    MNC7 = ({"name": "mnc", "seed": 7}, None)
    SAMPLING7 = ({"name": "sampling", "seed": 7}, None)
    LAYERED7 = ({"name": "layered_graph", "seed": 7}, None)
    AUTO_LOOSE = ("auto", 0.4)
    AUTO_TIGHT = ("auto", 0.2)
    DEFAULT = (None, None)
    META_AC = ("meta_ac", None)

    #: (spec, expression); sampling and layered_graph see single products
    #: only. Each spec computes more than one distinct root, so an
    #: estimator's random stream must carry over between its requests.
    SEQUENCE = [
        (DEFAULT, "ab"), (META_AC, "ab"), (MNC7, "abc"), (SAMPLING7, "bc"),
        (AUTO_LOOSE, "ab"), (DEFAULT, "abc"), (LAYERED7, "ab"),
        (MNC7, "bcd"), (SAMPLING7, "cd"), (AUTO_TIGHT, "abc"),
        (META_AC, "bcd"), (AUTO_LOOSE, "bcd"), (DEFAULT, "ab"),
        (MNC7, "abc"), (LAYERED7, "cd"), (SAMPLING7, "ab"),
        (AUTO_TIGHT, "abc"), (AUTO_LOOSE, "ab"), (META_AC, "ab"),
        (DEFAULT, "bcd"), (LAYERED7, "bc"), (AUTO_TIGHT, "cd"),
        (SAMPLING7, "bc"), (MNC7, "cd"),
    ]

    @staticmethod
    def _exprs():
        a = random_sparse(60, 50, 0.08, seed=11)
        b = random_sparse(50, 40, 0.08, seed=12)
        c = random_sparse(40, 45, 0.08, seed=13)
        d = random_sparse(45, 30, 0.08, seed=14)
        # Factories, so every request gets a freshly built expression.
        return {
            "ab": lambda: matmul(leaf(a), leaf(b)),
            "bc": lambda: matmul(leaf(b), leaf(c)),
            "cd": lambda: matmul(leaf(c), leaf(d)),
            "abc": lambda: matmul(matmul(leaf(a), leaf(b)), leaf(c)),
            "bcd": lambda: matmul(matmul(leaf(b), leaf(c)), leaf(d)),
        }

    def test_one_service_matches_per_spec_services(self):
        from repro.catalog.memo import EstimateMemo
        from repro.catalog.service import ServiceRequest
        from repro.router import RoutingPolicy

        exprs = self._exprs()
        one = EstimationService("mnc")
        store, memo, policy = SketchStore(), EstimateMemo(), RoutingPolicy()
        per_spec = {}
        for (estimator, tolerance), name in self.SEQUENCE:
            spec = (
                "mnc" if estimator is None and tolerance is None
                else EstimatorSpec.parse(estimator, tolerance=tolerance)
            )
            reference = per_spec.setdefault(
                (str(estimator), tolerance),
                EstimationService(spec, store=store, memo=memo, policy=policy),
            )
            got = one.submit(ServiceRequest.estimate(
                exprs[name](), estimator=estimator, tolerance=tolerance
            ))
            want = reference.submit(ServiceRequest.estimate(exprs[name]()))
            for field in ("nnz", "fingerprint", "cached", "router"):
                assert got.get(field) == want.get(field), (name, estimator, field)
        hits = sum(
            service.stats()["service"]["hits"] for service in per_spec.values()
        )
        assert 0 < hits < len(self.SEQUENCE)
        assert one.stats()["service"]["requests"] == len(self.SEQUENCE)
        assert one.stats()["service"]["hits"] == hits

    def test_racing_threads_resolve_each_spec_once(self, monkeypatch):
        """Threads resolving new specs at once (the server checks the memo
        on its event loop while the estimation thread works) make one
        estimator per spec key and one router per auto key, all routers
        over one policy."""
        import sys
        import threading
        import time

        from repro.router import AdaptiveRouter

        service = EstimationService("mnc")
        made = []

        def noted(build):
            # A slow factory holds a racing thread inside the check-then-make
            # window long enough for the others to reach it.
            def factory(*args, **kwargs):
                made.append(args[-1].key)
                time.sleep(0.005)
                return build(*args, **kwargs)

            return factory

        monkeypatch.setattr(EstimatorSpec, "make", noted(EstimatorSpec.make))
        monkeypatch.setattr(AdaptiveRouter, "from_spec", classmethod(
            noted(AdaptiveRouter.from_spec.__func__)
        ))
        specs = [self.META_AC, self.MNC7, self.SAMPLING7, self.AUTO_LOOSE,
                 self.AUTO_TIGHT]
        expr = self._exprs()["ab"]()
        workers, barrier, errors = 6, threading.Barrier(6), []

        def check(worker):
            try:
                barrier.wait(timeout=10)
                for step in range(40):
                    estimator, tolerance = specs[(worker + step) % len(specs)]
                    spec = EstimatorSpec.parse(estimator, tolerance=tolerance)
                    assert not service.is_memoized(expr, spec)
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=check, args=(w,)) for w in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert sorted(made) == sorted(
            EstimatorSpec.parse(e, tolerance=t).key for e, t in specs
        )
        routers = [
            resolved for resolved, _, tag in service._per_spec.values()
            if tag == "route"
        ]
        assert len(routers) == 2 and routers[0].policy is routers[1].policy


class TestSynopsisRouting:
    def test_mnc_leaf_sketches_live_in_store(self, matrices):
        a, b = matrices
        service = EstimationService("mnc")
        service.estimate(build_expr(a, b))
        assert fingerprint_matrix(a) in service.store
        assert fingerprint_matrix(b) in service.store

    def test_non_canonical_estimator_uses_memo_not_store(self, matrices):
        a, b = matrices
        service = EstimationService("mnc_basic")
        service.estimate(build_expr(a, b))
        assert len(service.store) == 0
        assert len(service.memo) > 0

    def test_density_map_estimator_round_trips(self, matrices):
        a, b = matrices
        service = EstimationService("density_map")
        cold = service.estimate(build_expr(a, b))
        warm = service.estimate(build_expr(a, b))
        assert warm["cached"] and warm["nnz"] == cold["nnz"]
        assert len(service.store) == 0


class TestLifecycle:
    def test_invalidate_by_matrix(self, matrices):
        a, b = matrices
        service = EstimationService()
        service.estimate(build_expr(a, b))
        service.invalidate(a)
        assert fingerprint_matrix(a) not in service.store
        assert fingerprint_matrix(b) in service.store

    def test_invalidate_by_name(self, matrices):
        a, _ = matrices
        service = EstimationService()
        service.register(a, name="A")
        service.invalidate("A")
        assert fingerprint_matrix(a) not in service.store

    def test_clear(self, matrices):
        a, b = matrices
        service = EstimationService()
        service.register(a, name="A")
        service.estimate(build_expr(a, b))
        service.clear()
        assert len(service.store) == 0 and len(service.memo) == 0
        assert service.names == {"A": fingerprint_matrix(a)}

    def test_persist_and_warm(self, matrices, tmp_path):
        a, b = matrices
        service = EstimationService()
        service.register(a)
        service.register(b)
        assert service.persist(tmp_path) == 2

        fresh = EstimationService(store=SketchStore())
        keys = fresh.warm(tmp_path)
        assert sorted(keys) == sorted(
            [fingerprint_matrix(a), fingerprint_matrix(b)]
        )
        puts_before = fresh.store.stats().puts
        fresh.estimate(build_expr(a, b))
        assert fresh.store.stats().puts == puts_before  # warm sketches reused

    def test_stats_shape(self, matrices):
        a, b = matrices
        service = EstimationService()
        service.estimate(build_expr(a, b))
        service.estimate(build_expr(a, b))
        stats = service.stats()
        assert stats["service"]["requests"] == 2
        assert stats["service"]["hits"] == 1
        assert stats["service"]["hit_rate"] == 0.5
        assert "hit_rate" in stats["store"]
        assert "entries" in stats["memo"]


class TestOptimizeChain:
    def test_chain_through_catalog_reuses_sketches(self):
        chain = [
            random_sparse(30, 25, 0.2, seed=10),
            random_sparse(25, 40, 0.1, seed=11),
            random_sparse(40, 20, 0.15, seed=12),
        ]
        service = EstimationService()
        first = service.submit(
            ServiceRequest.chain(chain, rng=np.random.default_rng(0))
        )
        puts_after_first = service.store.stats().puts
        second = service.submit(
            ServiceRequest.chain(chain, rng=np.random.default_rng(0))
        )
        assert service.store.stats().puts == puts_after_first
        assert first.plan == second.plan

    def test_chain_matches_uncatalogued(self):
        from repro.optimizer.mmchain import optimize_chain_matrices

        chain = [
            random_sparse(30, 25, 0.2, seed=10),
            random_sparse(25, 40, 0.1, seed=11),
            random_sparse(40, 20, 0.15, seed=12),
        ]
        direct = optimize_chain_matrices(chain, rng=np.random.default_rng(0))
        via_catalog = EstimationService().submit(
            ServiceRequest.chain(chain, rng=np.random.default_rng(0))
        )
        assert direct.plan == via_catalog.plan
        assert direct.cost == pytest.approx(via_catalog.cost)


class TestTruthMemo:
    """Satellite: the runner's truth cache now survives expression rebuilds."""

    def test_truth_survives_rebuild(self, matrices, monkeypatch):
        a, b = matrices
        clear_truth_cache()
        calls = []

        def counting_evaluate(root):
            calls.append(root)
            return evaluate(root)

        monkeypatch.setattr(runner_module, "evaluate", counting_evaluate)
        first = true_nnz_of(build_expr(a, b))
        second = true_nnz_of(build_expr(a, b))  # new objects, same structure
        assert first == second
        assert len(calls) == 1

    def test_clear_truth_cache_forces_recompute(self, matrices, monkeypatch):
        a, b = matrices
        clear_truth_cache()
        calls = []

        def counting_evaluate(root):
            calls.append(root)
            return evaluate(root)

        monkeypatch.setattr(runner_module, "evaluate", counting_evaluate)
        true_nnz_of(build_expr(a, b))
        clear_truth_cache()
        true_nnz_of(build_expr(a, b))
        assert len(calls) == 2

    def test_truth_matches_direct_evaluation(self, matrices):
        a, b = matrices
        clear_truth_cache()
        expr = build_expr(a, b)
        assert true_nnz_of(expr) == float(evaluate(expr).nnz)
