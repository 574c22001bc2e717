"""Adaptive estimator routing (``estimator="auto"``), end to end.

Covers the tier ladder, escalation/stop behavior against the tolerance,
the residual-fed :class:`RoutingPolicy` (snapshot / merge / persistence),
probe determinism, and the headline promise: routed results are
bit-identical across worker counts and over HTTP.
"""

import json

import pytest

from repro.catalog.service import EstimationService, ServiceRequest
from repro.catalog.store import SketchStore
from repro.errors import EstimatorOptionError, ReproError
from repro.estimators import available_estimators
from repro.estimators.spec import EstimatorSpec
from repro.ir.interpreter import evaluate
from repro.ir.nodes import ewise_mult, leaf
from repro.matrix.random import random_sparse
from repro.router import (
    POLICY_FILENAME,
    TIER_LADDER,
    AdaptiveRouter,
    RoutingPolicy,
    admissible_tiers,
    derive_tier_seed,
    estimator_catalog,
    probe_hardness,
)


def _product(seed=0, m=60, k=40, n=50, density=0.08):
    a = random_sparse(m, k, density, seed=seed)
    b = random_sparse(k, n, density, seed=seed + 1)
    return leaf(a, name="A") @ leaf(b, name="B")


def _masked(seed=0, m=60, n=50, density=0.3):
    """An element-wise root: MNC has no interval for it, only a band."""
    a = random_sparse(m, n, density, seed=seed)
    b = random_sparse(m, n, density, seed=seed + 1)
    return ewise_mult(leaf(a, name="A"), leaf(b, name="B"))


_MNC_PRIOR = next(tier for tier in TIER_LADDER if tier.name == "mnc").prior_error
#: Relative width of MNC's prior band (0.37 for its 1.2 band).
MNC_PRIOR_WIDTH = _MNC_PRIOR - 1.0 / _MNC_PRIOR


class TestTierLadder:
    def test_costs_strictly_increase_metadata_to_exact(self):
        costs = [tier.cost for tier in TIER_LADDER]
        assert costs == sorted(costs)
        assert len(set(costs)) == len(costs)
        assert TIER_LADDER[0].name == "meta_ac"
        assert TIER_LADDER[-1].name == "exact"

    def test_admissible_tiers_always_end_in_exact(self):
        tiers = admissible_tiers(_product())
        assert tiers
        assert tiers[-1].name == "exact"

    def test_estimator_catalog_matches_registry(self):
        rows = estimator_catalog()
        assert [row["name"] for row in rows] == available_estimators()
        ladder_names = {tier.name for tier in TIER_LADDER}
        for row in rows:
            if row["name"] in ladder_names:
                assert isinstance(row["cost_tier"], int)
            else:
                assert row["cost_tier"] is None

    def test_tier_seed_derivation_stable_and_distinct(self):
        assert derive_tier_seed(1, "fp", "mnc") == derive_tier_seed(1, "fp", "mnc")
        assert derive_tier_seed(1, "fp", "mnc") != derive_tier_seed(2, "fp", "mnc")
        assert derive_tier_seed(1, "fp", "mnc") != derive_tier_seed(1, "fp", "hash")


class TestEscalation:
    def test_loose_tolerance_stops_at_metadata(self):
        router = AdaptiveRouter(tolerance=10.0, seed=0)
        _, decision = router.route(_product())
        assert decision.tier == "meta_ac"
        assert decision.escalations == 0
        assert decision.width <= decision.tolerance

    def test_tight_tolerance_escalates_to_certified_exact(self):
        root = _product()
        router = AdaptiveRouter(tolerance=1e-9, seed=0)
        nnz, decision = router.route(root)
        assert decision.tier == "exact"
        assert decision.certified
        assert decision.width == 0.0
        assert decision.escalations >= 1
        assert nnz == float(evaluate(root).nnz)

    def test_policy_band_tiers_are_preskipped_not_run(self):
        # dmap/sampling/hash cannot shrink their width by running (the
        # band is known before evaluation), so with an untrained policy
        # and a tolerance below their priors they are skipped.
        router = AdaptiveRouter(tolerance=0.3, seed=0)
        _, decision = router.route(_product())
        for name in ("density_map", "sampling", "hash"):
            assert name not in decision.tiers_tried
        assert decision.skipped >= 3

    def test_mnc_band_preskipped_off_matmul_roots(self):
        # Off a matmul root MNC's width can only be its band, which is
        # known before evaluation and wider than 0.05: the rung is skipped
        # like a band-only tier, and the route still returns the truth.
        root = _masked()
        nnz, decision = AdaptiveRouter(tolerance=0.05, seed=0).route(root)
        admissible = [tier.name for tier in admissible_tiers(root)]
        assert "mnc" in admissible
        assert "mnc" not in decision.tiers_tried
        assert decision.tiers_tried == ("meta_ac", "exact")
        assert decision.skipped == len(admissible) - len(decision.tiers_tried)
        assert decision.escalations == 1
        assert decision.tier == "exact"
        assert nnz == float(evaluate(root).nnz)

    def test_mnc_runs_off_matmul_roots_when_its_band_fits(self):
        router = AdaptiveRouter(tolerance=MNC_PRIOR_WIDTH + 0.01, seed=0)
        _, decision = router.route(_masked())
        assert decision.tiers_tried == ("meta_ac", "mnc")
        assert decision.tier == "mnc"
        assert not decision.certified
        assert decision.width == pytest.approx(MNC_PRIOR_WIDTH)

    @pytest.mark.parametrize(
        "seed, tolerance, nnz, tier, tiers_tried, skipped, escalations",
        [
            (0, 1e-9, 605.0, "exact", ("meta_ac", "mnc", "exact"), 3, 2),
            (0, 0.05, 605.0, "exact", ("meta_ac", "mnc", "exact"), 3, 2),
            (0, 0.3, 579.9481772455015, "mnc", ("meta_ac", "mnc"), 3, 1),
            (0, 10.0, 603.1620636122545, "meta_ac", ("meta_ac",), 0, 0),
            (3, 1e-9, 598.0, "exact", ("meta_ac", "mnc", "exact"), 3, 2),
            (3, 0.05, 598.0, "exact", ("meta_ac", "mnc", "exact"), 3, 2),
            (3, 0.3, 580.3679360152025, "mnc", ("meta_ac", "mnc"), 3, 1),
            (3, 10.0, 590.2733246972264, "meta_ac", ("meta_ac",), 0, 0),
        ],
    )
    def test_matmul_root_decisions_unchanged(
        self, seed, tolerance, nnz, tier, tiers_tried, skipped, escalations
    ):
        # Frozen before MNC's band pre-skip existed: on matmul roots MNC's
        # width is the Theorem 3.2 interval, so the rung always runs.
        got, decision = AdaptiveRouter(tolerance=tolerance, seed=7).route(
            _product(seed=seed)
        )
        assert got == nnz
        assert decision.tier == tier
        assert decision.tiers_tried == tiers_tried
        assert decision.skipped == skipped
        assert decision.escalations == escalations

    def test_leaf_short_circuits_to_exact(self):
        matrix = random_sparse(30, 20, 0.1, seed=3)
        router = AdaptiveRouter(tolerance=0.5)
        nnz, decision = router.route(leaf(matrix, name="A"))
        assert nnz == float(matrix.nnz)
        assert decision.tier == "exact"
        assert decision.width == 0.0

    def test_route_deterministic_across_fresh_instances(self):
        first = AdaptiveRouter(tolerance=0.25, seed=42).route(_product(seed=5))
        second = AdaptiveRouter(tolerance=0.25, seed=42).route(_product(seed=5))
        assert first[0] == second[0]
        assert first[1] == second[1]

    def test_bad_tolerance_rejected(self):
        with pytest.raises(EstimatorOptionError):
            AdaptiveRouter(tolerance=-1.0)


class TestRoutingPolicy:
    def test_trained_band_unlocks_cheap_tier(self):
        # Feed the policy many near-perfect DMap residuals: its learned
        # band shrinks below the tolerance, so the router now stops at
        # density_map instead of escalating past it.
        policy = RoutingPolicy()
        for _ in range(200):
            policy.observe("DMap", op="matmul", relative_error=1.01)
        trained = AdaptiveRouter(tolerance=0.2, seed=0, policy=policy)
        _, decision = trained.route(_product())
        assert decision.tier == "density_map"

        untrained = AdaptiveRouter(tolerance=0.2, seed=0)
        _, base = untrained.route(_product())
        assert base.tier != "density_map"

    def test_trained_band_unlocks_mnc_off_matmul_roots(self):
        # 200 near-perfect MNC residuals on ewise_mult shrink its band
        # below 0.05, so the rung is no longer pre-skipped and answers.
        policy = RoutingPolicy()
        for _ in range(200):
            policy.observe("MNC", op="ewise_mult", relative_error=1.01)
        trained = AdaptiveRouter(tolerance=0.05, seed=0, policy=policy)
        _, decision = trained.route(_masked())
        assert decision.tiers_tried == ("meta_ac", "mnc")
        assert decision.tier == "mnc"

        _, base = AdaptiveRouter(tolerance=0.05, seed=0).route(_masked())
        assert base.tier == "exact"
        assert "mnc" not in base.tiers_tried

    def test_snapshot_roundtrip_and_merge(self):
        policy = RoutingPolicy()
        policy.observe("MNC", op="matmul", relative_error=1.2, seconds=0.01)
        clone = RoutingPolicy.from_snapshot(policy.snapshot())
        assert clone.snapshot() == policy.snapshot()

        other = RoutingPolicy()
        other.observe("Hash", op="matmul", relative_error=1.5)
        clone.merge(other)
        assert clone.observation_count("Hash") > 0
        assert clone.observation_count("MNC") > 0

    def test_future_snapshot_version_rejected(self):
        payload = RoutingPolicy().snapshot()
        payload["version"] = 99
        with pytest.raises(ReproError):
            RoutingPolicy.from_snapshot(payload)

    def test_save_and_load(self, tmp_path):
        policy = RoutingPolicy()
        policy.observe("MNC", op="matmul", relative_error=1.1)
        policy.save(str(tmp_path))
        assert (tmp_path / POLICY_FILENAME).exists()
        loaded = RoutingPolicy.load(str(tmp_path))
        assert loaded is not None
        assert loaded.snapshot() == policy.snapshot()
        assert RoutingPolicy.load(str(tmp_path / "missing")) is None
        assert RoutingPolicy.load(None) is None

    def test_predicted_error_prior_fallback(self):
        policy = RoutingPolicy()
        assert policy.predicted_error("Unseen", prior=None) is None
        assert policy.predicted_error("Unseen", prior=2.5) == 2.5

    def test_non_finite_and_sub_one_errors_ignored(self):
        policy = RoutingPolicy()
        policy.observe("MNC", relative_error=float("inf"))
        policy.observe("MNC", relative_error=0.5)
        assert policy.observation_count("MNC") == 0

    def test_sync_from_registry_is_incremental(self):
        from repro.observability.metrics import MetricsRegistry, ResidualRecord

        registry = MetricsRegistry()
        policy = RoutingPolicy()

        def residual(estimate):
            registry.record_residual(ResidualRecord(
                source="router", estimator="MNC", workload="w", op="matmul",
                estimate=estimate, truth=100.0,
                relative_error=max(estimate, 100.0) / min(estimate, 100.0),
            ))

        residual(110.0)
        assert policy.sync_from_registry(registry) == 1
        assert policy.sync_from_registry(registry) == 0  # nothing new
        residual(120.0)
        assert policy.sync_from_registry(registry) == 1
        assert policy.observation_count("MNC") == 2


class TestProbe:
    def test_probe_deterministic(self):
        first = probe_hardness(_product(seed=2), seed=7)
        second = probe_hardness(_product(seed=2), seed=7)
        assert first == second
        assert first.hardness in ("easy", "medium", "hard")

    def test_probe_option_via_spec(self):
        spec = EstimatorSpec.parse(
            {"name": "auto", "tolerance": 0.5, "options": {"probe": True}}
        )
        router = AdaptiveRouter.from_spec(spec)
        _, decision = router.route(_product())
        assert decision.probe is not None
        assert decision.probe.hardness in ("easy", "medium", "hard")

    def test_unknown_router_option_rejected(self):
        spec = EstimatorSpec.parse(
            {"name": "auto", "tolerance": 0.5, "options": {"bogus": 1}}
        )
        with pytest.raises(EstimatorOptionError):
            AdaptiveRouter.from_spec(spec)


class TestServiceRouting:
    AUTO = {"name": "auto", "tolerance": 0.3, "seed": 9}

    def test_routed_result_carries_router_payload(self):
        service = EstimationService(
            EstimatorSpec.parse({"name": "auto", "tolerance": 0.4, "seed": 1})
        )
        result = service.submit(ServiceRequest.estimate(_product()))
        meta = result["router"]
        assert meta["tier"] in {tier.name for tier in TIER_LADDER}
        assert meta["width"] <= meta["tolerance"]
        again = service.submit(ServiceRequest.estimate(_product()))
        assert again["cached"] is True
        assert again["nnz"] == result["nnz"]
        assert again["router"] == result["router"]

    def test_per_request_estimator_override(self):
        service = EstimationService("mnc")
        routed = service.submit(
            ServiceRequest.estimate(_product(), tolerance=0.4)
        )
        assert "router" in routed
        plain = service.submit(ServiceRequest.estimate(_product(seed=30)))
        assert "router" not in plain

    def test_batch_workers_bit_identical(self):
        exprs = [_product(seed=index * 10) for index in range(4)]
        serial = EstimationService(EstimatorSpec.parse(self.AUTO)).submit(
            ServiceRequest.batch(exprs, workers=1)
        )
        parallel = EstimationService(EstimatorSpec.parse(self.AUTO)).submit(
            ServiceRequest.batch(exprs, workers=3)
        )
        assert [r["nnz"] for r in serial] == [r["nnz"] for r in parallel]
        assert [r["router"] for r in serial] == [r["router"] for r in parallel]

    def test_stats_expose_router(self):
        service = EstimationService(
            EstimatorSpec.parse({"name": "auto", "tolerance": 0.5})
        )
        service.submit(ServiceRequest.estimate(_product()))
        stats = service.stats()
        assert stats["router"]["tolerance"] == 0.5
        assert stats["router"]["ladder"] == [t.name for t in TIER_LADDER]

    def test_policy_persisted_alongside_catalog(self, tmp_path):
        service = EstimationService(
            EstimatorSpec.parse({"name": "auto", "tolerance": 0.5}),
            store=SketchStore(spill_dir=str(tmp_path)),
        )
        service.submit(ServiceRequest.estimate(_product()))
        service.persist(str(tmp_path))
        assert (tmp_path / POLICY_FILENAME).exists()
        payload = json.loads((tmp_path / POLICY_FILENAME).read_text())
        assert payload["version"] >= 1


class TestRunnerRouting:
    def test_auto_workers_bit_identical(self):
        from repro.sparsest.runner import (
            clear_truth_cache,
            execute_outcomes,
            requests_for,
        )

        requests = requests_for(
            ["B1.1", "B1.2"], ["auto"], scale=0.04, seed=3, tolerance=0.4
        )
        serial = [o.deterministic_key() for o in execute_outcomes(requests, workers=1)]
        clear_truth_cache()
        parallel = [
            o.deterministic_key() for o in execute_outcomes(requests, workers=2)
        ]
        assert serial == parallel
        assert all(key[1] == "Auto" for key in serial)


@pytest.fixture()
def routed_server():
    from repro.serve import EstimationServer, ServeClient, start_server_thread

    service = EstimationService(
        "mnc", store=SketchStore(num_shards=2)
    )
    handle = start_server_thread(EstimationServer(service=service, port=0))
    client = ServeClient(handle.host, handle.port)
    try:
        yield client
    finally:
        client.close()
        handle.stop()


MATMUL_XW = {"op": "matmul", "inputs": [{"ref": "X"}, {"ref": "W"}]}


class TestServeRouting:
    def _register(self, client):
        x = random_sparse(50, 40, 0.1, seed=11)
        w = random_sparse(40, 30, 0.15, seed=12)
        client.register("X", x)
        client.register("W", w)
        return x, w

    def test_http_auto_estimate_and_cache(self, routed_server):
        client = routed_server
        self._register(client)
        spec = {"name": "auto", "tolerance": 0.4, "seed": 3}
        result = client.estimate(MATMUL_XW, estimator=spec)
        assert result["router"]["tolerance"] == 0.4
        assert result["router"]["width"] <= 0.4
        again = client.estimate(MATMUL_XW, estimator=spec)
        assert again["cached"] is True
        assert again["nnz"] == result["nnz"]
        assert again["router"] == result["router"]

    def test_http_matches_local_routing(self, routed_server):
        client = routed_server
        x, w = self._register(client)
        result = client.estimate(
            MATMUL_XW, estimator={"name": "auto", "seed": 3}, tolerance=0.4
        )
        local_nnz, local_decision = AdaptiveRouter(tolerance=0.4, seed=3).route(
            leaf(x, name="X") @ leaf(w, name="W")
        )
        assert result["nnz"] == local_nnz
        assert result["router"]["tier"] == local_decision.tier
        assert result["router"]["escalations"] == local_decision.escalations

    def test_bare_tolerance_implies_auto(self, routed_server):
        client = routed_server
        self._register(client)
        result = client.estimate(MATMUL_XW, tolerance=0.4)
        assert "router" in result

    def test_unknown_estimator_is_structured_400(self, routed_server):
        from repro.serve.client import ServeClientError

        client = routed_server
        self._register(client)
        with pytest.raises(ServeClientError) as info:
            client.estimate(MATMUL_XW, estimator="bogus")
        assert info.value.status == 400
        assert info.value.details["available_estimators"] == available_estimators()

    def test_chain_rejects_estimator_selection(self, routed_server):
        from repro.serve.client import ServeClientError

        client = routed_server
        self._register(client)
        with pytest.raises(ServeClientError) as info:
            client.request(
                "POST", "/estimate", {"chain": ["X", "W"], "estimator": "auto"}
            )
        assert info.value.status == 400

    def test_router_metrics_and_stats_exported(self, routed_server):
        client = routed_server
        self._register(client)
        client.estimate(MATMUL_XW, tolerance=0.4)
        stats = client.stats()
        assert "router" in stats["catalog"]
        assert "router" in client.metrics_text()


class TestCliRouting:
    def test_estimators_table(self, capsys):
        from repro.cli import main

        assert main(["estimators"]) == 0
        out = capsys.readouterr().out
        assert "auto" in out
        assert "mnc" in out

    def test_estimators_json_matches_registry(self, capsys):
        from repro.cli import main

        assert main(["estimators", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [row["name"] for row in payload["estimators"]] == (
            available_estimators()
        )

    def test_estimate_tolerance_implies_auto(self, tmp_path, capsys):
        from repro.cli import main
        from repro.matrix.io import save_matrix

        save_matrix(str(tmp_path / "a.npz"), random_sparse(60, 40, 0.08, seed=1))
        save_matrix(str(tmp_path / "b.npz"), random_sparse(40, 50, 0.08, seed=2))
        code = main([
            "estimate", str(tmp_path / "a.npz"), str(tmp_path / "b.npz"),
            "--tolerance", "0.4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "router: tier" in out
