"""EstimatorSpec: the unified estimator-selection value object.

Every caller-facing surface (service, serve protocol, SparsEst runner,
CLI) parses its estimator selection through ``EstimatorSpec.parse``; these
tests pin the accepted forms, the structured error taxonomy, and the shim
behavior of the deprecated call forms.
"""

import pickle

import pytest

from repro.errors import (
    EstimatorError,
    EstimatorOptionError,
    UnknownEstimatorError,
    UnsupportedOperationError,
)
from repro.estimators import (
    AUTO_NAME,
    EstimatorSpec,
    available_estimators,
    estimator_accepts_seed,
    make_estimator,
)


class TestParse:
    def test_name_string(self):
        spec = EstimatorSpec.parse("mnc")
        assert spec.name == "mnc"
        assert spec.options == ()
        assert not spec.is_auto

    def test_none_uses_default(self):
        # A bare tolerance means auto (tolerance is a routing concept).
        assert EstimatorSpec.parse(None).name == "mnc"
        routed = EstimatorSpec.parse(None, tolerance=0.5)
        assert routed.name == AUTO_NAME and routed.tolerance == 0.5

    def test_existing_spec_is_idempotent(self):
        spec = EstimatorSpec.parse("sampling")
        assert EstimatorSpec.parse(spec) == spec

    def test_wire_mapping(self):
        spec = EstimatorSpec.parse(
            {"estimator": "auto", "tolerance": 0.25, "seed": 7}
        )
        assert spec.is_auto
        assert spec.tolerance == 0.25
        assert spec.seed == 7

    def test_wire_roundtrip(self):
        spec = EstimatorSpec(name="sampling", options={"fraction": 0.2}, seed=3)
        assert EstimatorSpec.parse(spec.to_wire()) == spec

    def test_mapping_needs_exactly_one_name_key(self):
        with pytest.raises(EstimatorOptionError):
            EstimatorSpec.parse({"name": "mnc", "estimator": "mnc"})
        with pytest.raises(EstimatorOptionError):
            EstimatorSpec.parse({"tolerance": 0.5})

    def test_unknown_mapping_fields_rejected(self):
        with pytest.raises(EstimatorOptionError):
            EstimatorSpec.parse({"name": "mnc", "bogus": 1})

    def test_unknown_name_carries_available_estimators(self):
        with pytest.raises(UnknownEstimatorError) as info:
            EstimatorSpec.parse("not_an_estimator")
        assert info.value.details["available_estimators"] == available_estimators()
        # The legacy exception type keeps matching (shim compatibility).
        assert isinstance(info.value, UnsupportedOperationError)

    def test_tolerance_requires_auto(self):
        with pytest.raises(EstimatorOptionError):
            EstimatorSpec.parse("mnc", tolerance=0.5)
        EstimatorSpec.parse(AUTO_NAME, tolerance=0.5)

    @pytest.mark.parametrize("bad", [-1.0, float("inf"), float("nan"), "wide"])
    def test_bad_tolerance_rejected(self, bad):
        with pytest.raises(EstimatorOptionError):
            EstimatorSpec.parse(AUTO_NAME, tolerance=bad)

    def test_instance_rejected_with_guidance(self):
        with pytest.raises(EstimatorOptionError):
            EstimatorSpec.parse(make_estimator("mnc"))

    def test_options_normalized_and_order_insensitive(self):
        a = EstimatorSpec(name="sampling", options={"seed": 1, "fraction": 0.3})
        b = EstimatorSpec(
            name="sampling", options=(("seed", 1), ("fraction", 0.3))
        )
        assert a == b
        assert a.key == b.key

    def test_picklable_and_hashable(self):
        spec = EstimatorSpec.parse({"name": "auto", "tolerance": 0.1})
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert hash(clone) == hash(spec)


class TestKey:
    def test_bare_name(self):
        assert EstimatorSpec.parse("mnc").key == "mnc"

    def test_options_and_tolerance_distinguish_keys(self):
        spec = EstimatorSpec.parse({"name": "auto", "tolerance": 0.5, "seed": 2})
        assert "tolerance=0.5" in spec.key
        assert "seed=2" in spec.key
        assert spec.key != EstimatorSpec.parse({"name": "auto", "tolerance": 0.6}).key


class TestMake:
    def test_seed_injected_when_factory_accepts_it(self):
        assert estimator_accepts_seed("sampling")
        estimator = EstimatorSpec(name="sampling", seed=123).make()
        assert estimator.name

    def test_seed_skipped_when_factory_rejects_it(self):
        assert not estimator_accepts_seed("meta_ac")
        EstimatorSpec(name="meta_ac", seed=5).make()  # must not raise

    def test_explicit_seed_option_wins(self):
        spec = EstimatorSpec(name="sampling", options={"seed": 1}, seed=2)
        spec.make()  # no duplicate-kwarg crash

    def test_auto_is_routed_not_instantiated(self):
        with pytest.raises(EstimatorOptionError):
            EstimatorSpec(name=AUTO_NAME, tolerance=0.5).make()

    def test_auto_not_in_registry(self):
        # The contract fuzzer iterates the registry; "auto" must stay a
        # routing pseudo-name, not a registered estimator.
        assert AUTO_NAME not in available_estimators()


class TestMakeEstimatorErrors:
    def test_unknown_name_structured(self):
        with pytest.raises(UnknownEstimatorError) as info:
            make_estimator("not_real")
        assert "available_estimators" in info.value.details

    def test_bad_option_wrapped(self):
        with pytest.raises(EstimatorOptionError):
            make_estimator("mnc", bogus_kwarg=True)

    def test_both_are_estimator_errors(self):
        with pytest.raises(EstimatorError):
            make_estimator("not_real")
        with pytest.raises(EstimatorError):
            make_estimator("mnc", bogus_kwarg=True)


class TestRunnerShims:
    def test_request_tolerance_requires_auto(self):
        from repro.sparsest.runner import EstimationRequest

        with pytest.raises(EstimatorOptionError):
            EstimationRequest(use_case="B1.1", estimator="mnc", tolerance=0.2)

    def test_request_spec_inherits_seed_and_tolerance(self):
        from repro.sparsest.runner import EstimationRequest

        request = EstimationRequest(
            use_case="B1.1", estimator="auto", seed=9, tolerance=0.4
        )
        spec = request.estimator_spec()
        assert spec.is_auto
        assert spec.seed == 9
        assert spec.tolerance == 0.4

    def test_request_keeps_spec_options(self):
        from repro.sparsest.runner import EstimationRequest

        request = EstimationRequest(
            use_case="B1.1",
            estimator=EstimatorSpec(name="sampling", options={"fraction": 0.25}),
        )
        assert request.estimator_spec().options_dict() == {"fraction": 0.25}
