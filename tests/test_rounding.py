"""Unit tests for probabilistic rounding."""

import numpy as np

from repro.core.rounding import probabilistic_round, resolve_rng
from repro.core.sketch import COUNT_DTYPE


class TestResolveRng:
    def test_passthrough_generator(self):
        generator = np.random.default_rng(1)
        assert resolve_rng(generator) is generator

    def test_int_seed_deterministic(self):
        a = resolve_rng(42).random(5)
        b = resolve_rng(42).random(5)
        np.testing.assert_array_equal(a, b)

    def test_none_gives_generator(self):
        assert isinstance(resolve_rng(None), np.random.Generator)


class TestProbabilisticRound:
    def test_integers_unchanged(self, rng):
        values = np.array([0.0, 1.0, 5.0, 100.0])
        np.testing.assert_array_equal(
            probabilistic_round(values, rng=rng), [0, 1, 5, 100]
        )

    def test_unbiased_expectation(self):
        values = np.full(20_000, 0.4)
        rounded = probabilistic_round(values, rng=np.random.default_rng(7))
        assert 0.38 < rounded.mean() < 0.42

    def test_not_all_zero_for_fractions(self):
        # The motivating failure of deterministic rounding: 0.4 -> 0.
        values = np.full(100, 0.4)
        rounded = probabilistic_round(values, rng=np.random.default_rng(8))
        assert rounded.sum() > 0

    def test_negative_clamped(self, rng):
        rounded = probabilistic_round(np.array([-0.5, -2.0]), rng=rng)
        np.testing.assert_array_equal(rounded, [0, 0])

    def test_maximum_cap(self, rng):
        rounded = probabilistic_round(np.array([9.9, 3.2]), rng=rng, maximum=5)
        assert rounded.max() <= 5

    def test_output_dtype(self, rng):
        assert probabilistic_round(np.array([1.5]), rng=rng).dtype == COUNT_DTYPE

    def test_values_within_one_of_input(self, rng):
        values = np.array([0.1, 2.7, 3.999])
        rounded = probabilistic_round(values, rng=rng)
        assert np.all(np.abs(rounded - values) < 1.0)
