"""Unit tests for the synthetic dataset stand-ins."""

import numpy as np
import pytest

from repro.matrix.properties import col_nnz, row_nnz, sparsity
from repro.sparsest import datasets


class TestAminerAbstracts:
    def test_single_nnz_per_row(self):
        matrix = datasets.aminer_abstracts(rows=500, vocab=200, seed=1)
        np.testing.assert_array_equal(row_nnz(matrix), np.ones(500))

    def test_unknown_column_share(self):
        matrix = datasets.aminer_abstracts(
            rows=2000, vocab=100, unknown_fraction=0.5, seed=2
        )
        unknown_count = col_nnz(matrix)[-1]
        assert 800 < unknown_count < 1200

    def test_power_law_head(self):
        matrix = datasets.aminer_abstracts(rows=5000, vocab=500, seed=3)
        counts = col_nnz(matrix)[:-1]
        assert counts[0] > counts[200]


class TestGraphs:
    def test_aminer_references_shape_and_degree(self):
        graph = datasets.aminer_references(nodes=1000, average_degree=4.0, seed=4)
        assert graph.shape == (1000, 1000)
        assert 2.0 < graph.nnz / 1000 <= 4.0  # duplicates collapse

    def test_aminer_in_degrees_skewed(self):
        graph = datasets.aminer_references(nodes=2000, seed=5)
        in_degrees = col_nnz(graph)
        assert in_degrees.max() > 10 * max(np.median(in_degrees), 1)

    def test_email_graph_sparse(self):
        graph = datasets.email_graph(nodes=1000, edges=1500, seed=6)
        assert graph.shape == (1000, 1000)
        assert sparsity(graph) < 0.01


class TestRepeatedDraws:
    # Each seed draws some cell of the 2 x 2 output a multiple of 256
    # times; summed as int8 that count wraps to 0 and the cell was lost.
    @pytest.mark.parametrize(
        "generate",
        [
            lambda: datasets.aminer_references(nodes=2, average_degree=768, seed=8),
            lambda: datasets.amazon_ratings(users=2, items=2, average_ratings=512, seed=57),
            lambda: datasets.email_graph(nodes=2, edges=1024, seed=75),
        ],
        ids=["aminer_references", "amazon_ratings", "email_graph"],
    )
    def test_every_drawn_cell_is_kept(self, generate):
        matrix = generate()
        assert matrix.nnz == 4
        assert matrix.data.dtype == np.int8
        assert (matrix.data == 1).all()


class TestAmazon:
    def test_ultra_sparse(self):
        ratings = datasets.amazon_ratings(users=2000, items=800, seed=7)
        assert sparsity(ratings) < 0.01

    def test_item_popularity_skewed(self):
        ratings = datasets.amazon_ratings(users=5000, items=500, seed=8)
        popularity = np.sort(col_nnz(ratings))[::-1]
        assert popularity[0] > 5 * max(popularity[250], 1)


class TestCovtype:
    def test_shape_and_sparsity(self):
        matrix = datasets.covtype(rows=2000, seed=9)
        assert matrix.shape == (2000, 54)
        assert 0.2 < sparsity(matrix) < 0.25  # 12 of 54 columns per row

    def test_dense_quantitative_columns(self):
        matrix = datasets.covtype(rows=1000, seed=10)
        counts = col_nnz(matrix)
        np.testing.assert_array_equal(counts[:10], np.full(10, 1000))

    def test_one_hot_groups_partition_rows(self):
        matrix = datasets.covtype(rows=1000, seed=11)
        counts = col_nnz(matrix)
        assert counts[10:14].sum() == 1000  # wilderness one-hot
        assert counts[14:].sum() == 1000  # soil one-hot

    def test_varying_column_sparsity(self):
        matrix = datasets.covtype(rows=5000, seed=12)
        counts = col_nnz(matrix)[14:]
        assert counts.max() > 10 * max(counts.min(), 1)


class TestMnistLike:
    def test_shape(self):
        matrix = datasets.mnist_like(rows=500, seed=13)
        assert matrix.shape == (500, 784)

    def test_target_sparsity(self):
        matrix = datasets.mnist_like(rows=2000, seed=14)
        assert 0.2 < sparsity(matrix) < 0.3

    def test_center_concentration(self):
        matrix = datasets.mnist_like(rows=2000, seed=15)
        counts = col_nnz(matrix).reshape(28, 28)
        center_mass = counts[7:21, 7:21].mean()
        border_mass = counts[:3, :].mean()
        assert center_mass > 3 * max(border_mass, 1)


class TestCenterMask:
    def test_mask_structure(self):
        mask = datasets.center_mask(10)
        assert mask.shape == (10, 784)
        assert mask.nnz == 10 * 14 * 14

    def test_mask_covers_center_pixels(self):
        mask = datasets.center_mask(1).toarray().reshape(28, 28)
        assert mask[14, 14] == 1
        assert mask[0, 0] == 0
        assert mask[7, 7] == 1
        assert mask[6, 6] == 0

    def test_custom_inner_size(self):
        mask = datasets.center_mask(5, side=10, inner=4)
        assert mask.nnz == 5 * 16


class TestDeterminism:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda s: datasets.aminer_abstracts(rows=100, vocab=50, seed=s),
            lambda s: datasets.aminer_references(nodes=100, seed=s),
            lambda s: datasets.amazon_ratings(users=100, items=50, seed=s),
            lambda s: datasets.covtype(rows=100, seed=s),
            lambda s: datasets.email_graph(nodes=100, edges=150, seed=s),
            lambda s: datasets.mnist_like(rows=50, seed=s),
        ],
    )
    def test_seeded_reproducibility(self, factory):
        a, b = factory(42), factory(42)
        assert (a != b).nnz == 0
