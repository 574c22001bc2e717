"""Tests for the analytical size models, report rendering, and opcodes."""

import math

import pytest

from repro.errors import UnsupportedOperationError
from repro.estimators.sizing import (
    bitset_size_bytes,
    density_map_size_bytes,
    layered_graph_size_bytes,
    metadata_size_bytes,
    mnc_size_bytes,
    sampling_size_bytes,
    synopsis_size_bytes,
)
from repro.opcodes import Op
from repro.sparsest.report import format_error, simple_table, timings_table
from repro.sparsest.runner import EstimateOutcome


class TestSizeModels:
    def test_bitset_one_bit_per_cell(self):
        assert bitset_size_bytes(8, 8, 0) == 8  # 8 rows x 1 byte
        assert bitset_size_bytes(1000, 1000, 0) == 1000 * 125

    def test_density_map_blocks(self):
        assert density_map_size_bytes(512, 512, 0, block_size=256) == 4 * 8
        assert density_map_size_bytes(513, 512, 0, block_size=256) == 6 * 8

    def test_mnc_linear_in_dims(self):
        with_ext = mnc_size_bytes(1000, 1000, 0)
        without = mnc_size_bytes(1000, 1000, 0, with_extensions=False)
        assert with_ext == pytest.approx(2 * without, rel=0.05)

    def test_layered_graph_grows_with_nnz(self):
        small = layered_graph_size_bytes(1000, 1000, 1000)
        large = layered_graph_size_bytes(1000, 1000, 1_000_000)
        assert large > small

    def test_metadata_constant(self):
        assert metadata_size_bytes(10, 10, 5) == metadata_size_bytes(10**9, 10**9, 10**12)

    def test_sampling_fraction(self):
        assert sampling_size_bytes(100, 1000, 0, fraction=0.1) == 100 * 8

    def test_dispatch(self):
        assert synopsis_size_bytes("mnc", 100, 100, 50) == mnc_size_bytes(100, 100, 50)
        with pytest.raises(UnsupportedOperationError):
            synopsis_size_bytes("unknown", 1, 1, 0)

    def test_paper_figure9_anchor_points(self):
        # 1M x 1M: bitset ~125 GB, DMap ~122 MB (paper). MNC holds four
        # 1M-entry int32 count vectors, 16 MB, against the paper's 32 MB.
        gigabyte = 1024.0**3
        assert bitset_size_bytes(10**6, 10**6, 0) / gigabyte == pytest.approx(116.4, rel=0.01)
        assert mnc_size_bytes(10**6, 10**6, 0) / 1e6 == pytest.approx(16.0, rel=0.05)
        assert density_map_size_bytes(10**6, 10**6, 0) / 1e6 == pytest.approx(122.0, rel=0.05)


class TestReportRendering:
    def test_format_error_values(self):
        assert format_error(1.0) == "1.00"
        assert format_error(2.345) == "2.35"
        assert format_error(float("inf")) == "INF"
        assert format_error(float("nan")) == "x"
        assert format_error(None) == "x"
        assert "e+" in format_error(123456.0)

    def test_simple_table_alignment(self):
        table = simple_table(["a", "b"], [[1, 2.5], ["long-label", 3.0]])
        lines = table.splitlines()
        assert len({len(line) for line in lines}) == 1  # uniform width

    def test_simple_table_pads_short_rows(self):
        table = simple_table(["a", "b", "c"], [["x"]])
        assert "x" in table

    def test_timings_table(self):
        outcomes = [
            EstimateOutcome("B1.1", "MNC", 10, 10, 1.0, 0.0123, "ok"),
            EstimateOutcome("B1.1", "Hash", 10, math.nan, math.inf, 0.0, "unsupported"),
        ]
        table = timings_table(outcomes, title="timings")
        assert "0.0123" in table
        assert "x" in table


class TestOpcodes:
    def test_arity(self):
        assert Op.MATMUL.arity == 2
        assert Op.TRANSPOSE.arity == 1
        assert Op.LEAF.arity == 0
        assert Op.RBIND.arity == 2
        assert Op.ROW_SUMS.arity == 1

    def test_categories_are_disjoint(self):
        for op in Op:
            flags = [op.is_elementwise, op.is_reorganization, op.is_aggregation]
            assert sum(flags) <= 1, op

    def test_category_membership(self):
        assert Op.EWISE_ADD.is_elementwise
        assert Op.TRANSPOSE.is_reorganization
        assert Op.COL_SUMS.is_aggregation
        assert not Op.MATMUL.is_elementwise
        assert not Op.MATMUL.is_reorganization
