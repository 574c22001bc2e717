"""Property-based tests for incremental MNC sketch maintenance.

The load-bearing property is *update-vs-rebuild equivalence*: after any
seeded sequence of appends, deletes, and block updates, the patched
sketch must be field-identical to ``MNCSketch.from_matrix`` on a
from-scratch rebuild of the mutated matrix. A dense boolean reference
implementation of the delta semantics keeps the oracle independent of
the CSR splices under test.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.estimate import estimate_product_nnz
from repro.core.incremental import (
    AppendCols,
    AppendRows,
    BlockUpdate,
    DeleteCols,
    DeleteRows,
    IncrementalSketch,
    apply_update,
    delta_from_payload,
    delta_to_payload,
    next_shape,
    random_deltas,
)
from repro.core.sketch import MNCSketch
from repro.errors import ShapeError, SketchError
from repro.matrix.random import random_sparse
from repro.verify.generators import all_generators, generate_case


# ----------------------------------------------------------------------
# Reference semantics over dense boolean matrices
# ----------------------------------------------------------------------

def dense_apply(dense: np.ndarray, delta) -> np.ndarray:
    """Apply *delta* to a dense 0/1 matrix (the independent oracle)."""
    m, n = dense.shape
    if isinstance(delta, AppendRows):
        rows = np.zeros((len(delta.patterns), n), dtype=bool)
        for i, pattern in enumerate(delta.patterns):
            rows[i, pattern] = True
        return np.vstack([dense, rows]) if len(delta.patterns) else dense
    if isinstance(delta, AppendCols):
        cols = np.zeros((m, len(delta.patterns)), dtype=bool)
        for i, pattern in enumerate(delta.patterns):
            cols[pattern, i] = True
        return np.hstack([dense, cols]) if len(delta.patterns) else dense
    if isinstance(delta, DeleteRows):
        return np.delete(dense, delta.positions, axis=0)
    if isinstance(delta, DeleteCols):
        return np.delete(dense, delta.positions, axis=1)
    bh, bw = delta.pattern.shape
    out = dense.copy()
    out[delta.row_start:delta.row_start + bh,
        delta.col_start:delta.col_start + bw] = delta.pattern
    return out


def rebuild_sketch(dense: np.ndarray) -> MNCSketch:
    return MNCSketch.from_matrix(sp.csr_array(dense.astype(float)))


def assert_sketch_fields_equal(actual: MNCSketch, expected: MNCSketch) -> None:
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual.hr, expected.hr)
    np.testing.assert_array_equal(actual.hc, expected.hc)
    for name in ("her", "hec"):
        lhs = getattr(actual, name)
        rhs = getattr(expected, name)
        assert (lhs is None) == (rhs is None), (
            f"{name} presence differs: patched={lhs is not None} "
            f"rebuilt={rhs is not None}"
        )
        if lhs is not None:
            np.testing.assert_array_equal(lhs, rhs, err_msg=name)
    assert actual.fully_diagonal == expected.fully_diagonal
    assert actual.exact == expected.exact


def assert_matrix_matches(incr: IncrementalSketch, dense: np.ndarray) -> None:
    """``to_matrix()`` is the canonical 1.0-valued CSR of the dense state."""
    matrix = incr.to_matrix()
    expected = sp.csr_array(dense.astype(float))
    assert matrix.shape == dense.shape
    assert matrix.has_canonical_format
    assert np.all(matrix.data == 1.0)
    np.testing.assert_array_equal(matrix.indptr, expected.indptr)
    np.testing.assert_array_equal(matrix.indices, expected.indices)


def run_equivalence(dense: np.ndarray, deltas, check_every: int = 1) -> None:
    """Drive incremental and dense states in parallel, comparing sketches
    and the rebuilt matrix."""
    incr = IncrementalSketch(sp.csr_array(dense.astype(float)))
    for step, delta in enumerate(deltas):
        shape = next_shape(incr.shape, delta)
        apply_update(incr, delta)
        dense = dense_apply(dense, delta)
        assert incr.shape == dense.shape == shape
        assert incr.total_nnz == int(np.count_nonzero(dense))
        if step % check_every == 0:
            assert_sketch_fields_equal(incr.sketch(), rebuild_sketch(dense))
            assert_matrix_matches(incr, dense)
    assert_sketch_fields_equal(incr.sketch(), rebuild_sketch(dense))
    assert_matrix_matches(incr, dense)


def seeded_dense(seed: int, m: int = 10, n: int = 8) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.random((m, n)) < rng.random()


# ----------------------------------------------------------------------
# Delta construction and wire payloads
# ----------------------------------------------------------------------

class TestDeltaNormalization:
    def test_delete_positions_sorted_unique(self):
        delta = DeleteRows([3, 1, 3, 0])
        np.testing.assert_array_equal(delta.positions, [0, 1, 3])

    def test_append_patterns_sorted_unique(self):
        delta = AppendRows([[4, 2, 2], [0]])
        np.testing.assert_array_equal(delta.patterns[0], [2, 4])
        np.testing.assert_array_equal(delta.patterns[1], [0])

    def test_negative_position_rejected(self):
        with pytest.raises(SketchError):
            DeleteCols([-1])
        with pytest.raises(SketchError):
            AppendCols([[0, -2]])

    def test_block_pattern_coerced_to_bool(self):
        delta = BlockUpdate(0, 0, [[2, 0], [0, 5]])
        assert delta.pattern.dtype == bool
        np.testing.assert_array_equal(delta.pattern, [[True, False],
                                                      [False, True]])

    def test_block_pattern_must_be_2d(self):
        with pytest.raises(SketchError):
            BlockUpdate(0, 0, [1, 0, 1])

    def test_block_origin_must_be_non_negative(self):
        with pytest.raises(SketchError):
            BlockUpdate(-1, 0, [[1]])


class TestPayloadRoundTrip:
    @pytest.mark.parametrize("delta", [
        AppendRows([[0, 2], []]),
        AppendCols([[1]]),
        DeleteRows([0, 3]),
        DeleteCols([2]),
        BlockUpdate(1, 2, [[1, 0], [1, 1]]),
    ], ids=["append_rows", "append_cols", "delete_rows", "delete_cols",
            "block"])
    def test_round_trip(self, delta):
        clone = delta_from_payload(delta_to_payload(delta))
        assert type(clone) is type(delta)
        np.testing.assert_array_equal(
            clone.pattern if isinstance(delta, BlockUpdate)
            else getattr(clone, "positions", None)
            if hasattr(clone, "positions")
            else np.concatenate([np.asarray(p) for p in clone.patterns]
                                or [np.empty(0)]),
            delta.pattern if isinstance(delta, BlockUpdate)
            else getattr(delta, "positions", None)
            if hasattr(delta, "positions")
            else np.concatenate([np.asarray(p) for p in delta.patterns]
                                or [np.empty(0)]),
        )

    def test_block_round_trip_preserves_origin(self):
        clone = delta_from_payload(
            delta_to_payload(BlockUpdate(3, 4, [[1]]))
        )
        assert (clone.row_start, clone.col_start) == (3, 4)

    def test_unknown_kind_rejected(self):
        with pytest.raises(SketchError):
            delta_from_payload({"kind": "rename_rows"})

    def test_non_dict_rejected(self):
        with pytest.raises(SketchError):
            delta_from_payload(["append_rows"])

    def test_missing_field_rejected(self):
        with pytest.raises(SketchError):
            delta_from_payload({"kind": "append_rows"})

    def test_malformed_block_rejected(self):
        with pytest.raises(SketchError):
            delta_from_payload({"kind": "block", "row_start": 0,
                                "col_start": 0, "pattern": "xx"})

    def test_payload_is_json_safe(self):
        import json
        payload = delta_to_payload(BlockUpdate(0, 1, [[1, 0]]))
        assert json.loads(json.dumps(payload)) == payload


# ----------------------------------------------------------------------
# Update-vs-rebuild equivalence
# ----------------------------------------------------------------------

class TestUpdateVsRebuild:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_sequences(self, seed):
        dense = seeded_dense(seed)
        rng = np.random.default_rng(1000 + seed)
        run_equivalence(dense, random_deltas(rng, dense.shape, 15))

    @pytest.mark.parametrize("generator", all_generators())
    @pytest.mark.parametrize("index", [0, 3, 7])
    def test_generator_zoo_leaves(self, generator, index):
        """Every leaf matrix of the fuzz generator zoo survives churn."""
        case = generate_case(generator, seed=42, index=index)
        rng = np.random.default_rng([42, index])
        for leaf in case.root.leaves()[:2]:
            dense = (leaf.matrix.toarray() != 0)
            run_equivalence(
                dense, random_deltas(rng, dense.shape, 8), check_every=2
            )

    def test_each_delta_kind_alone(self):
        dense = seeded_dense(5, 8, 8)
        for deltas in (
            [AppendRows([[0, 3], [1]])],
            [AppendCols([[2, 5]])],
            [DeleteRows([0, 4])],
            [DeleteCols([1, 6])],
            [BlockUpdate(2, 2, np.eye(3))],
        ):
            run_equivalence(dense.copy(), deltas)

    def test_interleaved_long_sequence(self):
        dense = seeded_dense(9, 6, 6)
        rng = np.random.default_rng(77)
        run_equivalence(dense, random_deltas(rng, dense.shape, 60),
                        check_every=5)

    def test_sparse_and_dense_extremes(self):
        rng = np.random.default_rng(3)
        for density in (0.0, 0.02, 0.5, 1.0):
            dense = rng.random((9, 7)) < density
            run_equivalence(
                dense, random_deltas(rng, dense.shape, 10), check_every=3
            )

    def test_single_row_and_column_matrices(self):
        rng = np.random.default_rng(8)
        for shape in ((1, 12), (12, 1), (1, 1)):
            dense = rng.random(shape) < 0.4
            run_equivalence(dense, random_deltas(rng, shape, 10),
                            check_every=2)


class TestEmptyDeltaNoOp:
    def test_empty_append_rows(self):
        incr = IncrementalSketch(seeded_dense(0).astype(float))
        before = incr.sketch()
        apply_update(incr, AppendRows([]))
        assert_sketch_fields_equal(incr.sketch(), before)

    def test_empty_delete(self):
        incr = IncrementalSketch(seeded_dense(1).astype(float))
        before = incr.sketch()
        apply_update(incr, DeleteRows([]))
        apply_update(incr, DeleteCols([]))
        assert_sketch_fields_equal(incr.sketch(), before)

    def test_zero_area_block(self):
        incr = IncrementalSketch(seeded_dense(2).astype(float))
        before = incr.sketch()
        apply_update(incr, BlockUpdate(0, 0, np.zeros((0, 3))))
        assert_sketch_fields_equal(incr.sketch(), before)

    def test_identity_block_rewrite(self):
        """Writing back the existing block structure changes nothing."""
        dense = seeded_dense(4)
        incr = IncrementalSketch(dense.astype(float))
        before = incr.sketch()
        apply_update(incr, BlockUpdate(1, 1, dense[1:4, 1:5]))
        assert_sketch_fields_equal(incr.sketch(), before)


class TestDeleteThenReappend:
    def test_row_round_trip(self):
        dense = seeded_dense(11, 8, 6)
        incr = IncrementalSketch(dense.astype(float))
        original = incr.sketch()
        tail = [np.flatnonzero(dense[r]) for r in (6, 7)]
        apply_update(incr, DeleteRows([6, 7]))
        apply_update(incr, AppendRows(tail))
        assert_sketch_fields_equal(incr.sketch(), original)
        np.testing.assert_array_equal(incr.to_matrix().toarray() != 0, dense)

    def test_col_round_trip(self):
        dense = seeded_dense(12, 6, 8)
        incr = IncrementalSketch(dense.astype(float))
        original = incr.sketch()
        tail = [np.flatnonzero(dense[:, c]) for c in (6, 7)]
        apply_update(incr, DeleteCols([6, 7]))
        apply_update(incr, AppendCols(tail))
        assert_sketch_fields_equal(incr.sketch(), original)

    def test_delete_all_then_regrow(self):
        dense = seeded_dense(13, 5, 4)
        incr = IncrementalSketch(dense.astype(float))
        apply_update(incr, DeleteRows(range(5)))
        assert incr.shape == (0, 4)
        apply_update(incr, AppendRows([np.flatnonzero(r) for r in dense]))
        assert_sketch_fields_equal(incr.sketch(), rebuild_sketch(dense))


class TestZeroDimEdgeCases:
    def test_zero_by_zero(self):
        incr = IncrementalSketch(sp.csr_array((0, 0)))
        sketch = incr.sketch()
        assert sketch.shape == (0, 0)
        assert sketch.fully_diagonal  # matches from_matrix on 0x0
        assert_sketch_fields_equal(
            sketch, MNCSketch.from_matrix(sp.csr_array((0, 0)))
        )

    def test_grow_from_empty(self):
        incr = IncrementalSketch(sp.csr_array((0, 0)))
        apply_update(incr, AppendCols([[], [], []]))
        assert incr.shape == (0, 3)
        apply_update(incr, AppendRows([[0, 2], [1]]))
        dense = np.array([[1, 0, 1], [0, 1, 0]]) != 0
        assert_sketch_fields_equal(incr.sketch(), rebuild_sketch(dense))

    def test_zero_rows_matrix_churn(self):
        incr = IncrementalSketch(sp.csr_array((0, 4)))
        apply_update(incr, DeleteCols([0, 3]))
        assert incr.shape == (0, 2)
        apply_update(incr, AppendRows([[0, 1]]))
        assert incr.total_nnz == 2
        assert_sketch_fields_equal(
            incr.sketch(), rebuild_sketch(np.ones((1, 2), dtype=bool))
        )

    def test_zero_cols_matrix_churn(self):
        incr = IncrementalSketch(sp.csr_array((3, 0)))
        apply_update(incr, DeleteRows([1]))
        apply_update(incr, AppendCols([[0, 1]]))
        assert incr.shape == (2, 1)
        assert incr.total_nnz == 2

    def test_random_churn_from_zero_dims(self):
        for seed, shape in ((21, (0, 5)), (22, (5, 0)), (23, (0, 0))):
            rng = np.random.default_rng(seed)
            dense = np.zeros(shape, dtype=bool)
            run_equivalence(dense, random_deltas(rng, shape, 14),
                            check_every=3)


class TestBlockUpdates:
    def test_clear_block(self):
        dense = np.ones((6, 6), dtype=bool)
        incr = IncrementalSketch(dense.astype(float))
        apply_update(incr, BlockUpdate(1, 1, np.zeros((3, 3))))
        expected = dense.copy()
        expected[1:4, 1:4] = False
        assert_sketch_fields_equal(incr.sketch(), rebuild_sketch(expected))

    def test_fill_block(self):
        dense = np.zeros((5, 5), dtype=bool)
        incr = IncrementalSketch(sp.csr_array(dense.astype(float)))
        apply_update(incr, BlockUpdate(0, 0, np.ones((5, 5))))
        assert incr.total_nnz == 25
        assert_sketch_fields_equal(
            incr.sketch(), rebuild_sketch(np.ones((5, 5), dtype=bool))
        )

    def test_full_matrix_replace(self):
        dense = seeded_dense(31, 7, 7)
        target = seeded_dense(32, 7, 7)
        incr = IncrementalSketch(dense.astype(float))
        apply_update(incr, BlockUpdate(0, 0, target))
        assert_sketch_fields_equal(incr.sketch(), rebuild_sketch(target))

    def test_block_after_deletes_uses_positions(self):
        """Block coordinates are positions, not original indices."""
        dense = seeded_dense(33, 8, 8)
        incr = IncrementalSketch(dense.astype(float))
        apply_update(incr, DeleteRows([0]))
        apply_update(incr, DeleteCols([2]))
        shifted = np.delete(np.delete(dense, 0, axis=0), 2, axis=1)
        pattern = np.eye(2, dtype=bool)
        apply_update(incr, BlockUpdate(3, 3, pattern))
        shifted[3:5, 3:5] = pattern
        assert_sketch_fields_equal(incr.sketch(), rebuild_sketch(shifted))


class TestShapeValidation:
    def test_append_row_column_out_of_range(self):
        incr = IncrementalSketch(np.ones((2, 3)))
        with pytest.raises(ShapeError):
            apply_update(incr, AppendRows([[3]]))

    def test_append_col_row_out_of_range(self):
        incr = IncrementalSketch(np.ones((2, 3)))
        with pytest.raises(ShapeError):
            apply_update(incr, AppendCols([[2]]))

    def test_delete_out_of_range(self):
        incr = IncrementalSketch(np.ones((2, 3)))
        with pytest.raises(ShapeError):
            apply_update(incr, DeleteRows([2]))
        with pytest.raises(ShapeError):
            apply_update(incr, DeleteCols([5]))

    def test_block_exceeds_shape(self):
        incr = IncrementalSketch(np.ones((3, 3)))
        with pytest.raises(ShapeError):
            apply_update(incr, BlockUpdate(2, 0, np.ones((2, 2))))

    def test_apply_update_rejects_plain_sketch(self):
        sketch = MNCSketch.from_matrix(np.eye(3))
        with pytest.raises(SketchError):
            apply_update(sketch, DeleteRows([0]))

    def test_failed_delta_leaves_state_usable(self):
        dense = seeded_dense(41)
        incr = IncrementalSketch(dense.astype(float))
        with pytest.raises(ShapeError):
            apply_update(incr, DeleteRows([99]))
        assert_sketch_fields_equal(incr.sketch(), rebuild_sketch(dense))


class TestCompaction:
    def test_churn_triggers_compaction(self):
        """80 rounds of delete-and-append churn stay equal to the rebuild."""
        rng = np.random.default_rng(61)
        dense = rng.random((10, 6)) < 0.3
        incr = IncrementalSketch(sp.csr_array(dense.astype(float)))
        for _ in range(80):
            pos = np.sort(rng.choice(incr.shape[0], 2, replace=False))
            apply_update(incr, DeleteRows(pos))
            dense = np.delete(dense, pos, axis=0)
            patterns = [
                np.flatnonzero(rng.random(incr.shape[1]) < 0.3)
                for _ in range(2)
            ]
            apply_update(incr, AppendRows(patterns))
            block = np.zeros((2, incr.shape[1]), dtype=bool)
            for i, pattern in enumerate(patterns):
                block[i, pattern] = True
            dense = np.vstack([dense, block])
        assert_sketch_fields_equal(incr.sketch(), rebuild_sketch(dense))
        assert_matrix_matches(incr, dense)


class TestDiagonalTracking:
    def test_identity_stays_diagonal(self):
        incr = IncrementalSketch(np.eye(6))
        assert incr.sketch().fully_diagonal

    def test_delete_breaks_diagonal(self):
        incr = IncrementalSketch(np.eye(6))
        apply_update(incr, DeleteRows([2]))
        assert not incr.sketch().fully_diagonal

    def test_block_can_restore_diagonal(self):
        dense = np.eye(5)
        dense[1, 3] = 1.0
        incr = IncrementalSketch(dense)
        assert not incr.sketch().fully_diagonal
        row = np.zeros((1, 5))
        row[0, 1] = 1.0
        apply_update(incr, BlockUpdate(1, 0, row))
        assert incr.sketch().fully_diagonal

    def test_permutation_is_not_diagonal(self):
        dense = np.zeros((4, 4))
        dense[[0, 1, 2, 3], [1, 0, 3, 2]] = 1.0
        incr = IncrementalSketch(dense)
        expected = MNCSketch.from_matrix(dense)
        assert incr.sketch().fully_diagonal == expected.fully_diagonal


class TestDownstreamEstimates:
    def test_product_estimate_bit_identical(self):
        rng = np.random.default_rng(71)
        a = seeded_dense(72, 12, 9)
        b = random_sparse(9, 10, 0.2, seed=73)
        incr = IncrementalSketch(sp.csr_array(a.astype(float)))
        for delta in random_deltas(rng, a.shape, 6):
            # Keep the inner dimension fixed so the product stays valid.
            if isinstance(delta, (AppendCols, DeleteCols)):
                continue
            apply_update(incr, delta)
            a = dense_apply(a, delta)
        patched = estimate_product_nnz(
            incr.sketch(), MNCSketch.from_matrix(b)
        )
        rebuilt = estimate_product_nnz(
            rebuild_sketch(a), MNCSketch.from_matrix(b)
        )
        assert patched == rebuilt  # bit-identical, not approximately


class TestRandomDeltas:
    def test_deterministic_for_same_seed(self):
        a = random_deltas(np.random.default_rng(5), (6, 6), 20)
        b = random_deltas(np.random.default_rng(5), (6, 6), 20)
        assert [type(x) for x in a] == [type(y) for y in b]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(
                *(d.pattern for d in (x, y)) if isinstance(x, BlockUpdate)
                else (d.positions for d in (x, y))
                if isinstance(x, (DeleteRows, DeleteCols))
                else (np.concatenate([*d.patterns, np.empty(0, np.int64)])
                      for d in (x, y))
            )

    def test_sequences_always_in_bounds(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            incr = IncrementalSketch(sp.csr_array((3, 3)))
            for delta in random_deltas(rng, (3, 3), 30):
                apply_update(incr, delta)

    def test_all_kinds_appear(self):
        kinds = set()
        for seed in range(20):
            rng = np.random.default_rng(seed)
            kinds.update(
                type(d).__name__ for d in random_deltas(rng, (8, 8), 10)
            )
        assert kinds == {"AppendRows", "AppendCols", "DeleteRows",
                         "DeleteCols", "BlockUpdate"}


class TestBookkeeping:
    def test_sketch_is_cached_until_next_update(self):
        incr = IncrementalSketch(np.eye(4))
        assert incr.sketch() is incr.sketch()
        apply_update(incr, DeleteRows([0]))
        first = incr.sketch()
        assert incr.sketch() is first

    def test_materialized_sketch_is_validating_clean(self):
        """The patched fields always satisfy the validating constructor."""
        rng = np.random.default_rng(81)
        dense = seeded_dense(82)
        incr = IncrementalSketch(sp.csr_array(dense.astype(float)))
        for delta in random_deltas(rng, dense.shape, 10):
            apply_update(incr, delta)
        snap = incr.sketch()
        MNCSketch(  # raises SketchError if any invariant is violated
            shape=snap.shape, hr=snap.hr, hc=snap.hc,
            her=snap.her, hec=snap.hec,
            fully_diagonal=snap.fully_diagonal, exact=snap.exact,
        )


class TestSharedArraysNeverChange:
    """The flat CSR shares arrays with the input matrix, with earlier
    ``to_matrix()`` results and with earlier snapshots. That sharing is
    safe only because no delta writes into an array it has handed out."""

    @pytest.mark.parametrize("delta", [
        AppendRows([[0, 3], [], [5]]),
        AppendCols([[1, 2], [7]]),
        DeleteRows([0, 4]),
        DeleteCols([1, 5]),
        BlockUpdate(2, 1, np.eye(3)),
    ], ids=["append_rows", "append_cols", "delete_rows", "delete_cols",
            "block"])
    def test_delta_leaves_handed_out_arrays_intact(self, delta):
        source = sp.csr_array(
            (np.random.default_rng(91).random((8, 8)) < 0.4).astype(float)
        )
        incr = IncrementalSketch(source)
        matrix = incr.to_matrix()
        snapshot = incr.sketch()
        # The arrays really are shared, so the check below is not vacuous.
        assert np.shares_memory(matrix.indices, source.indices)
        assert np.shares_memory(matrix.indptr, source.indptr)
        held = {
            "source.indptr": source.indptr,
            "source.indices": source.indices,
            "matrix.indptr": matrix.indptr,
            "matrix.indices": matrix.indices,
            "matrix.data": matrix.data,
            "snapshot.hr": snapshot.hr,
            "snapshot.hc": snapshot.hc,
        }
        before = {name: array.tobytes() for name, array in held.items()}
        apply_update(incr, delta)
        incr.sketch()
        for name, array in held.items():
            assert array.tobytes() == before[name], name

