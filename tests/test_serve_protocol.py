"""Tests for the serving wire format (repro.serve.protocol)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import ProtocolError
from repro.ir.nodes import leaf
from repro.matrix.random import random_sparse
from repro.opcodes import Op
from repro.serve.protocol import (
    canonical_expr_key,
    decode_estimate_request,
    decode_expr,
    decode_matrix,
    decode_register_request,
    decode_update_request,
    encode_chain_solution,
    encode_estimate_result,
    encode_matrix,
)


class TestMatrixCodec:
    def test_coo_round_trip(self):
        matrix = random_sparse(20, 15, 0.2, seed=3)
        wire = encode_matrix(matrix)
        decoded = decode_matrix(wire)
        assert decoded.shape == (20, 15)
        np.testing.assert_array_equal(
            (decoded.toarray() != 0), (matrix.toarray() != 0)
        )

    def test_dense_payload(self):
        decoded = decode_matrix({"dense": [[1.0, 0.0], [0.0, 2.0]]})
        assert decoded.shape == (2, 2)
        assert decoded.nnz == 2

    def test_values_are_structural(self):
        wire = {"shape": [2, 2], "rows": [0, 1], "cols": [1, 0]}
        decoded = decode_matrix(wire)
        np.testing.assert_array_equal(decoded.data, [1.0, 1.0])

    def test_duplicate_coordinates_collapse(self):
        wire = {"shape": [2, 2], "rows": [0, 0], "cols": [1, 1]}
        decoded = decode_matrix(wire)
        assert decoded.nnz == 1
        assert decoded.toarray()[0, 1] == 1.0

    def test_empty_matrix(self):
        decoded = decode_matrix({"shape": [3, 4], "rows": [], "cols": []})
        assert decoded.shape == (3, 4)
        assert decoded.nnz == 0

    @pytest.mark.parametrize(
        "payload",
        [
            "not a dict",
            {"shape": [2], "rows": [], "cols": []},
            {"shape": [2, 2], "rows": [0]},
            {"shape": [2, 2], "rows": [0], "cols": [0, 1]},
            {"shape": [2, 2], "rows": [2], "cols": [0]},
            {"shape": [2, 2], "rows": [0], "cols": [5]},
            {"shape": [-1, 2], "rows": [], "cols": []},
            {"shape": ["a", 2], "rows": [], "cols": []},
            {"dense": "nope"},
            {"dense": [1, 2, 3]},
        ],
    )
    def test_malformed_payloads_raise(self, payload):
        with pytest.raises(ProtocolError):
            decode_matrix(payload)


class TestExprCodec:
    def _resolver(self):
        leaves = {
            "X": leaf(random_sparse(10, 8, 0.3, seed=1), name="X"),
            "W": leaf(random_sparse(8, 6, 0.3, seed=2), name="W"),
        }

        def resolve(name):
            try:
                return leaves[name]
            except KeyError:
                raise ProtocolError(f"unknown {name!r}") from None

        return resolve, leaves

    def test_ref_resolves_to_cached_leaf(self):
        resolve, leaves = self._resolver()
        assert decode_expr({"ref": "X"}, resolve) is leaves["X"]

    def test_nested_tree(self):
        resolve, _ = self._resolver()
        expr = decode_expr(
            {
                "op": "matmul",
                "inputs": [
                    {"ref": "X"},
                    {"op": "transpose", "inputs": [{"op": "transpose", "inputs": [{"ref": "W"}]}]},
                ],
            },
            resolve,
        )
        assert expr.op is Op.MATMUL
        assert expr.shape == (10, 6)

    def test_reshape_params(self):
        resolve, _ = self._resolver()
        expr = decode_expr(
            {"op": "reshape", "inputs": [{"ref": "X"}], "params": {"rows": 8, "cols": 10}},
            resolve,
        )
        assert expr.shape == (8, 10)

    def test_inline_matrix_leaf(self):
        resolve, _ = self._resolver()
        expr = decode_expr(
            {"matrix": {"shape": [2, 2], "rows": [0], "cols": [0]}}, resolve
        )
        assert expr.op is Op.LEAF
        assert expr.shape == (2, 2)

    @pytest.mark.parametrize(
        "payload,match",
        [
            ({"op": "nope", "inputs": []}, "unknown operation"),
            ({"op": "leaf", "inputs": []}, "ref"),
            ({"op": "matmul", "inputs": [{"ref": "X"}]}, "expects 2 inputs"),
            ({"op": "matmul", "inputs": [{"ref": "W"}, {"ref": "X"}]}, "invalid expression"),
            ({"op": "reshape", "inputs": [{"ref": "X"}], "params": {}}, "reshape needs"),
            ({"ref": 7}, "ref must be a string"),
            ({}, "needs 'ref'"),
            ({"ref": "missing"}, "unknown"),
        ],
    )
    def test_malformed_exprs_raise(self, payload, match):
        resolve, _ = self._resolver()
        with pytest.raises(ProtocolError, match=match):
            decode_expr(payload, resolve)

    def test_canonical_key_order_insensitive(self):
        a = {"op": "matmul", "inputs": [{"ref": "X"}, {"ref": "W"}]}
        b = {"inputs": [{"ref": "X"}, {"ref": "W"}], "op": "matmul"}
        assert canonical_expr_key(a) == canonical_expr_key(b)
        c = {"op": "matmul", "inputs": [{"ref": "W"}, {"ref": "X"}]}
        assert canonical_expr_key(a) != canonical_expr_key(c)


class TestResultCodec:
    def test_estimate_result_is_json_safe(self):
        import json

        payload = encode_estimate_result(
            {
                "nnz": np.float64(12.5),
                "sparsity": np.float64(0.1),
                "fingerprint": "abc",
                "cached": np.bool_(True),
                "seconds": 0.01,
            }
        )
        json.dumps(payload)
        assert payload["nnz"] == 12.5 and payload["cached"] is True

    def test_chain_solution_plan_nests(self):
        from repro.optimizer.mmchain import ChainSolution

        encoded = encode_chain_solution(
            ChainSolution(plan=((0, 1), 2), cost=np.float64(42.0))
        )
        assert encoded == {"plan": [[0, 1], 2], "cost": 42.0}


class TestRequestCodec:
    def test_single(self):
        decoded = decode_estimate_request({"expr": {"ref": "X"}})
        assert decoded["kind"] == "estimate"
        assert decoded["include_intermediates"] is False

    def test_batch(self):
        decoded = decode_estimate_request({"exprs": [{"ref": "X"}]})
        assert decoded["kind"] == "estimate_many"
        assert decoded["exprs"] == [{"ref": "X"}]

    def test_chain(self):
        decoded = decode_estimate_request({"chain": ["A", "B"], "seed": 5})
        assert decoded["kind"] == "optimize_chain" and decoded["seed"] == 5

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"expr": {"ref": "X"}, "exprs": []},
            {"exprs": []},
            {"chain": ["only-one"]},
            {"chain": ["A", 2]},
            {"exprs": {"ref": "X"}},
            {"chain": ["A", "B"], "seed": "x"},
        ],
    )
    def test_malformed_requests_raise(self, payload):
        with pytest.raises(ProtocolError):
            decode_estimate_request(payload)

    def test_register_whole(self):
        decoded = decode_register_request({"name": "X", "matrix": {"dense": [[1]]}})
        assert decoded["name"] == "X" and "matrix" in decoded

    def test_register_shards_with_indices(self):
        decoded = decode_register_request(
            {
                "name": "X",
                "axis": 1,
                "shards": [
                    {"matrix": {"dense": [[1]]}, "index": 1},
                    {"matrix": {"dense": [[1]]}, "index": 0},
                ],
            }
        )
        assert decoded["axis"] == 1 and decoded["indices"] == [1, 0]

    @pytest.mark.parametrize(
        "payload",
        [
            {"matrix": {"dense": [[1]]}},
            {"name": "", "matrix": {"dense": [[1]]}},
            {"name": "X"},
            {"name": "X", "matrix": {}, "shards": []},
            {"name": "X", "shards": []},
            {"name": "X", "shards": [{"matrix": {}}], "axis": 3},
            {"name": "X", "shards": [{"matrix": {}, "index": 0}, {"matrix": {}}]},
        ],
    )
    def test_malformed_register_raises(self, payload):
        with pytest.raises(ProtocolError):
            decode_register_request(payload)


class TestUpdateRequestCodec:
    def test_single_delta_decodes(self):
        from repro.core.incremental import AppendRows, delta_to_payload

        delta = AppendRows([np.array([0, 2, 5])])
        decoded = decode_update_request({"delta": delta_to_payload(delta)})
        assert len(decoded) == 1
        assert isinstance(decoded[0], AppendRows)
        np.testing.assert_array_equal(decoded[0].patterns[0], [0, 2, 5])

    def test_delta_batch_preserves_order(self):
        from repro.core.incremental import (
            AppendRows,
            DeleteCols,
            delta_to_payload,
        )

        deltas = [AppendRows([np.array([1])]), DeleteCols([0, 3])]
        decoded = decode_update_request(
            {"deltas": [delta_to_payload(d) for d in deltas]}
        )
        assert [type(d) for d in decoded] == [AppendRows, DeleteCols]
        np.testing.assert_array_equal(decoded[1].positions, [0, 3])

    def test_block_round_trips_through_request(self):
        from repro.core.incremental import BlockUpdate, delta_to_payload

        block = BlockUpdate(2, 3, np.array([[1, 0], [0, 1]]))
        (decoded,) = decode_update_request(
            {"delta": delta_to_payload(block)}
        )
        assert (decoded.row_start, decoded.col_start) == (2, 3)
        np.testing.assert_array_equal(decoded.pattern, block.pattern)

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"delta": {"kind": "append_rows"}, "deltas": []},
            {"deltas": []},
            {"deltas": "nope"},
            {"delta": {"kind": "no_such_kind"}},
            {"delta": "not an object"},
            {"deltas": [{"kind": "delete_rows", "positions": "x"}]},
        ],
    )
    def test_malformed_update_raises(self, payload):
        with pytest.raises(ProtocolError):
            decode_update_request(payload)

    def test_malformed_delta_error_names_position(self):
        from repro.core.incremental import AppendRows, delta_to_payload

        good = delta_to_payload(AppendRows([np.array([1])]))
        with pytest.raises(ProtocolError, match="delta 1"):
            decode_update_request({"deltas": [good, {"kind": "bogus"}]})
