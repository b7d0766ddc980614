"""Unit tests for the compiled kernels of the lane engine.

The stacked kernels (see ``repro/factorgraph/compiled.py``) must evaluate,
per stack element and factor, exactly the sum–product expression the
scalar :meth:`Factor.message_to` oracle evaluates; the segment and
normalisation kernels must treat every slice of a batched stack
independently.
"""

import numpy as np
import pytest

from repro.exceptions import FactorGraphError, FactorShapeError
from repro.factorgraph.compiled import (
    StackedFactorBatch,
    normalize_rows,
    segment_exclusive_products,
    segment_products,
)
from repro.factorgraph.factors import Factor
from repro.factorgraph.variables import BinaryVariable


class TestNormalizeRows:
    def test_rows_sum_to_one(self):
        matrix = np.array([[2.0, 2.0], [1.0, 3.0]])
        normalized = normalize_rows(matrix)
        assert normalized.sum(axis=1) == pytest.approx([1.0, 1.0])

    def test_zero_row_becomes_uniform(self):
        matrix = np.array([[0.0, 0.0], [1.0, 1.0]])
        normalized = normalize_rows(matrix)
        assert normalized[0] == pytest.approx([0.5, 0.5])
        assert normalized[1] == pytest.approx([0.5, 0.5])

    def test_batched_stack_normalizes_per_slice(self):
        rng = np.random.default_rng(3)
        stacked = rng.uniform(0.0, 1.0, size=(4, 6, 2))
        stacked[1, 2] = 0.0  # a zero vector inside one slice
        normalized = normalize_rows(stacked)
        assert normalized.shape == stacked.shape
        assert normalized.sum(axis=-1) == pytest.approx(np.ones((4, 6)))
        for index in range(stacked.shape[0]):
            assert normalized[index] == pytest.approx(
                normalize_rows(stacked[index]), abs=1e-15
            )


class TestBatchedSegmentKernels:
    """The segment kernels accept a leading batch axis per slice."""

    def _layout(self):
        segment_of_row = np.array([0, 0, 0, 1, 1, 2], dtype=np.int64)
        segment_starts = np.array([0, 3, 5], dtype=np.int64)
        return segment_starts, segment_of_row

    def test_segment_products_match_per_slice(self):
        starts, _ = self._layout()
        rng = np.random.default_rng(7)
        stacked = rng.uniform(0.1, 1.0, size=(5, 6, 2))
        batched = segment_products(stacked, starts)
        assert batched.shape == (5, 3, 2)
        for index in range(stacked.shape[0]):
            assert batched[index] == pytest.approx(
                segment_products(stacked[index], starts), abs=1e-15
            )

    def test_segment_exclusive_products_match_per_slice(self):
        starts, segment_of_row = self._layout()
        rng = np.random.default_rng(11)
        stacked = rng.uniform(0.1, 1.0, size=(5, 6, 2))
        stacked[2, 1, 0] = 0.0  # exercise the zero-aware path in one slice
        batched = segment_exclusive_products(stacked, starts, segment_of_row)
        assert batched.shape == stacked.shape
        for index in range(stacked.shape[0]):
            assert batched[index] == pytest.approx(
                segment_exclusive_products(stacked[index], starts, segment_of_row),
                abs=1e-15,
            )


class TestStackedFactorBatch:
    def test_matches_scalar_message_to(self):
        """Every (stack element, factor) reproduces the scalar oracle."""
        variables = [BinaryVariable(n) for n in "xyz"]
        names = [variable.name for variable in variables]
        rng = np.random.default_rng(0)
        tables = rng.uniform(0.1, 1.0, size=(3, 4, 2, 2, 2))
        stacked = StackedFactorBatch(tables)
        incoming = [rng.uniform(0.1, 1.0, size=(3, 4, 2)) for _ in range(3)]
        for target, name in enumerate(names):
            out = stacked.messages_toward(target, incoming)
            assert out.shape == (3, 4, 2)
            for index in range(3):
                for row in range(4):
                    scalar = Factor(
                        "f", variables, tables[index, row]
                    ).message_to(
                        name,
                        {
                            other: incoming[slot][index, row]
                            for slot, other in enumerate(names)
                            if slot != target
                        },
                    )
                    assert out[index, row] == pytest.approx(scalar, abs=1e-12)

    def test_rejects_flat_tables_and_bad_shapes(self):
        with pytest.raises(FactorGraphError):
            StackedFactorBatch(np.ones((2, 2)))
        stacked = StackedFactorBatch(np.ones((2, 3, 2, 2)))
        with pytest.raises(FactorShapeError):
            stacked.messages_toward(0, [None, np.ones((2, 2, 2))])
        with pytest.raises(FactorShapeError):
            stacked.messages_toward(1, [None, None])
        with pytest.raises(FactorGraphError):
            stacked.messages_toward(5, [None, np.ones((2, 3, 2))])
