"""Count-space kernels: parity with the dense einsum and scalar oracles.

The count-space representation (:class:`CountFactor`,
:class:`StackedCountFactorBatch`) must evaluate exactly the sum–product
expression the dense ``(2,)**arity`` table encodes — at every arity the
dense path can still reach, the three implementations (stacked count
kernel, stacked dense einsum on the dense view, scalar
``Factor.message_to`` / ``CountFactor.message_to``) have to agree to
``1e-12`` — while running structures the dense path cannot represent at
all (arity 40+, where ``2**arity`` memory is impossible).
"""

import numpy as np
import pytest

from repro.constants import COUNT_KERNEL_MIN_ARITY, MAX_COMPILED_ARITY
from repro.core.feedback import FeedbackKind, feedback_count_values
from repro.exceptions import FactorGraphError, FactorShapeError
from repro.factorgraph.compiled import (
    StackedCountFactorBatch,
    StackedFactorBatch,
)
from repro.factorgraph.factors import CountFactor, Factor
from repro.factorgraph.variables import BinaryVariable

PARITY = 1e-12


def _variables(arity):
    return [BinaryVariable(f"x{i}") for i in range(arity)]


def _count_factor(arity, kind=FeedbackKind.POSITIVE, delta=0.1, name="f"):
    return CountFactor(
        name, _variables(arity), feedback_count_values(kind, delta, arity)
    )


def _messages(arity, seed=0, zero_slot=None):
    rng = np.random.default_rng(seed)
    messages = rng.random((arity, 2))
    if zero_slot is not None:
        messages[zero_slot, 0] = 0.0
    return messages / messages.sum(axis=1, keepdims=True)


def _one_slice(rows):
    """A ``(1, size, ...)`` one-slice stack of per-factor rows."""
    return np.stack(rows)[None]


class TestThreeWayParity:
    """stacked count kernel vs stacked dense einsum vs scalar oracle,
    ≤ 1e-12."""

    @pytest.mark.parametrize("arity", [3, 8])
    @pytest.mark.parametrize(
        "kind", [FeedbackKind.POSITIVE, FeedbackKind.NEGATIVE]
    )
    def test_small_arities_all_targets(self, arity, kind):
        count_factor = _count_factor(arity, kind)
        dense_factor = Factor("f", count_factor.variables, count_factor.table)
        count_batch = StackedCountFactorBatch(
            _one_slice([count_factor.count_values] * 2)
        )
        dense_batch = StackedFactorBatch(_one_slice([dense_factor.table] * 2))
        messages = _messages(arity, seed=arity, zero_slot=0)
        incoming = [
            _one_slice([messages[s], messages[(s + 1) % arity]])
            for s in range(arity)
        ]
        for target in range(arity):
            from_count = count_batch.messages_toward(target, incoming)[0]
            from_dense = dense_batch.messages_toward(target, incoming)[0]
            assert np.abs(from_count - from_dense).max() <= PARITY
            # the scalar oracle, row 0 of the batch
            scalar = dense_factor.message_to(
                f"x{target}",
                {
                    f"x{s}": messages[s]
                    for s in range(arity)
                    if s != target
                },
            )
            assert np.abs(from_count[0] - scalar).max() <= PARITY
            # CountFactor.message_to is the loops oracle's path for long
            # structures; it must agree with its own dense view too.
            from_count_scalar = count_factor.message_to(
                f"x{target}",
                {
                    f"x{s}": messages[s]
                    for s in range(arity)
                    if s != target
                },
            )
            assert np.abs(from_count_scalar - scalar).max() <= PARITY

    def test_arity_25_at_the_dense_limit(self):
        # 25 is the largest arity the dense path can represent at all
        # (MAX_COMPILED_ARITY einsum letters, a 2**25-entry table); one
        # three-way check pins the agreement right at the cliff edge.
        arity = MAX_COMPILED_ARITY
        count_factor = _count_factor(arity, FeedbackKind.NEGATIVE)
        messages = _messages(arity, seed=25, zero_slot=3)
        incoming_map = {f"x{s}": messages[s] for s in range(1, arity)}
        from_count = count_factor.message_to("x0", incoming_map)
        dense_factor = Factor("f", count_factor.variables, count_factor.table)
        from_dense_scalar = dense_factor.message_to("x0", incoming_map)
        assert np.abs(from_count - from_dense_scalar).max() <= PARITY
        from_batch = StackedCountFactorBatch(
            _one_slice([count_factor.count_values])
        ).messages_toward(
            0, [None] + [messages[s][None, None] for s in range(1, arity)]
        )
        assert np.abs(from_batch[0, 0] - from_dense_scalar).max() <= PARITY

    def test_stacked_kernel_matches_per_stack_evaluation(self):
        arity = 8
        positive = _count_factor(arity, FeedbackKind.POSITIVE)
        negative = _count_factor(arity, FeedbackKind.NEGATIVE)
        tables = np.stack(
            [
                np.stack([positive.count_values, negative.count_values]),
                np.stack([negative.count_values, positive.count_values]),
            ]
        )
        stacked = StackedCountFactorBatch(tables)
        assert stacked.stack == 2 and stacked.size == 2
        messages = _messages(arity, seed=7)
        incoming = [
            np.stack(
                [
                    np.stack([messages[s], messages[(s + 1) % arity]]),
                    np.stack([messages[(s + 2) % arity], messages[s]]),
                ]
            )
            for s in range(arity)
        ]
        for target in range(arity):
            result = stacked.messages_toward(target, incoming)
            for element in range(2):
                for row in range(2):
                    scalar = CountFactor(
                        "f", _variables(arity), tables[element, row]
                    ).message_to(
                        f"x{target}",
                        {
                            f"x{s}": incoming[s][element, row]
                            for s in range(arity)
                            if s != target
                        },
                    )
                    assert (
                        np.abs(result[element, row] - scalar).max() <= PARITY
                    )

    def test_exact_zero_messages_are_safe(self):
        # The feedback CPTs contain exact zeros and so can the messages;
        # the count recurrences must not divide by them.
        arity = 6
        count_factor = _count_factor(arity, FeedbackKind.POSITIVE)
        dense_factor = Factor("f", count_factor.variables, count_factor.table)
        messages = _messages(arity, seed=3)
        messages[1] = [0.0, 1.0]
        messages[2] = [1.0, 0.0]
        incoming_map = {f"x{s}": messages[s] for s in range(1, arity)}
        from_count = count_factor.message_to("x0", incoming_map)
        from_dense = dense_factor.message_to("x0", incoming_map)
        assert np.isfinite(from_count).all()
        assert np.abs(from_count - from_dense).max() <= PARITY


class TestCountFactor:
    def test_dense_view_matches_count_values(self):
        factor = _count_factor(4, FeedbackKind.POSITIVE, delta=0.25)
        table = factor.table
        assert table.shape == (2,) * 4
        counts = np.indices((2,) * 4).sum(axis=0)
        assert np.array_equal(table, factor.count_values[counts])

    def test_dense_view_blocked_beyond_the_compiled_limit(self):
        factor = _count_factor(MAX_COMPILED_ARITY + 15)
        with pytest.raises(FactorShapeError, match="count-space"):
            factor.table
        # ... and nothing was cached along the way.
        assert factor._dense_table is None

    def test_value_counts_incorrect_states(self):
        factor = _count_factor(3, FeedbackKind.POSITIVE, delta=0.2)
        assignment = {"x0": "correct", "x1": "incorrect", "x2": "incorrect"}
        assert factor.value(assignment) == pytest.approx(0.2)

    def test_rejects_non_constant_tail(self):
        values = np.array([1.0, 0.0, 0.1, 0.2, 0.1])
        with pytest.raises(FactorShapeError, match="constant tail"):
            CountFactor("f", _variables(4), values)

    def test_rejects_non_binary_variables(self):
        from repro.factorgraph.variables import DiscreteVariable

        ternary = DiscreteVariable("t", ("a", "b", "c"))
        with pytest.raises(FactorShapeError, match="binary"):
            CountFactor("f", [ternary], np.array([1.0, 0.5]))


class TestKernelValidation:
    def test_count_batch_requires_count_factors(self):
        # Dense (2,)*arity tables are not count-value vectors: the count
        # kernel takes (stack, factors, arity + 1) arrays only.
        with pytest.raises(FactorGraphError, match="count-table"):
            StackedCountFactorBatch(np.full((1, 1, 2, 2), 0.25))
        with pytest.raises(FactorGraphError, match="non-negative"):
            StackedCountFactorBatch(np.array([[[1.0, -0.5, 0.2]]]))

    @pytest.mark.parametrize("slots", [0, 1])
    def test_count_batch_rejects_fewer_than_two_slots(self, slots):
        # The two-mapping floor of every structure: a count table over
        # fewer than two slots has no operand to sweep.
        with pytest.raises(FactorGraphError, match="at least two slots"):
            StackedCountFactorBatch(np.ones((1, 1, slots + 1)))

    def test_stacked_batch_rejects_non_constant_tail(self):
        tables = np.array([[[1.0, 0.0, 0.1, 0.2, 0.1]]])
        with pytest.raises(FactorGraphError, match="constant tail"):
            StackedCountFactorBatch(tables)

    def test_dense_batch_still_capped_at_the_unified_limit(self):
        # A virtual zero-stride table stack fakes one arity-26 dense factor
        # without allocating 2**26 floats; the dense kernel must reject it
        # with the constant from repro.constants.
        tables = np.broadcast_to(
            np.ones(1), (1, 1) + (2,) * (MAX_COMPILED_ARITY + 1)
        )
        with pytest.raises(FactorGraphError, match=str(MAX_COMPILED_ARITY)):
            StackedFactorBatch(tables)

    def test_arity_limit_is_unified(self):
        import repro.constants as constants
        from repro.factorgraph import compiled

        assert constants.MAX_COMPILED_ARITY == compiled.MAX_COMPILED_ARITY == 25
        assert compiled._EINSUM_LETTERS == "abcdefghijklmnopqrstuvwxy"
        assert len(compiled._EINSUM_LETTERS) == constants.MAX_COMPILED_ARITY
        assert 2 <= constants.COUNT_KERNEL_MIN_ARITY <= constants.MAX_COMPILED_ARITY
