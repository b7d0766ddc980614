"""Dense table factors over discrete variables.

A factor is a non-negative function over the joint domain of a small set of
discrete variables.  PDMS factor graphs contain two kinds of factors
(paper §3.2–3.3):

* *prior factors* — unary factors holding the peer's prior belief that a
  mapping is correct, and
* *feedback factors* — factors connecting all mapping variables of a cycle
  or a pair of parallel paths, parameterised by the observed feedback and
  the error-compensation probability Δ.

The feedback CPT builders live in :mod:`repro.core.feedback`; this module
only provides the generic table machinery.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Mapping, Sequence, Tuple

import numpy as np

from ..constants import MAX_COMPILED_ARITY
from ..exceptions import FactorShapeError, VariableDomainError
from .variables import CORRECT, INCORRECT, DiscreteVariable

__all__ = [
    "Factor",
    "CountFactor",
    "prior_factor",
]


class Factor:
    """A dense, non-negative table over an ordered tuple of variables.

    Parameters
    ----------
    name:
        Unique factor name inside a graph.
    variables:
        Ordered variables the factor spans; the table's axes follow this
        order.
    table:
        ``numpy`` array of shape ``tuple(v.cardinality for v in variables)``.
        Values must be non-negative and not all zero.
    """

    def __init__(
        self,
        name: str,
        variables: Sequence[DiscreteVariable],
        table: np.ndarray,
    ) -> None:
        if not name:
            raise FactorShapeError("factor name must be non-empty")
        variables = tuple(variables)
        if len({v.name for v in variables}) != len(variables):
            raise FactorShapeError(
                f"factor {name!r} references a variable twice: "
                f"{[v.name for v in variables]}"
            )
        table = np.asarray(table, dtype=float)
        expected_shape = tuple(v.cardinality for v in variables)
        if table.shape != expected_shape:
            raise FactorShapeError(
                f"factor {name!r}: table shape {table.shape} does not match "
                f"variable cardinalities {expected_shape}"
            )
        if np.any(table < 0):
            raise FactorShapeError(f"factor {name!r} has negative entries")
        if not np.any(table > 0):
            raise FactorShapeError(f"factor {name!r} is identically zero")
        self.name = name
        self.variables: Tuple[DiscreteVariable, ...] = variables
        self.table = table
        self._variable_names: Tuple[str, ...] = tuple(v.name for v in variables)
        self._variable_name_set = frozenset(self._variable_names)

    # -- introspection ------------------------------------------------------

    @property
    def variable_names(self) -> Tuple[str, ...]:
        """Names of the variables the factor spans, in axis order."""
        return self._variable_names

    @property
    def arity(self) -> int:
        """Number of variables the factor spans."""
        return len(self.variables)

    def axis_of(self, variable_name: str) -> int:
        """Return the table axis corresponding to ``variable_name``."""
        for axis, variable in enumerate(self.variables):
            if variable.name == variable_name:
                return axis
        raise VariableDomainError(
            f"factor {self.name!r} does not span variable {variable_name!r}"
        )

    def value(self, assignment: Mapping[str, str]) -> float:
        """Evaluate the factor at a joint assignment given by state labels."""
        index = []
        for variable in self.variables:
            if variable.name not in assignment:
                raise VariableDomainError(
                    f"assignment is missing variable {variable.name!r} "
                    f"required by factor {self.name!r}"
                )
            index.append(variable.index_of(assignment[variable.name]))
        return float(self.table[tuple(index)])

    def assignments(self) -> Iterable[Dict[str, str]]:
        """Iterate over every joint assignment of the factor's variables."""
        domains = [variable.domain for variable in self.variables]
        for states in itertools.product(*domains):
            yield {
                variable.name: state
                for variable, state in zip(self.variables, states)
            }

    # -- message-passing primitives ----------------------------------------

    def message_to(
        self, variable_name: str, incoming: Mapping[str, np.ndarray]
    ) -> np.ndarray:
        """Compute the sum–product message from this factor to a variable.

        ``incoming`` maps each *other* neighbouring variable name to the
        variable→factor message (a vector over that variable's domain).
        Missing entries are treated as unit (uninformative) messages, which
        is exactly the initialisation the paper prescribes for the embedded
        decentralised schedule (§4.3).  Keys naming variables the factor does
        *not* span raise :class:`VariableDomainError` — a silently ignored
        entry is almost always a misspelled mapping name.
        """
        target_axis = self.axis_of(variable_name)
        unknown = incoming.keys() - self._variable_name_set
        if unknown:
            raise VariableDomainError(
                f"factor {self.name!r} received messages for unknown "
                f"variables {sorted(unknown)!r}; it spans {self.variable_names!r}"
            )
        result = self.table.copy()
        for axis, variable in enumerate(self.variables):
            if axis == target_axis:
                continue
            message = incoming.get(variable.name)
            if message is None:
                continue
            message = np.asarray(message, dtype=float)
            if message.shape != (variable.cardinality,):
                raise FactorShapeError(
                    f"message for variable {variable.name!r} has shape "
                    f"{message.shape}, expected ({variable.cardinality},)"
                )
            shape = [1] * result.ndim
            shape[axis] = variable.cardinality
            result = result * message.reshape(shape)
        axes_to_sum = tuple(
            axis for axis in range(result.ndim) if axis != target_axis
        )
        if axes_to_sum:
            result = result.sum(axis=axes_to_sum)
        return np.asarray(result, dtype=float)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Factor({self.name!r}, variables={self.variable_names})"


class CountFactor(Factor):
    """A count-symmetric factor over binary variables, stored in count space.

    The paper's feedback CPTs depend on the joint assignment only through the
    *number* of variables in the ``incorrect`` state: ``P(f+ | k incorrect)``
    is 1 for ``k = 0``, 0 for ``k = 1`` and Δ for every ``k ≥ 2``.  Storing
    the dense ``(2,)**arity`` table therefore wastes exponential memory on
    ``arity + 1`` distinct values — and makes factors beyond
    :data:`~repro.constants.MAX_COMPILED_ARITY` (and long before that,
    beyond available memory) impossible to build at all.

    A :class:`CountFactor` stores only the count-value vector
    ``count_values[k] = f(k incorrect)`` (O(arity) memory) and evaluates the
    sum–product message in count space: with binary incoming messages
    ``m_s = (m_s[0], m_s[1])``, the coefficient of ``x**k`` in
    ``∏_{s≠target}(m_s[0] + m_s[1]·x)`` is exactly the total mass of
    assignments with ``k`` incorrect non-target variables, so

    ``µ(x_t = v) = Σ_k f(k + v) · C_k``.

    Because the tail of the feedback CPTs is constant (``f(k) = f(2)`` for
    all ``k ≥ 2``), only the truncated coefficients ``C_0``, ``C_1`` and the
    aggregated tail mass ``Σ_{k≥2} C_k`` are needed — all computable with
    prefix/suffix products in O(arity) time per message and with no
    divisions (zero-safe by construction).  The constructor enforces the
    constant-tail property; fully general count tables would need the full
    prefix/suffix coefficient convolutions and are not required by the
    paper's model.

    The dense :attr:`table` remains available as a lazily materialised view
    for arities up to :data:`~repro.constants.MAX_COMPILED_ARITY` (parity
    tests, exact inference); beyond that it raises instead of allocating
    ``2**arity`` floats.
    """

    def __init__(
        self,
        name: str,
        variables: Sequence[DiscreteVariable],
        count_values: np.ndarray,
    ) -> None:
        if not name:
            raise FactorShapeError("factor name must be non-empty")
        variables = tuple(variables)
        if not variables:
            raise FactorShapeError(f"count factor {name!r} needs at least one variable")
        if len({v.name for v in variables}) != len(variables):
            raise FactorShapeError(
                f"factor {name!r} references a variable twice: "
                f"{[v.name for v in variables]}"
            )
        for variable in variables:
            if variable.cardinality != 2:
                raise FactorShapeError(
                    f"count factor {name!r} requires binary variables, but "
                    f"{variable.name!r} has cardinality {variable.cardinality}"
                )
        count_values = np.asarray(count_values, dtype=float)
        if count_values.shape != (len(variables) + 1,):
            raise FactorShapeError(
                f"count factor {name!r}: count_values shape "
                f"{count_values.shape} does not match arity {len(variables)} "
                f"(expected ({len(variables) + 1},))"
            )
        if np.any(count_values < 0):
            raise FactorShapeError(f"factor {name!r} has negative entries")
        if not np.any(count_values > 0):
            raise FactorShapeError(f"factor {name!r} is identically zero")
        # The tail must be *bitwise* constant for the O(arity) kernels.
        if count_values.size > 3 and np.ptp(count_values[2:]) != 0.0:  # lint: disable=numeric-float-equality
            raise FactorShapeError(
                f"count factor {name!r} needs a constant tail "
                f"(f(k) identical for all k >= 2), got {count_values[2:]!r}; "
                "general count tables require the full coefficient "
                "convolution and are not supported"
            )
        self.name = name
        self.variables = variables
        self.count_values = count_values
        self._variable_names = tuple(v.name for v in variables)
        self._variable_name_set = frozenset(self._variable_names)
        self._dense_table: np.ndarray | None = None

    # -- dense-view compatibility -------------------------------------------

    @property
    def table(self) -> np.ndarray:  # type: ignore[override]
        """Dense ``(2,)**arity`` view, materialised lazily.

        Only available for arities up to
        :data:`~repro.constants.MAX_COMPILED_ARITY` — the whole point of the
        count-space representation is that longer structures never build the
        exponential table.
        """
        if self._dense_table is None:
            if self.arity > MAX_COMPILED_ARITY:
                raise FactorShapeError(
                    f"count factor {self.name!r} of arity {self.arity} does "
                    f"not materialise its dense table (2**{self.arity} "
                    f"entries); use the count-space kernels instead"
                )
            # One uint8 count tensor via broadcast sums — not the
            # arity * 2**arity int64 blow-up of np.indices.
            counts = np.zeros((2,) * self.arity, dtype=np.uint8)
            for axis in range(self.arity):
                shape = [1] * self.arity
                shape[axis] = 2
                counts += np.arange(2, dtype=np.uint8).reshape(shape)
            self._dense_table = self.count_values[counts]
        return self._dense_table

    def value(self, assignment: Mapping[str, str]) -> float:
        """Evaluate at a joint assignment — O(arity), no dense table."""
        incorrect = 0
        for variable in self.variables:
            if variable.name not in assignment:
                raise VariableDomainError(
                    f"assignment is missing variable {variable.name!r} "
                    f"required by factor {self.name!r}"
                )
            incorrect += variable.index_of(assignment[variable.name])
        return float(self.count_values[incorrect])

    # -- message-passing primitives -----------------------------------------

    def message_to(
        self, variable_name: str, incoming: Mapping[str, np.ndarray]
    ) -> np.ndarray:
        """Count-space sum–product message (the loop-engine reference path).

        Semantically identical to :meth:`Factor.message_to` on the dense
        view — missing entries are unit messages, unknown keys raise — but
        evaluated through the truncated coefficients in O(arity) time.
        """
        target_axis = self.axis_of(variable_name)
        unknown = incoming.keys() - self._variable_name_set
        if unknown:
            raise VariableDomainError(
                f"factor {self.name!r} received messages for unknown "
                f"variables {sorted(unknown)!r}; it spans {self.variable_names!r}"
            )
        # Truncated coefficients of ∏_{s≠target}(m_s[0] + m_s[1]·x): the
        # degree-0/1 coefficients exactly, plus the aggregated mass of every
        # higher degree.  All updates are sums of products of non-negative
        # terms — no subtractions, no divisions — so exact zeros in the
        # messages are handled for free.
        coeff0, coeff1, tail_mass = 1.0, 0.0, 0.0
        for axis, variable in enumerate(self.variables):
            if axis == target_axis:
                continue
            message = incoming.get(variable.name)
            if message is None:
                low, high = 1.0, 1.0
            else:
                message = np.asarray(message, dtype=float)
                if message.shape != (2,):
                    raise FactorShapeError(
                        f"message for variable {variable.name!r} has shape "
                        f"{message.shape}, expected (2,)"
                    )
                low, high = float(message[0]), float(message[1])
            tail_mass = tail_mass * (low + high) + high * coeff1
            coeff1 = coeff1 * low + coeff0 * high
            coeff0 = coeff0 * low
        values = self.count_values
        tail = float(values[2]) if values.size > 2 else 0.0
        return np.array(
            [
                values[0] * coeff0 + values[1] * coeff1 + tail * tail_mass,
                values[1] * coeff0 + tail * (coeff1 + tail_mass),
            ]
        )


def prior_factor(
    variable: DiscreteVariable, probability_correct: float, name: str | None = None
) -> Factor:
    """Build the unary prior factor for a mapping-correctness variable.

    ``probability_correct`` is the peer's prior belief that the mapping is
    correct; the paper seeds it at 0.5 when nothing is known (maximum
    entropy, §4.4) and lets domain experts pin it at 1.0 for validated
    mappings.
    """
    if not 0.0 <= probability_correct <= 1.0:
        raise FactorShapeError(
            f"prior probability must be in [0, 1], got {probability_correct}"
        )
    if variable.domain != (CORRECT, INCORRECT):
        raise FactorShapeError(
            f"prior_factor expects a binary correctness variable, got domain "
            f"{variable.domain!r}"
        )
    table = np.array([probability_correct, 1.0 - probability_correct])
    # A hard 0/1 prior would annihilate all other evidence and can produce
    # all-zero products in degenerate graphs; nudge it by a tiny epsilon.
    epsilon = 1e-9
    table = np.clip(table, epsilon, 1.0)
    return Factor(name or f"prior({variable.name})", (variable,), table)
