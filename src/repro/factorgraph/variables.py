"""Random variables used in PDMS factor graphs.

The paper models the per-attribute correctness of every schema mapping as a
binary random variable with states ``correct`` and ``incorrect``.  The
factor-graph engine is written against a small, generic
:class:`DiscreteVariable` abstraction so that it can also host feedback
variables or any other discrete quantity, but the binary case is the one the
rest of the library uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from ..exceptions import VariableDomainError

__all__ = [
    "CORRECT",
    "INCORRECT",
    "BINARY_DOMAIN",
    "DiscreteVariable",
    "BinaryVariable",
]

#: Canonical state labels for mapping-correctness variables.
CORRECT = "correct"
INCORRECT = "incorrect"

#: Domain of a mapping-correctness variable.  Index 0 is ``correct`` so that
#: marginal vectors read naturally as ``[P(correct), P(incorrect)]``.
BINARY_DOMAIN: Tuple[str, str] = (CORRECT, INCORRECT)


@dataclass(frozen=True)
class DiscreteVariable:
    """A named discrete random variable with an explicit domain.

    Parameters
    ----------
    name:
        Unique name of the variable inside a factor graph.
    domain:
        Ordered tuple of state labels.  The ordering defines the axis
        layout of every factor table that spans this variable.
    """

    name: str
    domain: Tuple[str, ...] = field(default=BINARY_DOMAIN)

    def __post_init__(self) -> None:
        if not self.name:
            raise VariableDomainError("variable name must be non-empty")
        if len(self.domain) < 2:
            raise VariableDomainError(
                f"variable {self.name!r} needs at least two states, "
                f"got {self.domain!r}"
            )
        if len(set(self.domain)) != len(self.domain):
            raise VariableDomainError(
                f"variable {self.name!r} has duplicate states: {self.domain!r}"
            )

    @property
    def cardinality(self) -> int:
        """Number of states in the variable's domain."""
        return len(self.domain)

    def index_of(self, state: str) -> int:
        """Return the axis index of ``state`` in the variable's domain."""
        try:
            return self.domain.index(state)
        except ValueError:
            raise VariableDomainError(
                f"state {state!r} is not in the domain of {self.name!r}: "
                f"{self.domain!r}"
            ) from None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


class BinaryVariable(DiscreteVariable):
    """A mapping-correctness variable with the canonical binary domain."""

    def __init__(self, name: str) -> None:
        super().__init__(name=name, domain=BINARY_DOMAIN)
