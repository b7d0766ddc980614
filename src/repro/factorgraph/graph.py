"""Factor-graph container.

A factor graph is a bipartite graph linking variables to the factors that
span them (Kschischang et al., 2001).  This module provides the container
used both for the *global* PDMS factor graph (paper §3.2–3.3) and for the
*local* per-peer fragments (§4.1).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import networkx as nx

from ..exceptions import FactorGraphError
from .factors import Factor
from .variables import DiscreteVariable

__all__ = ["FactorGraph"]


class FactorGraph:
    """A mutable bipartite graph of discrete variables and table factors.

    Variables and factors are addressed by name.  Factors may only be added
    after all the variables they span are present, which keeps the graph
    consistent by construction.
    """

    def __init__(self, name: str = "factor-graph") -> None:
        self.name = name
        self._variables: Dict[str, DiscreteVariable] = {}
        self._factors: Dict[str, Factor] = {}
        # variable name -> set of factor names, factor name -> tuple of
        # variable names.  Kept redundantly for O(1) neighbourhood queries.
        self._variable_neighbors: Dict[str, List[str]] = {}

    # -- construction --------------------------------------------------------

    def add_variable(self, variable: DiscreteVariable) -> DiscreteVariable:
        """Add ``variable`` to the graph (idempotent for identical domains)."""
        existing = self._variables.get(variable.name)
        if existing is not None:
            if existing.domain != variable.domain:
                raise FactorGraphError(
                    f"variable {variable.name!r} already exists with a "
                    f"different domain"
                )
            return existing
        self._variables[variable.name] = variable
        self._variable_neighbors[variable.name] = []
        return variable

    def add_factor(self, factor: Factor) -> Factor:
        """Add ``factor``; all its variables must already be in the graph."""
        if factor.name in self._factors:
            raise FactorGraphError(f"factor {factor.name!r} already exists")
        for variable in factor.variables:
            if variable.name not in self._variables:
                raise FactorGraphError(
                    f"factor {factor.name!r} references unknown variable "
                    f"{variable.name!r}; add variables first"
                )
            existing = self._variables[variable.name]
            if existing.domain != variable.domain:
                raise FactorGraphError(
                    f"factor {factor.name!r} disagrees on the domain of "
                    f"variable {variable.name!r}"
                )
        self._factors[factor.name] = factor
        for variable in factor.variables:
            self._variable_neighbors[variable.name].append(factor.name)
        return factor

    # -- lookups --------------------------------------------------------------

    @property
    def variables(self) -> Tuple[DiscreteVariable, ...]:
        """All variables, in insertion order."""
        return tuple(self._variables.values())

    @property
    def factors(self) -> Tuple[Factor, ...]:
        """All factors, in insertion order."""
        return tuple(self._factors.values())

    @property
    def variable_names(self) -> Tuple[str, ...]:
        return tuple(self._variables)

    @property
    def factor_names(self) -> Tuple[str, ...]:
        return tuple(self._factors)

    def variable(self, name: str) -> DiscreteVariable:
        """Return the variable called ``name``."""
        try:
            return self._variables[name]
        except KeyError:
            raise FactorGraphError(f"unknown variable {name!r}") from None

    def factor(self, name: str) -> Factor:
        """Return the factor called ``name``."""
        try:
            return self._factors[name]
        except KeyError:
            raise FactorGraphError(f"unknown factor {name!r}") from None

    def has_variable(self, name: str) -> bool:
        return name in self._variables

    def factors_of(self, variable_name: str) -> Tuple[Factor, ...]:
        """Factors neighbouring ``variable_name``."""
        if variable_name not in self._variables:
            raise FactorGraphError(f"unknown variable {variable_name!r}")
        return tuple(
            self._factors[fname] for fname in self._variable_neighbors[variable_name]
        )

    def degree(self, variable_name: str) -> int:
        """Number of factors attached to ``variable_name``."""
        return len(self.factors_of(variable_name))

    # -- structural analysis ---------------------------------------------------

    def to_networkx(self) -> nx.Graph:
        """Export the bipartite structure as a :class:`networkx.Graph`.

        Variable nodes carry ``kind='variable'``, factor nodes
        ``kind='factor'``.  Node names are prefixed to avoid collisions.
        """
        graph = nx.Graph(name=self.name)
        for variable in self._variables.values():
            graph.add_node(("var", variable.name), kind="variable")
        for factor in self._factors.values():
            graph.add_node(("fac", factor.name), kind="factor")
            for variable in factor.variables:
                graph.add_edge(("fac", factor.name), ("var", variable.name))
        return graph

    def is_tree(self) -> bool:
        """``True`` when the factor graph is cycle-free.

        On trees the sum–product algorithm is exact and terminates after a
        number of iterations bounded by the graph diameter (paper §4.3).
        """
        graph = self.to_networkx()
        if graph.number_of_nodes() == 0:
            return True
        return nx.number_of_edges(graph) == nx.number_of_nodes(graph) - len(
            list(nx.connected_components(graph))
        )

    def edge_count(self) -> int:
        """Number of variable–factor edges (each carries two BP messages)."""
        return sum(factor.arity for factor in self._factors.values())

    def validate(self) -> None:
        """Check internal consistency; raises :class:`FactorGraphError`."""
        for factor in self._factors.values():
            for variable in factor.variables:
                if variable.name not in self._variables:
                    raise FactorGraphError(
                        f"factor {factor.name!r} references unknown variable "
                        f"{variable.name!r}"
                    )
        for vname, fnames in self._variable_neighbors.items():
            for fname in fnames:
                if vname not in self._factors[fname].variable_names:
                    raise FactorGraphError(
                        f"inconsistent adjacency between {vname!r} and {fname!r}"
                    )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FactorGraph({self.name!r}, variables={len(self._variables)}, "
            f"factors={len(self._factors)})"
        )
