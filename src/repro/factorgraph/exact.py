"""Exact inference by exhaustive enumeration.

The paper compares its decentralised, iterative estimates against "a global
inference process" (Figure 9).  For the graph sizes involved (a handful of
mapping variables per neighbourhood) brute-force enumeration over all joint
assignments is perfectly adequate and trivially correct, which makes it the
right reference implementation to measure the loopy approximation against.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable

import numpy as np

from ..exceptions import InferenceError
from .graph import FactorGraph
from .messages import normalize

__all__ = ["exact_marginals"]

#: Safety cap — enumeration over more than this many joint assignments is
#: almost certainly a mistake (the global PDMS graph should be handled by
#: the embedded message passing instead).
_MAX_ASSIGNMENTS = 2 ** 22


def _joint_assignments(graph: FactorGraph) -> Iterable[Dict[str, str]]:
    variables = graph.variables
    domains = [variable.domain for variable in variables]
    total = 1
    for domain in domains:
        total *= len(domain)
    if total > _MAX_ASSIGNMENTS:
        raise InferenceError(
            f"exact inference over {total} joint assignments is not tractable; "
            "use the iterative sum-product engine instead"
        )
    for states in itertools.product(*domains):
        yield {variable.name: state for variable, state in zip(variables, states)}


def exact_marginals(graph: FactorGraph) -> Dict[str, np.ndarray]:
    """Exact marginal distribution of every variable in ``graph``.

    Returns a map ``variable name -> normalised vector over its domain``.
    Raises :class:`InferenceError` when the total probability mass is zero
    (contradictory hard evidence).
    """
    variables = graph.variables
    totals = {
        variable.name: np.zeros(variable.cardinality) for variable in variables
    }
    mass = 0.0
    for assignment in _joint_assignments(graph):
        weight = 1.0
        for factor in graph.factors:
            weight *= factor.value(assignment)
            # Exact zeros again: structural vetoes short-circuit the sum.
            if weight == 0.0:  # lint: disable=numeric-float-equality
                break
        if weight == 0.0:  # lint: disable=numeric-float-equality
            continue
        mass += weight
        for variable in variables:
            totals[variable.name][variable.index_of(assignment[variable.name])] += weight
    if mass <= 0.0:
        raise InferenceError(
            "the factor graph assigns zero probability to every assignment "
            "(contradictory evidence)"
        )
    return {name: normalize(vector) for name, vector in totals.items()}
