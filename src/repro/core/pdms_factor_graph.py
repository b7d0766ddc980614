"""Building PDMS factor graphs from feedback evidence.

Following §3.2/§3.3, the global factor graph for one attribute contains

* one binary correctness variable per mapping that appears in at least one
  informative feedback (mappings without any evidence keep their prior and
  need no inference),
* one unary prior factor per such variable, and
* one feedback factor per informative (positive or negative) feedback,
  linking all the mapping variables of that cycle / pair of parallel paths.

The same builder also serves the *local* per-peer fragments (§4.1): a peer
simply passes the subset of feedbacks it knows about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping as TMapping, Optional, Sequence, Tuple

from ..exceptions import FactorGraphError, FeedbackError
from ..factorgraph.factors import prior_factor
from ..factorgraph.graph import FactorGraph
from ..factorgraph.variables import BinaryVariable
from .analysis import NetworkEvidence
from .beliefs import PriorBeliefStore
from .feedback import Feedback, feedback_factor

__all__ = ["PDMSFactorGraph", "build_factor_graph", "variable_name_for"]


def variable_name_for(mapping_name: str, attribute: str) -> str:
    """Canonical factor-graph variable name for a (mapping, attribute) pair."""
    return f"m[{mapping_name}]@{attribute}"


@dataclass(frozen=True)
class PDMSFactorGraph:
    """A factor graph for one attribute plus its bookkeeping.

    Attributes
    ----------
    graph:
        The underlying :class:`~repro.factorgraph.graph.FactorGraph`.
    attribute:
        Attribute the graph reasons about.
    mapping_names:
        Mapping names with a correctness variable in the graph, in insertion
        order.
    delta:
        Error-compensation probability used in all feedback factors.
    """

    graph: FactorGraph
    attribute: str
    mapping_names: Tuple[str, ...]
    delta: float

    def variable_name(self, mapping_name: str) -> str:
        """Variable name of ``mapping_name`` (must be part of the graph)."""
        name = variable_name_for(mapping_name, self.attribute)
        if not self.graph.has_variable(name):
            raise FactorGraphError(
                f"mapping {mapping_name!r} has no variable in this factor graph"
            )
        return name

    def has_mapping(self, mapping_name: str) -> bool:
        return self.graph.has_variable(variable_name_for(mapping_name, self.attribute))


def build_factor_graph(
    feedbacks: Iterable[Feedback],
    priors: PriorBeliefStore | TMapping[str, float] | float | None = None,
    delta: float = 0.1,
    attribute: Optional[str] = None,
    name: str = "pdms-factor-graph",
) -> PDMSFactorGraph:
    """Build the factor graph encoding a set of feedbacks.

    Parameters
    ----------
    feedbacks:
        Feedback evidence; neutral feedbacks are ignored (they carry no
        factor).  All feedbacks must concern the same attribute.
    priors:
        Prior beliefs, given either as a :class:`PriorBeliefStore`, a plain
        ``{mapping name: prior}`` dict, a single float applied to every
        mapping, or ``None`` for the maximum-entropy default of 0.5.
    delta:
        Error-compensation probability Δ.
    attribute:
        Attribute the graph is about; inferred from the feedbacks when
        omitted.
    """
    informative = [f for f in feedbacks if f.is_informative]
    if not informative:
        raise FeedbackError(
            "cannot build a factor graph without at least one informative "
            "(positive or negative) feedback"
        )
    attributes = {f.attribute for f in informative}
    if attribute is None:
        if len(attributes) != 1:
            raise FeedbackError(
                f"feedbacks concern several attributes {sorted(attributes)}; "
                "build one factor graph per attribute (fine granularity)"
            )
        attribute = next(iter(attributes))
    else:
        mismatched = attributes - {attribute}
        if mismatched:
            raise FeedbackError(
                f"feedbacks concern attributes {sorted(mismatched)} but the "
                f"graph is being built for {attribute!r}"
            )
    if not 0.0 <= delta <= 1.0:
        raise FeedbackError(f"Δ must be in [0, 1], got {delta}")

    graph = FactorGraph(name=f"{name}@{attribute}")
    mapping_names: List[str] = []
    variables: Dict[str, BinaryVariable] = {}

    def prior_for(mapping_name: str) -> float:
        if priors is None:
            return 0.5
        if isinstance(priors, PriorBeliefStore):
            return priors.prior(mapping_name, attribute)
        if isinstance(priors, (int, float)):
            return float(priors)
        return float(priors.get(mapping_name, 0.5))

    # Variables and prior factors (top two layers of the paper's figures).
    for feedback in informative:
        for mapping_name in feedback.mapping_names:
            if mapping_name in variables:
                continue
            variable = BinaryVariable(variable_name_for(mapping_name, attribute))
            variables[mapping_name] = variable
            mapping_names.append(mapping_name)
            graph.add_variable(variable)
            graph.add_factor(
                prior_factor(variable, prior_for(mapping_name))
            )

    # Feedback factors (bottom two layers).
    for feedback in informative:
        factor_variables = [variables[name] for name in feedback.mapping_names]
        graph.add_factor(feedback_factor(feedback, delta, factor_variables))

    return PDMSFactorGraph(
        graph=graph,
        attribute=attribute,
        mapping_names=tuple(mapping_names),
        delta=delta,
    )


def build_factor_graph_from_evidence(
    evidence: NetworkEvidence,
    priors: PriorBeliefStore | TMapping[str, float] | float | None = None,
    delta: float = 0.1,
    name: str = "pdms-factor-graph",
) -> PDMSFactorGraph:
    """Convenience wrapper building the graph straight from
    :class:`~repro.core.analysis.NetworkEvidence`."""
    return build_factor_graph(
        evidence.feedbacks,
        priors=priors,
        delta=delta,
        attribute=evidence.attribute,
        name=name,
    )
