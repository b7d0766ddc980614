"""Quality-aware query routing.

The paper's per-hop forwarding rule (§2): a query is pushed through a
mapping only when, for *every* attribute the query references, the
probability that the mapping preserves that attribute exceeds the
per-attribute semantic threshold θ.  With no quality information every
probability defaults to 1.0, which degenerates to standard PDMS flooding —
that is the baseline the introductory example compares against.

The router is deliberately independent of the inference machinery: it
receives the per-(mapping, attribute) probabilities through a
``QualityOracle`` callable, which in practice is
:meth:`repro.core.quality.MappingQualityAssessor.probability`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping as TMapping, Optional, Tuple

from ..exceptions import RoutingError, UnknownPeerError
from ..mapping.mapping import Mapping
from ..schema.instances import Record
from .network import PDMSNetwork
from .query import OperationKind, Query
from .reformulation import reformulate
from .trace import HopRecord, PeerAnswer, QueryTrace

__all__ = ["QualityOracle", "RoutingPolicy", "QueryRouter", "execute_locally"]

#: Signature of the quality oracle: (mapping, attribute) -> P(attribute preserved).
QualityOracle = Callable[[Mapping, str], float]


def _default_oracle(mapping: Mapping, attribute: str) -> float:
    """Quality oracle of a standard, quality-unaware PDMS: trust everything."""
    return 1.0


@dataclass(frozen=True)
class RoutingPolicy:
    """Forwarding policy parameters.

    Parameters
    ----------
    default_threshold:
        Semantic threshold θ applied to attributes without a specific entry
        in ``attribute_thresholds``.
    attribute_thresholds:
        Per-attribute thresholds θ_ai (paper §2).
    ttl:
        Maximum number of mapping hops a query may travel.
    forward_on_partial:
        When ``False`` (paper default) a mapping that cannot translate some
        query attribute blocks forwarding entirely; when ``True`` the query
        is forwarded with the translatable subset.
    """

    default_threshold: float = 0.5
    attribute_thresholds: TMapping[str, float] = field(default_factory=dict)
    ttl: int = 10
    forward_on_partial: bool = False

    def threshold_for(self, attribute: str) -> float:
        return float(self.attribute_thresholds.get(attribute, self.default_threshold))


def execute_locally(query: Query, network: PDMSNetwork, peer_name: str) -> Tuple[Record, ...]:
    """Evaluate ``query`` against one peer's local store.

    Selections are applied conjunctively, then projections; a query with no
    projection returns the full selected records.
    """
    peer = network.peer(peer_name)
    candidates = list(peer.store.scan())
    for operation in query.operations:
        if operation.kind is not OperationKind.SELECTION:
            continue
        if not peer.schema.has_attribute(operation.attribute):
            return ()
        candidates = [
            record
            for record in candidates
            if record.get(operation.attribute) is not None
            and operation.predicate(record.get(operation.attribute))
        ]
    projected_attributes = [
        op.attribute
        for op in query.operations
        if op.kind is OperationKind.PROJECTION and peer.schema.has_attribute(op.attribute)
    ]
    if projected_attributes:
        return tuple(record.project(projected_attributes) for record in candidates)
    return tuple(candidates)


class QueryRouter:
    """Routes queries through the PDMS under a quality-aware policy."""

    def __init__(
        self,
        network: PDMSNetwork,
        policy: Optional[RoutingPolicy] = None,
        quality_oracle: Optional[QualityOracle] = None,
    ) -> None:
        self.network = network
        self.policy = policy or RoutingPolicy()
        self.quality_oracle = quality_oracle or _default_oracle

    # -- forwarding decision ---------------------------------------------------------

    def forwarding_decision(self, query: Query, mapping: Mapping) -> Tuple[bool, str, Dict[str, float]]:
        """Decide whether ``query`` may be forwarded through ``mapping``.

        Returns ``(forward?, reason, per-attribute probabilities)``.
        """
        probabilities: Dict[str, float] = {}
        for attribute in query.attributes:
            if not mapping.maps_attribute(attribute):
                probabilities[attribute] = 0.0
                if not self.policy.forward_on_partial:
                    return (
                        False,
                        f"attribute {attribute!r} has no correspondence",
                        probabilities,
                    )
                continue
            probability = float(self.quality_oracle(mapping, attribute))
            probabilities[attribute] = probability
            if probability <= self.policy.threshold_for(attribute):
                return (
                    False,
                    f"P({attribute} preserved)={probability:.2f} <= "
                    f"θ={self.policy.threshold_for(attribute):.2f}",
                    probabilities,
                )
        return True, "all attributes above threshold", probabilities

    # -- routing ------------------------------------------------------------------------

    def route(self, query: Query, origin: Optional[str] = None) -> QueryTrace:
        """Resolve ``query`` starting at ``origin`` (defaults to its schema).

        The query floods breadth-first through mappings that pass the
        forwarding decision, each peer being visited at most once, up to the
        policy's TTL.  Every visited peer contributes its local answer.
        """
        origin = origin or query.schema_name
        if not self.network.has_peer(origin):
            raise UnknownPeerError(f"unknown origin peer {origin!r}")
        if query.schema_name != self.network.peer(origin).schema.name and not self.network.has_peer(
            query.schema_name
        ):
            raise RoutingError(
                f"query schema {query.schema_name!r} does not match origin "
                f"{origin!r}"
            )

        trace = QueryTrace(query_id=query.query_id, origin=origin)
        visited: set[str] = set()
        # Breadth-first frontier of (peer, query-as-seen-by-that-peer, depth).
        frontier: List[Tuple[str, Query, int]] = [(origin, query, 0)]
        while frontier:
            peer_name, local_query, depth = frontier.pop(0)
            if peer_name in visited:
                continue
            visited.add(peer_name)
            trace.record_visit(peer_name)
            records = execute_locally(local_query, self.network, peer_name)
            trace.record_answer(
                PeerAnswer(peer_name=peer_name, records=records, hops_from_origin=depth)
            )
            if depth >= self.policy.ttl:
                continue
            for mapping in self.network.peer(peer_name).outgoing_mappings:
                if mapping.target in visited:
                    continue
                forward, reason, probabilities = self.forwarding_decision(
                    local_query, mapping
                )
                trace.record_hop(
                    HopRecord(
                        mapping_name=mapping.name,
                        source=peer_name,
                        target=mapping.target,
                        forwarded=forward,
                        reason=reason,
                        attribute_probabilities=probabilities,
                    )
                )
                if not forward:
                    continue
                result = reformulate(local_query, mapping)
                if result.query is None:
                    continue
                frontier.append((mapping.target, result.query, depth + 1))
        return trace
