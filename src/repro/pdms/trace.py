"""Query traces: a record of how a query travelled through the PDMS.

Traces serve two purposes: they let the examples show exactly which mapping
produced which (possibly false-positive) answers, and they are the raw
material of the *lazy* message-passing schedule, which piggybacks inference
messages on query traffic (§4.3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..schema.instances import Record

__all__ = ["HopRecord", "PeerAnswer", "QueryTrace"]


@dataclass(frozen=True)
class HopRecord:
    """One forwarding decision taken while routing a query."""

    mapping_name: str
    source: str
    target: str
    forwarded: bool
    reason: str
    attribute_probabilities: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class PeerAnswer:
    """The records one peer contributed to a query's answer."""

    peer_name: str
    records: Tuple[Record, ...]
    hops_from_origin: int

    @property
    def count(self) -> int:
        return len(self.records)


@dataclass
class QueryTrace:
    """Everything that happened while resolving one query."""

    query_id: int
    origin: str
    hops: List[HopRecord] = field(default_factory=list)
    answers: List[PeerAnswer] = field(default_factory=list)
    visited_peers: List[str] = field(default_factory=list)

    def record_hop(self, hop: HopRecord) -> None:
        self.hops.append(hop)

    def record_answer(self, answer: PeerAnswer) -> None:
        self.answers.append(answer)

    def record_visit(self, peer_name: str) -> None:
        if peer_name not in self.visited_peers:
            self.visited_peers.append(peer_name)

    # -- summaries -----------------------------------------------------------------

    @property
    def forwarded_hops(self) -> Tuple[HopRecord, ...]:
        return tuple(hop for hop in self.hops if hop.forwarded)

    @property
    def blocked_hops(self) -> Tuple[HopRecord, ...]:
        return tuple(hop for hop in self.hops if not hop.forwarded)

    @property
    def total_answers(self) -> int:
        return sum(answer.count for answer in self.answers)

    def used_mappings(self) -> Tuple[str, ...]:
        """Names of mappings actually used to forward the query."""
        return tuple(hop.mapping_name for hop in self.forwarded_hops)

    def summary(self) -> str:
        """Human-readable one-paragraph summary of the trace."""
        lines = [
            f"query {self.query_id} from {self.origin}: visited "
            f"{len(self.visited_peers)} peers, {self.total_answers} answers",
        ]
        for hop in self.hops:
            verdict = "forwarded" if hop.forwarded else "blocked"
            lines.append(f"  {hop.mapping_name}: {verdict} ({hop.reason})")
        return "\n".join(lines)
