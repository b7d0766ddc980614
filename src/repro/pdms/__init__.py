"""PDMS substrate: peers, mapping networks, typed topology events, vector
clocks, queries, reformulation, routing, neighbourhood probing and the
discovery core's topology snapshot.

The multi-node gossip harness (:mod:`repro.pdms.gossip`) is *not*
re-exported here: it sits in its own layer above the core engines, so
importing this package must not drag the engine stack in.  Import it
directly (``from repro.pdms.gossip import GossipHarness``) or through the
top-level :mod:`repro` API."""

from .peer import Peer
from .network import PDMSNetwork
from .clock import VectorClock
from .events import (
    ClockDigest,
    CorrespondenceChanged,
    GossipJournal,
    JournalEntry,
    MappingAdded,
    MappingRemoved,
    PeerAdded,
    PeerRemoved,
    TopologyEvent,
)
from .query import Operation, OperationKind, Query, substring_predicate
from .reformulation import ReformulationResult, reformulate
from .routing import QueryRouter, RoutingPolicy, execute_locally
from .trace import HopRecord, PeerAnswer, QueryTrace
from .probing import (
    MappingCycle,
    ParallelPaths,
    find_cycles_through,
    find_parallel_paths_from,
    validate_ttl,
)
from .discovery import TopologySnapshot

__all__ = [
    "Peer",
    "PDMSNetwork",
    "VectorClock",
    "TopologyEvent",
    "PeerAdded",
    "PeerRemoved",
    "MappingAdded",
    "MappingRemoved",
    "CorrespondenceChanged",
    "JournalEntry",
    "ClockDigest",
    "GossipJournal",
    "Operation",
    "OperationKind",
    "Query",
    "substring_predicate",
    "ReformulationResult",
    "reformulate",
    "QueryRouter",
    "RoutingPolicy",
    "execute_locally",
    "HopRecord",
    "PeerAnswer",
    "QueryTrace",
    "MappingCycle",
    "ParallelPaths",
    "find_cycles_through",
    "find_parallel_paths_from",
    "validate_ttl",
    "TopologySnapshot",
]
