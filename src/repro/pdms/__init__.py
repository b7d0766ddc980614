"""PDMS substrate: peers, mapping networks, typed topology events, vector
clocks, queries, reformulation, routing, neighbourhood probing and the
probe-plan discovery core.

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
    GossipJournal,
    JournalEntry,
    MappingAdded,
    MappingRemoved,
    PeerAdded,
    PeerRemoved,
    TopologyEvent,
)
from .query import Operation, OperationKind, Query, substring_predicate
from .reformulation import ReformulationResult, reformulate, reformulate_through_chain
from .routing import QueryRouter, RoutingPolicy, execute_locally
from .trace import HopRecord, PeerAnswer, QueryTrace
from .probing import (
    MappingCycle,
    ParallelPaths,
    ProbeResult,
    find_all_cycles,
    find_all_parallel_paths,
    find_cycles_through,
    find_parallel_paths_from,
    probe_neighborhood,
    validate_ttl,
)
from .discovery import (
    ProbeOutcome,
    ProbePlan,
    ProbeRun,
    ProbeWorkUnit,
    TopologySnapshot,
    plan_full_probe,
    plan_neighborhood_probe,
    run_plan,
)

__all__ = [
    "Peer",
    "PDMSNetwork",
    "VectorClock",
    "TopologyEvent",
    "PeerAdded",
    "PeerRemoved",
    "MappingAdded",
    "MappingRemoved",
    "JournalEntry",
    "ClockDigest",
    "GossipJournal",
    "Operation",
    "OperationKind",
    "Query",
    "substring_predicate",
    "ReformulationResult",
    "reformulate",
    "reformulate_through_chain",
    "QueryRouter",
    "RoutingPolicy",
    "execute_locally",
    "HopRecord",
    "PeerAnswer",
    "QueryTrace",
    "MappingCycle",
    "ParallelPaths",
    "ProbeResult",
    "find_all_cycles",
    "find_all_parallel_paths",
    "find_cycles_through",
    "find_parallel_paths_from",
    "probe_neighborhood",
    "validate_ttl",
    "ProbeOutcome",
    "ProbePlan",
    "ProbeRun",
    "ProbeWorkUnit",
    "TopologySnapshot",
    "plan_full_probe",
    "plan_neighborhood_probe",
    "run_plan",
]
