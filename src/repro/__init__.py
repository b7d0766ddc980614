"""repro — Probabilistic Message Passing in Peer Data Management Systems.

A faithful, laptop-scale reproduction of Cudré-Mauroux, Aberer & Feher
(ICDE 2006): detecting erroneous schema mappings in a PDMS by analysing
mapping cycles and parallel paths, encoding the resulting feedback in a
factor graph, and running decentralised loopy sum–product message passing
embedded in normal PDMS operations.

Typical usage::

    from repro import MappingQualityAssessor, intro_example_network

    network = intro_example_network()
    assessor = MappingQualityAssessor(network, delta=0.1)
    assessment = assessor.assess_attribute("Creator")
    print(assessment.posteriors)          # P(correct) per mapping
    router = assessor.router()            # θ-aware query routing
"""

from .exceptions import ReproError
from .factorgraph import (
    BinaryVariable,
    Factor,
    FactorGraph,
    SumProduct,
    SumProductOptions,
    SumProductResult,
    exact_marginals,
    prior_factor,
    run_sum_product,
)
from .schema import Attribute, AttributeType, DataModel, InstanceStore, Record, Schema
from .mapping import Correspondence, Mapping, round_trip_outcome
from .pdms import (
    ClockDigest,
    CorrespondenceChanged,
    GossipJournal,
    JournalEntry,
    MappingAdded,
    MappingRemoved,
    PDMSNetwork,
    Peer,
    PeerAdded,
    PeerRemoved,
    Query,
    QueryRouter,
    QueryTrace,
    RoutingPolicy,
    TopologyEvent,
    VectorClock,
    substring_predicate,
)
from .pdms.gossip import GossipHarness, PeerNode, SeededTransport
from .core import (
    BatchedEmbeddedMessagePassing,
    EmbeddedMessagePassing,
    EmbeddedOptions,
    EmbeddedResult,
    Feedback,
    FeedbackKind,
    LazySchedule,
    MappingQualityAssessor,
    MessageTransport,
    PeriodicSchedule,
    PriorBeliefStore,
    analyze_network,
    build_factor_graph,
    compensation_probability,
)
from .generators import (
    figure4_feedbacks,
    generate_scenario,
    intro_example_feedbacks,
    intro_example_network,
    scale_free_network,
    single_cycle_feedback,
)

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "BinaryVariable",
    "Factor",
    "FactorGraph",
    "SumProduct",
    "SumProductOptions",
    "SumProductResult",
    "exact_marginals",
    "prior_factor",
    "run_sum_product",
    "Attribute",
    "AttributeType",
    "DataModel",
    "InstanceStore",
    "Record",
    "Schema",
    "Correspondence",
    "Mapping",
    "round_trip_outcome",
    "PDMSNetwork",
    "Peer",
    "Query",
    "QueryRouter",
    "QueryTrace",
    "RoutingPolicy",
    "substring_predicate",
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
    "GossipHarness",
    "PeerNode",
    "SeededTransport",
    "BatchedEmbeddedMessagePassing",
    "EmbeddedMessagePassing",
    "EmbeddedOptions",
    "EmbeddedResult",
    "Feedback",
    "FeedbackKind",
    "LazySchedule",
    "MappingQualityAssessor",
    "MessageTransport",
    "PeriodicSchedule",
    "PriorBeliefStore",
    "analyze_network",
    "build_factor_graph",
    "compensation_probability",
    "figure4_feedbacks",
    "generate_scenario",
    "intro_example_feedbacks",
    "intro_example_network",
    "scale_free_network",
    "single_cycle_feedback",
    "__version__",
]
