"""Core contribution: probabilistic detection of faulty mappings in a PDMS.

The pipeline is: gather cycle / parallel-path feedback
(:mod:`repro.core.analysis`), encode it as factors
(:mod:`repro.core.feedback`), build global or per-peer factor graphs
(:mod:`repro.core.pdms_factor_graph`, :mod:`repro.core.local_graph`), run the
decentralised embedded message passing — every run a set of lanes of one
engine (:mod:`repro.core.batched`), a single lane being
:mod:`repro.core.embedded` — under a periodic or lazy schedule
(:mod:`repro.core.schedules`), and expose the
posteriors for routing and prior updates (:mod:`repro.core.quality`,
:mod:`repro.core.beliefs`).
"""

from .feedback import (
    Feedback,
    FeedbackKind,
    StructureKind,
    compensation_probability,
    feedback_factor,
    feedback_from_cycle,
    feedback_from_parallel_paths,
    positive_feedback_probability,
)
from .analysis import (
    NetworkEvidence,
    StructureCache,
    StructureCacheStatistics,
    analyze_network,
)
from .beliefs import MAXIMUM_ENTROPY_PRIOR, PriorBeliefStore
from .pdms_factor_graph import (
    PDMSFactorGraph,
    build_factor_graph,
    build_factor_graph_from_evidence,
    variable_name_for,
)
from .local_graph import LocalFactorGraph, build_local_graphs, mapping_owner
from ..factorgraph.plan import SweepPlan
from .batched import (
    AssessmentLane,
    BatchedEmbeddedMessagePassing,
    compile_assessment_plan,
)
from .embedded import (
    EmbeddedMessagePassing,
    EmbeddedOptions,
    EmbeddedResult,
    MessageTransport,
    TransportStatistics,
)
from .schedules import LazySchedule, PeriodicSchedule, ScheduleReport
from .quality import AttributeAssessment, MappingQualityAssessor

__all__ = [
    "Feedback",
    "FeedbackKind",
    "StructureKind",
    "compensation_probability",
    "feedback_factor",
    "feedback_from_cycle",
    "feedback_from_parallel_paths",
    "positive_feedback_probability",
    "NetworkEvidence",
    "StructureCache",
    "StructureCacheStatistics",
    "analyze_network",
    "MAXIMUM_ENTROPY_PRIOR",
    "PriorBeliefStore",
    "PDMSFactorGraph",
    "build_factor_graph",
    "build_factor_graph_from_evidence",
    "variable_name_for",
    "LocalFactorGraph",
    "build_local_graphs",
    "mapping_owner",
    "AssessmentLane",
    "SweepPlan",
    "BatchedEmbeddedMessagePassing",
    "compile_assessment_plan",
    "EmbeddedMessagePassing",
    "EmbeddedOptions",
    "EmbeddedResult",
    "MessageTransport",
    "TransportStatistics",
    "LazySchedule",
    "PeriodicSchedule",
    "ScheduleReport",
    "AttributeAssessment",
    "MappingQualityAssessor",
]
