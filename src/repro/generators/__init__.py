"""Synthetic workload generators: schemas, topologies, full scenarios and
the paper's named experimental setups."""

from .schemas import DEFAULT_CONCEPTS, concept_pool, generate_schema, generate_schema_family
from .topologies import (
    cycle_network,
    identity_mapping,
    network_from_graph,
    random_network,
    scale_free_network,
)
from .scenarios import Scenario, generate_scenario, inject_errors
from .paper import (
    INTRO_ATTRIBUTE,
    INTRO_SCHEMA_CONCEPTS,
    extended_cycle_feedbacks,
    figure4_feedbacks,
    intro_example_feedbacks,
    intro_example_network,
    single_cycle_feedback,
)

__all__ = [
    "DEFAULT_CONCEPTS",
    "concept_pool",
    "generate_schema",
    "generate_schema_family",
    "cycle_network",
    "identity_mapping",
    "network_from_graph",
    "random_network",
    "scale_free_network",
    "Scenario",
    "generate_scenario",
    "inject_errors",
    "INTRO_ATTRIBUTE",
    "INTRO_SCHEMA_CONCEPTS",
    "extended_cycle_feedbacks",
    "figure4_feedbacks",
    "intro_example_feedbacks",
    "intro_example_network",
    "single_cycle_feedback",
]
