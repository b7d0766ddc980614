"""Unit tests for schema/topology/scenario generators."""

import pytest

from repro.exceptions import GenerationError
from repro.generators.schemas import concept_pool, generate_schema, generate_schema_family
from repro.generators.scenarios import generate_scenario, inject_errors
from repro.generators.topologies import (
    cycle_network,
    identity_mapping,
    random_network,
    scale_free_network,
)
from repro.schema.schema import Schema


class TestSchemaGenerators:
    def test_concept_pool_sizes(self):
        assert len(concept_pool(5)) == 5
        assert len(concept_pool(30)) == 30
        with pytest.raises(GenerationError):
            concept_pool(0)

    def test_generate_schema_identity_mapping(self):
        schema, mapping = generate_schema("s", ["Creator", "Title"])
        assert schema.attribute_names == ("Creator", "Title")
        assert mapping == {"Creator": "Creator", "Title": "Title"}

    def test_generate_schema_with_renaming(self):
        import random

        schema, mapping = generate_schema(
            "s", ["Creator", "Title"], rename=True, rng=random.Random(1)
        )
        assert set(mapping) == {"Creator", "Title"}
        assert len(schema) == 2

    def test_schema_family_shares_concepts(self):
        schemas, maps = generate_schema_family(4, attribute_count=8)
        assert len(schemas) == 4
        assert all(len(schema) == 8 for schema in schemas)
        assert set(maps) == {schema.name for schema in schemas}

    def test_schema_family_requires_positive_count(self):
        with pytest.raises(GenerationError):
            generate_schema_family(0)


class TestTopologyGenerators:
    def test_identity_mapping_requires_shared_attributes(self):
        with pytest.raises(GenerationError):
            identity_mapping(Schema("a", ["X"]), Schema("b", ["Y"]))

    def test_cycle_network_structure(self):
        network = cycle_network(5)
        assert len(network) == 5
        assert len(network.mappings) == 5
        assert network.out_degree("p1") == 1

    def test_cycle_network_minimum_size(self):
        with pytest.raises(GenerationError):
            cycle_network(1)

    def test_random_network_is_weakly_connected(self):
        import networkx as nx

        network = random_network(10, edge_probability=0.15, seed=3)
        assert nx.is_weakly_connected(network.to_networkx())

    def test_scale_free_network_size(self):
        network = scale_free_network(12, seed=1)
        assert len(network) == 12
        assert len(network.mappings) > 12  # both directions of each BA edge

    def test_scale_free_minimum_size(self):
        with pytest.raises(GenerationError):
            scale_free_network(2)

    def test_generated_networks_are_deterministic(self):
        first = scale_free_network(10, seed=7)
        second = scale_free_network(10, seed=7)
        assert first.mapping_names == second.mapping_names


class TestScenarioGenerator:
    def test_error_injection_respects_rate_extremes(self):
        network = cycle_network(4)
        truth = inject_errors(network, 0.0, seed=1)
        assert all(truth.values())
        network2 = cycle_network(4)
        truth2 = inject_errors(network2, 1.0, seed=1)
        assert not any(truth2.values())

    def test_injected_errors_visible_in_mappings(self):
        network = cycle_network(4)
        truth = inject_errors(network, 0.5, seed=3)
        erroneous = [key for key, ok in truth.items() if not ok]
        assert erroneous
        mapping_name, attribute = erroneous[0]
        mapping = network.mapping(mapping_name)
        assert mapping.is_correct_for(attribute) is False

    def test_generate_scenario_defaults(self):
        scenario = generate_scenario(peer_count=8, error_rate=0.2, seed=2)
        assert scenario.topology == "scale-free"
        assert len(scenario.network) == 8
        assert scenario.ground_truth
        assert 0 < len(scenario.erroneous_pairs) < len(scenario.ground_truth)

    def test_generate_scenario_unknown_topology(self):
        with pytest.raises(GenerationError):
            generate_scenario(topology="torus")

    def test_scenario_helpers(self):
        scenario = generate_scenario(topology="cycle", peer_count=5, error_rate=0.3, seed=5)
        attribute = scenario.network.attribute_universe()[0]
        erroneous = scenario.erroneous_mappings(attribute)
        for name in erroneous:
            assert scenario.is_correct(name, attribute) is False

    def test_invalid_error_rate_rejected(self):
        network = cycle_network(4)
        with pytest.raises(GenerationError):
            inject_errors(network, 1.5)
