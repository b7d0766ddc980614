"""Unit tests for quality-aware query routing."""

import pytest

from repro.exceptions import UnknownPeerError
from repro.generators.paper import intro_example_network
from repro.mapping.mapping import Mapping
from repro.pdms.network import PDMSNetwork
from repro.pdms.peer import Peer
from repro.pdms.query import Query, substring_predicate
from repro.pdms.routing import QueryRouter, RoutingPolicy, execute_locally
from repro.schema.schema import Schema


@pytest.fixture
def network():
    return intro_example_network(with_records=True)


@pytest.fixture
def river_query():
    return Query.select_project(
        "p2",
        project=["Creator"],
        where={"Subject": substring_predicate("river")},
    )


@pytest.fixture
def chain():
    """p2 -> p3 -> p4: the first mapping renames both attributes, the
    second keeps only the creator."""
    network = PDMSNetwork(name="chain")
    network.add_peer(Peer("p2", Schema.from_names("p2", ["Creator", "Subject"])))
    network.add_peer(
        Peer(
            "p3",
            Schema.from_names("p3", ["Author", "Topic"]),
            records=[
                {"Author": "Monet", "Topic": "river"},
                {"Author": "Turner", "Topic": "sea"},
                {"Author": "Anonymous"},
            ],
        )
    )
    network.add_peer(
        Peer(
            "p4",
            Schema.from_names("p4", ["Painter"]),
            records=[{"Painter": "Corot"}, {"Painter": "Sisley"}],
        )
    )
    network.add_mapping(
        Mapping.from_pairs("p2", "p3", {"Creator": "Author", "Subject": "Topic"})
    )
    network.add_mapping(Mapping.from_pairs("p3", "p4", {"Author": "Painter"}))
    return network


def _answers(trace):
    return {
        answer.peer_name: [dict(record.values) for record in answer.records]
        for answer in trace.answers
    }


class TestRoutingPolicy:
    def test_default_threshold(self):
        policy = RoutingPolicy(default_threshold=0.4)
        assert policy.threshold_for("anything") == 0.4

    def test_per_attribute_threshold(self):
        policy = RoutingPolicy(default_threshold=0.4, attribute_thresholds={"Creator": 0.8})
        assert policy.threshold_for("Creator") == 0.8
        assert policy.threshold_for("Title") == 0.4


class TestExecuteLocally:
    def test_selection_and_projection(self, network, river_query):
        records = execute_locally(river_query, network, "p2")
        assert len(records) == 2
        assert all(set(record.values) == {"Creator"} for record in records)

    def test_missing_selection_attribute_yields_nothing(self, network):
        query = Query.select_project(
            "p2", project=["Creator"], where={"Nonexistent": lambda v: True}
        )
        # The attribute is not in the schema: nothing can match.
        assert execute_locally(query, network, "p2") == ()

    def test_records_without_the_selected_value_are_skipped(self, chain):
        query = Query.select_project(
            "p3", project=["Author"], where={"Topic": lambda v: True}
        )
        records = execute_locally(query, chain, "p3")
        assert [record.values for record in records] == [
            {"Author": "Monet"},
            {"Author": "Turner"},
        ]

    def test_selections_are_conjunctive(self, chain):
        query = Query.select_project(
            "p3",
            project=["Author"],
            where={"Topic": lambda v: True, "Author": substring_predicate("turn")},
        )
        records = execute_locally(query, chain, "p3")
        assert [record.values for record in records] == [{"Author": "Turner"}]

    def test_without_projection_whole_records_are_returned(self, chain):
        query = Query.select_project(
            "p3", project=[], where={"Topic": substring_predicate("sea")}
        )
        records = execute_locally(query, chain, "p3")
        assert [record.values for record in records] == [
            {"Author": "Turner", "Topic": "sea"}
        ]


class TestQueryRouterStandard:
    def test_standard_router_floods_everywhere(self, network, river_query):
        router = QueryRouter(network, policy=RoutingPolicy(default_threshold=0.0))
        trace = router.route(river_query)
        assert set(trace.visited_peers) == {"p1", "p2", "p3", "p4"}

    def test_standard_router_produces_false_positive(self, network, river_query):
        router = QueryRouter(network, policy=RoutingPolicy(default_threshold=0.0))
        trace = router.route(river_query)
        answers = [record for answer in trace.answers for record in answer.records]
        # The p4 answer arrives through the faulty mapping, projected onto
        # CreatedOn, hence lacks a proper Creator value.
        assert any(record.get("Creator") is None for record in answers)

    def test_unknown_origin_raises(self, network, river_query):
        router = QueryRouter(network)
        with pytest.raises(UnknownPeerError):
            router.route(river_query, origin="zz")

    def test_ttl_zero_stays_local(self, network, river_query):
        router = QueryRouter(network, policy=RoutingPolicy(default_threshold=0.0, ttl=0))
        trace = router.route(river_query)
        assert trace.visited_peers == ["p2"]


class TestQueryRouterQualityAware:
    def test_low_quality_mapping_blocked(self, network, river_query):
        def oracle(mapping, attribute):
            return 0.3 if mapping.name == "p2->p4" else 0.9

        router = QueryRouter(
            network, policy=RoutingPolicy(default_threshold=0.5), quality_oracle=oracle
        )
        trace = router.route(river_query)
        blocked = {hop.mapping_name for hop in trace.blocked_hops}
        assert "p2->p4" in blocked
        # The query still reaches every peer through the good mappings.
        assert set(trace.visited_peers) == {"p1", "p2", "p3", "p4"}

    def test_no_false_positives_with_quality_routing(self, network, river_query):
        def oracle(mapping, attribute):
            return 0.3 if mapping.name == "p2->p4" else 0.9

        router = QueryRouter(
            network, policy=RoutingPolicy(default_threshold=0.5), quality_oracle=oracle
        )
        trace = router.route(river_query)
        answers = [record for answer in trace.answers for record in answer.records]
        assert all(record.get("Creator") is not None for record in answers)

    def test_forwarding_decision_reports_probabilities(self, network, river_query):
        router = QueryRouter(network, policy=RoutingPolicy(default_threshold=0.5))
        mapping = network.mapping("p2->p3")
        forward, reason, probabilities = router.forwarding_decision(river_query, mapping)
        assert forward
        assert set(probabilities) == {"Creator", "Subject"}

    def test_missing_correspondence_blocks_by_default(self, network):
        query = Query.select_project("p2", project=["Creator", "Rights"])
        from repro.mapping.mapping import Mapping

        partial = Mapping.from_pairs("p2", "p3", {"Creator": "Creator"}, label="partial")
        router = QueryRouter(network, policy=RoutingPolicy(default_threshold=0.0))
        forward, reason, _ = router.forwarding_decision(query, partial)
        assert not forward
        assert "Rights" in reason

    def test_forward_on_partial_policy(self, network):
        query = Query.select_project("p2", project=["Creator", "Rights"])
        from repro.mapping.mapping import Mapping

        partial = Mapping.from_pairs("p2", "p3", {"Creator": "Creator"}, label="partial")
        router = QueryRouter(
            network,
            policy=RoutingPolicy(default_threshold=0.0, forward_on_partial=True),
        )
        forward, _, _ = router.forwarding_decision(query, partial)
        assert forward


class TestTrace:
    def test_trace_summary_mentions_hops(self, network, river_query):
        router = QueryRouter(network, policy=RoutingPolicy(default_threshold=0.0))
        trace = router.route(river_query)
        summary = trace.summary()
        assert "query" in summary
        assert "p2->p3" in summary

    def test_used_mappings_subset_of_forwarded(self, network, river_query):
        router = QueryRouter(network, policy=RoutingPolicy(default_threshold=0.0))
        trace = router.route(river_query)
        assert set(trace.used_mappings()) == {
            hop.mapping_name for hop in trace.forwarded_hops
        }

    def test_answers_from(self, network, river_query):
        router = QueryRouter(network, policy=RoutingPolicy(default_threshold=0.0))
        trace = router.route(river_query)
        assert sum(a.count for a in trace.answers if a.peer_name == "p2") == 2


class TestReformulationAlongAChain:
    """The router reformulates the query at every hop, so each peer answers
    it in its own attribute names."""

    def test_every_peer_answers_in_its_own_attribute_names(self, chain):
        query = Query.select_project("p2", project=["Creator"])
        router = QueryRouter(chain, policy=RoutingPolicy(default_threshold=0.0))
        assert _answers(router.route(query)) == {
            "p2": [],
            "p3": [{"Author": "Monet"}, {"Author": "Turner"}, {"Author": "Anonymous"}],
            "p4": [{"Painter": "Corot"}, {"Painter": "Sisley"}],
        }

    def test_a_renamed_selection_still_filters(self, chain, river_query):
        router = QueryRouter(chain, policy=RoutingPolicy(default_threshold=0.0))
        assert _answers(router.route(river_query))["p3"] == [{"Author": "Monet"}]

    def test_a_lost_attribute_blocks_the_next_hop_by_default(self, chain, river_query):
        router = QueryRouter(chain, policy=RoutingPolicy(default_threshold=0.0))
        trace = router.route(river_query)
        assert trace.visited_peers == ["p2", "p3"]
        (blocked,) = [hop for hop in trace.hops if not hop.forwarded]
        assert blocked.mapping_name == "p3->p4"
        assert "Topic" in blocked.reason

    def test_a_lost_selection_is_dropped_on_partial_forwarding(self, chain, river_query):
        router = QueryRouter(
            chain,
            policy=RoutingPolicy(default_threshold=0.0, forward_on_partial=True),
        )
        answers = _answers(router.route(river_query))
        # p4 cannot express the subject filter, so it answers unfiltered.
        assert answers["p3"] == [{"Author": "Monet"}]
        assert answers["p4"] == [{"Painter": "Corot"}, {"Painter": "Sisley"}]

    def test_a_hop_that_translates_nothing_visits_no_peer(self, chain):
        query = Query.select_project("p3", project=["Topic"])
        router = QueryRouter(
            chain,
            policy=RoutingPolicy(default_threshold=0.0, forward_on_partial=True),
        )
        trace = router.route(query)
        assert [hop.mapping_name for hop in trace.hops] == ["p3->p4"]
        assert trace.visited_peers == ["p3"]
