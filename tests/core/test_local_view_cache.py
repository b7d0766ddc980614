"""The local-view cache and the lowered per-origin evidence (§4.5).

Every :meth:`~repro.core.quality.MappingQualityAssessor.assess_locals` run
fills one cache of (origin, attribute) views, valid while the topology
version and the prior store's version hold; ``local_probability`` reads
it, and a miss runs the one lane of the asked mapping's source.  Each
origin block keeps its evidence lowered to int8 kind codes, once per
attribute.  The tests pin both against from-scratch assessors on cold
copies (``cold_copy.py``).
"""

import numpy as np
import pytest
from cold_copy import cold_copy
from hypothesis import given, settings, strategies as st

from repro.alignment.eon import build_eon_network
from repro.core import quality
from repro.core.analysis import structure_feedbacks
from repro.core.feedback import FeedbackKind
from repro.core.quality import MappingQualityAssessor
from repro.generators.paper import intro_example_network
from repro.generators.scenarios import generate_scenario
from repro.pdms.query import Query
from repro.pdms.routing import RoutingPolicy

#: The kind codes the lowering writes, spelled out.
KIND_CODE = {FeedbackKind.NEUTRAL: 0, FeedbackKind.POSITIVE: 1, FeedbackKind.NEGATIVE: 2}


def _intro_assessor(**overrides):
    options = dict(delta=0.1, ttl=4, seed=0)
    options.update(overrides)
    return MappingQualityAssessor(
        intro_example_network(with_records=False), **options
    )


def _count_lanes(monkeypatch):
    """Record the lane keys of every local-view engine the assessor builds."""
    engines = []
    engine = quality.BatchedEmbeddedMessagePassing

    def recording(plan, lanes, **kwargs):
        engines.append([lane.key for lane in lanes])
        return engine(plan, lanes, **kwargs)

    monkeypatch.setattr(quality, "BatchedEmbeddedMessagePassing", recording)
    return engines


class TestStaleRead:
    def test_a_prior_write_refreshes_the_local_view(self):
        assessor = _intro_assessor()
        assert assessor.local_probability("p2->p4", "Creator") == pytest.approx(
            1.6e-21, rel=0.05
        )
        assessor.priors.set_prior("p2->p4", "Creator", 0.99, pinned=True)
        fresh = MappingQualityAssessor(
            cold_copy(assessor.network),
            priors=assessor.priors,
            delta=0.1,
            ttl=4,
            seed=0,
        )
        expected = fresh.local_probability("p2->p4", "Creator")
        assert expected == pytest.approx(0.982, abs=1e-3)
        assert assessor.local_probability("p2->p4", "Creator") == expected

    def test_the_global_view_is_keyed_on_the_topology_only(self):
        """The documented contract of ``assessment``: a prior write leaves
        the cached global assessment in place until the attribute is
        assessed again."""
        assessor = _intro_assessor()
        stale = assessor.probability("p2->p4", "Creator")
        assessor.priors.set_prior("p2->p4", "Creator", 0.99, pinned=True)
        assert assessor.probability("p2->p4", "Creator") == stale
        assessor.assess_attribute("Creator")
        assert assessor.probability("p2->p4", "Creator") == pytest.approx(
            0.982, abs=1e-3
        )


class TestCachedReads:
    def test_cached_routes_run_no_sweep(self, monkeypatch):
        """After ``assess_locals(origins, a)`` a local router over ``a``
        whose flood stays among those origins runs no engine, and routes
        as a fresh assessor's router does."""
        network = intro_example_network(with_records=True)
        assessor = MappingQualityAssessor(network, delta=0.1, ttl=4, seed=0)
        query = Query.select_project("p2", project=["Creator"])
        policy = RoutingPolicy(default_threshold=0.5)
        fresh = MappingQualityAssessor(cold_copy(network), delta=0.1, ttl=4, seed=0)
        expected = fresh.local_router(policy=policy).route(query)
        assessor.assess_locals(["p2", "p3"], "Creator")
        engines = _count_lanes(monkeypatch)
        trace = assessor.local_router(policy=policy).route(query)
        assert engines == []
        assert [hop.mapping_name for hop in trace.hops] == [
            hop.mapping_name for hop in expected.hops
        ]
        assert "p2->p4" in {hop.mapping_name for hop in trace.blocked_hops}

    def test_a_miss_runs_one_lane_for_the_source(self, monkeypatch):
        assessor = _intro_assessor(send_probability=0.8)
        engines = _count_lanes(monkeypatch)
        value = assessor.local_probability("p3->p4", "Creator")
        assert engines == [["p3"]]
        # The other own mappings of p3 are hits now; other sources miss.
        assessor.local_probability("p3->p4", "Creator")
        assert engines == [["p3"]]
        assessor.local_probability("p2->p4", "Creator")
        assert engines == [["p3"], ["p2"]]
        all_origins = _intro_assessor(send_probability=0.8).assess_local_all(
            "Creator"
        )
        assert value == all_origins["p3"]["p3->p4"]
        assert assessor.local_probability("p2->p4", "Creator") == (
            all_origins["p2"]["p2->p4"]
        )

    def test_every_local_run_fills_the_cache_with_copies(self, monkeypatch):
        assessor = _intro_assessor()
        views = assessor.assess_locals(["p1", "p4"], "Title")
        engines = _count_lanes(monkeypatch)
        for origin, view in views.items():
            for name, value in view.items():
                assert assessor.local_probability(name, "Title") == value
            view.clear()
        assert engines == []
        assert assessor.assess_locals(["p1"], "Title")["p1"]
        assert engines == [["p1"]]

    def test_a_topology_change_and_a_prior_update_empty_the_cache(self, monkeypatch):
        assessor = _intro_assessor()
        assessor.assess_local_all("Creator")
        engines = _count_lanes(monkeypatch)
        assessor.network.add_mapping(
            assessor.network.remove_mapping("p3->p4"), bidirectional=False
        )
        assessor.local_probability("p2->p3", "Creator")
        # The update assesses the attribute globally (one attribute lane)
        # on the new topology, then folds it into the priors.
        assessor.update_priors(["Creator"])
        assessor.local_probability("p2->p3", "Creator")
        assert engines == [["p2"], ["Creator"], ["p2"]]


def _kinds_of_every_block(assessor, network):
    for origin in network.peer_names:
        cycles, paths = assessor.neighborhood_cache.structures_for(origin)
        block = assessor._block(origin)
        for attribute in network.attribute_universe():
            codes = block.codes_for(attribute)
            expected = [
                KIND_CODE[feedback.kind]
                for feedback in structure_feedbacks(cycles, paths, attribute)
            ]
            yield origin, attribute, codes, expected


class TestLowering:
    @pytest.mark.parametrize("scenario", ["eon", "scale-free"])
    def test_stored_codes_are_the_kinds_of_the_block_feedbacks(self, scenario):
        if scenario == "eon":
            network = build_eon_network().network
        else:
            network = generate_scenario(
                "scale-free", 48, attribute_count=6, error_rate=0.2, seed=11
            ).network
        assessor = MappingQualityAssessor(
            network, delta=None, ttl=3, include_parallel_paths=False
        )
        informative = 0
        for origin, attribute, codes, expected in _kinds_of_every_block(
            assessor, network
        ):
            assert codes.dtype == np.int8 and not codes.flags.writeable
            assert codes.tolist() == expected, (origin, attribute)
            assert codes is assessor._block(origin).codes_for(attribute)
            informative += any(expected)
        assert informative


# -- the cache is exact ---------------------------------------------------------

_operations = st.lists(
    st.one_of(
        st.tuples(st.just("assess"), st.lists(st.integers(0, 63), max_size=4), st.integers(0, 7)),
        st.tuples(st.just("read"), st.integers(0, 63), st.integers(0, 7)),
        st.tuples(st.just("churn"), st.integers(0, 63)),
        st.tuples(
            st.just("prior"),
            st.integers(0, 63),
            st.integers(0, 7),
            st.sampled_from([0.01, 0.3, 0.7, 0.99]),
            st.booleans(),
        ),
        st.tuples(st.just("update"), st.integers(0, 7)),
    ),
    min_size=1,
    max_size=8,
)


def _network(kind):
    if kind == "intro":
        return intro_example_network(with_records=False), dict(
            delta=0.1, ttl=4, seed=0, send_probability=0.8
        )
    network = generate_scenario(
        "scale-free", 10, attribute_count=3, error_rate=0.3, seed=7
    ).network
    return network, dict(delta=None, ttl=3, seed=1, include_parallel_paths=False)


@pytest.mark.parametrize("kind", ["intro", "scale-free"])
@given(operations=_operations)
@settings(max_examples=25, deadline=None)
def test_every_read_equals_a_cold_one_origin_view(kind, operations):
    network, options = _network(kind)
    assessor = MappingQualityAssessor(network, **options)
    attributes = network.attribute_universe()

    def fresh_view(origin, attribute):
        fresh = MappingQualityAssessor(
            cold_copy(network), priors=assessor.priors, **options
        )
        return fresh.assess_local(origin, attribute)

    def mapping(index):
        return network.mapping_names[index % len(network.mapping_names)]

    for operation in operations:
        if operation[0] == "assess":
            peers = network.peer_names
            origins = [peers[i % len(peers)] for i in operation[1]]
            attribute = attributes[operation[2] % len(attributes)]
            for origin, view in assessor.assess_locals(origins, attribute).items():
                assert view == fresh_view(origin, attribute)
        elif operation[0] == "read":
            name, attribute = mapping(operation[1]), attributes[operation[2] % len(attributes)]
            source = network.mapping(name).source
            expected = fresh_view(source, attribute).get(name, 0.0)
            assert assessor.local_probability(name, attribute) == expected
        elif operation[0] == "churn":
            removed = network.remove_mapping(mapping(operation[1]))
            network.add_mapping(removed, bidirectional=False)
        elif operation[0] == "prior":
            attribute = attributes[operation[2] % len(attributes)]
            assessor.priors.set_prior(
                mapping(operation[1]), attribute, operation[3], pinned=operation[4]
            )
        else:
            assessor.update_priors([attributes[operation[1] % len(attributes)]])
