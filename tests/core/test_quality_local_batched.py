"""Tests for the batched per-origin decentralised assessment (§4.5).

Covers the per-origin lanes against the per-message loop reference across
seeds (lossless and lossy), the per-origin neighbourhood cache (probe once
per origin and network version, carried refreshes), overlapping and
non-block-diagonal lanes, and the local-view correctness fixes (⊥ rule,
prior fallback, θ-flagging, empty-attributes coarse assessment).
"""

from dataclasses import replace
from unittest import mock

import pytest
from cold_copy import cold_copy
from embedded_reference import reference_local_view

from repro.core.analysis import StructureCache, structure_feedbacks
from repro.core.batched import (
    AssessmentLane,
    BatchedEmbeddedMessagePassing,
    lower_feedbacks,
)
from repro.core import quality
from repro.core.beliefs import PriorBeliefStore
from repro.core.quality import MappingQualityAssessor
from repro.exceptions import FeedbackError
from repro.generators.paper import INTRO_SCHEMA_CONCEPTS, intro_example_network
from repro.generators.scenarios import generate_scenario
from repro.mapping.mapping import Mapping
from repro.pdms.network import PDMSNetwork
from repro.pdms.peer import Peer
from repro.pdms.routing import RoutingPolicy
from repro.schema.schema import Schema


def _reference_views(assessor, origins, attribute):
    """The loop reference's view of every origin, configured like the
    assessor's lanes."""
    return {
        origin: reference_local_view(assessor, origin, attribute) for origin in origins
    }


def _both_views(assessor, origin, attribute):
    """``origin``'s view from the lane engine and from the loop reference."""
    return (
        assessor.assess_locals([origin], attribute)[origin],
        reference_local_view(assessor, origin, attribute),
    )


def _origin_lanes(assessor, plan, blocks, origins, attribute, **kwargs):
    """Per-origin lanes over ``plan``'s blocks, as ``assess_locals`` builds
    them (priors left at 0.5)."""
    lanes = []
    for origin in origins:
        structures = assessor.neighborhood_cache.structures_for(origin)
        feedbacks = tuple(
            replace(
                feedback,
                mapping_names=tuple(
                    assessor._instance_name(origin, name)
                    for name in feedback.mapping_names
                ),
            )
            for feedback in structure_feedbacks(*structures, attribute)
        )
        lanes.append(
            AssessmentLane(
                key=origin,
                codes=lower_feedbacks(plan, feedbacks, blocks[origin]),
                structure_indices=blocks[origin],
                **kwargs,
            )
        )
    return lanes


def _assert_same_results(together, alone):
    assert set(together) == set(alone)
    for key, result in alone.items():
        assert together[key] == result, key


def _worst_view_difference(batched_views, sequential_views):
    assert set(batched_views) == set(sequential_views)
    worst = 0.0
    for origin, sequential_view in sequential_views.items():
        batched_view = batched_views[origin]
        assert set(batched_view) == set(sequential_view), origin
        for name, value in sequential_view.items():
            worst = max(worst, abs(batched_view[name] - value))
    return worst


def _dangling_network(default_prior=0.8):
    """Intro network plus a dangling p3→p5 mapping with no evidence."""
    network = intro_example_network(with_records=False)
    network.add_peer(Peer("p5", Schema.from_names("p5", ["Creator", "Title"])))
    network.add_mapping(
        Mapping.from_pairs("p3", "p5", {"Creator": "Creator", "Title": "Title"}),
        bidirectional=False,
    )
    priors = PriorBeliefStore(default_prior=default_prior)
    return network, priors


class TestBatchedLocalParity:
    """Per-origin lanes must replay the loop reference's per-origin runs."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lossless_parity_on_intro_network(self, seed):
        network = intro_example_network(with_records=False)
        assessor = MappingQualityAssessor(network, delta=0.1, ttl=4, seed=seed)
        b = assessor.assess_local_all("Creator")
        s = _reference_views(assessor, network.peer_names, "Creator")
        assert set(b) == set(network.peer_names)
        assert _worst_view_difference(b, s) <= 1e-9

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_lossy_parity_across_seeds(self, seed):
        network = intro_example_network(with_records=False)
        assessor = MappingQualityAssessor(
            network, delta=0.1, ttl=4, seed=seed, send_probability=0.6
        )
        b = assessor.assess_local_all("Creator")
        s = _reference_views(assessor, network.peer_names, "Creator")
        assert _worst_view_difference(b, s) <= 1e-9

    @pytest.mark.parametrize("seed", [3, 5, 9])
    def test_lossy_parity_on_generated_scenario(self, seed):
        scenario = generate_scenario(
            topology="scale-free",
            peer_count=16,
            attribute_count=8,
            error_rate=0.2,
            seed=7,
        )
        network = scenario.network
        attribute = network.attribute_universe()[0]
        assessor = MappingQualityAssessor(
            network,
            delta=None,
            ttl=3,
            include_parallel_paths=False,
            seed=seed,
            send_probability=0.7,
        )
        b = assessor.assess_locals(network.peer_names, attribute)
        s = _reference_views(assessor, network.peer_names, attribute)
        assert _worst_view_difference(b, s) <= 1e-9

    def test_subset_of_origins(self):
        network = intro_example_network(with_records=False)
        assessor = MappingQualityAssessor(network, delta=0.1, ttl=4, seed=0)
        origins = ("p2", "p4")
        b = assessor.assess_locals(origins, "Creator")
        s = _reference_views(assessor, origins, "Creator")
        assert _worst_view_difference(b, s) <= 1e-9

    def test_matches_single_assess_local(self):
        """An origin's view from the all-origins run equals its one-lane
        assess_local call bit for bit."""
        network = intro_example_network(with_records=False)
        batched = MappingQualityAssessor(
            network, delta=0.1, ttl=4, seed=2, send_probability=0.8
        )
        single = MappingQualityAssessor(
            network, delta=0.1, ttl=4, seed=2, send_probability=0.8
        )
        assert batched.assess_local_all("Creator")["p2"] == single.assess_local(
            "p2", "Creator"
        )

    def test_blocked_engine_matches_general_lane_engine(self):
        """The block-diagonal packing is an execution detail: disjoint
        per-origin lanes sharing one slice give each lane's solo result."""
        network = intro_example_network(with_records=False)
        assessor = MappingQualityAssessor(
            network, delta=0.1, ttl=4, seed=1, send_probability=0.7
        )
        plan, blocks = assessor._local_assessment_plan(network.peer_names)

        def run(origins):
            # Every lane gets its own transport, freshly seeded.
            lanes = _origin_lanes(assessor, plan, blocks, origins, "Creator", delta=0.1)
            engine = BatchedEmbeddedMessagePassing(
                plan, lanes, send_probability=0.7, seed=1
            )
            return engine, engine.run()

        engine, together = run(network.peer_names)
        assert len(engine.round_edge_counts) > 1
        alone = {}
        for origin in network.peer_names:
            alone.update(run([origin])[1])
        _assert_same_results(together, alone)


class TestProbeOnce:
    def test_one_probe_per_origin_across_attributes_and_rounds(self):
        network = intro_example_network(with_records=False)
        assessor = MappingQualityAssessor(network, delta=0.1, ttl=4, seed=0)
        for _ in range(3):
            assessor.assess_local_all("Creator")
            assessor.assess_local_all("Title")
        for origin in network.peer_names:
            assessor.assess_local(origin, "Creator")
        assessor.assess_locals(["p4", "p2"], "Title")
        statistics = assessor.neighborhood_cache.statistics
        assert statistics.probes == len(network.peer_names)
        # One block per origin (p1..p4), compiled by the first call only:
        # later all-origins, one-origin and two-origin calls reuse them.
        assert assessor.local_plan_compile_count == 4

    def test_sequential_path_shares_the_cache(self):
        network = intro_example_network(with_records=False)
        assessor = MappingQualityAssessor(network, delta=0.1, ttl=4)
        for _ in range(2):
            for origin in network.peer_names:
                assessor.assess_local(origin, "Creator")
        assert assessor.neighborhood_cache.statistics.probes == len(
            network.peer_names
        )

    def test_mutation_reprobes_once_per_new_version(self):
        network = intro_example_network(with_records=False)
        assessor = MappingQualityAssessor(network, delta=0.1, ttl=4, seed=0)
        before = assessor.assess_local_all("Creator")
        assert "p2->p4" in before["p2"]
        network.remove_mapping("p2->p4")
        after = assessor.assess_local_all("Creator")
        assert "p2->p4" not in after["p2"]
        statistics = assessor.neighborhood_cache.statistics
        # The removal is replayed incrementally: no second full probe.
        assert statistics.probes == len(network.peer_names)
        assert statistics.partial_refreshes == len(network.peer_names)
        # p1, p2 and p4 had a cycle through p2->p4 and recompile their
        # blocks; p3's walks were carried, and so is its block.
        assert assessor.local_plan_compile_count == 4 + 3
        # The refreshed views match the reference on a fresh assessor.
        fresh = _reference_views(
            MappingQualityAssessor(network, delta=0.1, ttl=4, seed=0),
            network.peer_names,
            "Creator",
        )
        assert _worst_view_difference(after, fresh) <= 1e-9


class TestOriginBlocks:
    """The local view compiles one block per origin and walk, and
    assembles every many-origin plan from the cached blocks."""

    def test_one_origin_runs_on_its_block_plan(self):
        network = intro_example_network(with_records=False)
        assessor = MappingQualityAssessor(network, delta=0.1, ttl=4, seed=0)
        plan, blocks = assessor._local_assessment_plan(["p3"])
        assert plan is assessor._blocks["p3"].plan
        assert blocks == {"p3": range(plan.structure_count)}

    @pytest.mark.parametrize(
        "include_parallel_paths, removed", [(False, "p0->p1"), (True, "p7->p1")]
    )
    def test_only_origins_with_new_walks_recompile(
        self, include_parallel_paths, removed
    ):
        network = generate_scenario(
            topology="scale-free",
            peer_count=16,
            attribute_count=8,
            error_rate=0.2,
            seed=7,
        ).network
        attribute = network.attribute_universe()[0]

        def cache_walks():
            return {
                origin: assessor.neighborhood_cache.structures_for(origin)
                for origin in network.peer_names
            }

        options = dict(
            delta=None, ttl=3, seed=3, include_parallel_paths=include_parallel_paths
        )
        assessor = MappingQualityAssessor(network, **options)
        assessor.assess_local_all(attribute)
        assert assessor.local_plan_compile_count == 16
        walks, blocks = cache_walks(), dict(assessor._blocks)
        network.remove_mapping(removed)
        views = assessor.assess_local_all(attribute)
        new_walks = cache_walks()
        rewalked = {
            origin
            for origin in network.peer_names
            if new_walks[origin][0] is not walks[origin][0]
            or new_walks[origin][1] is not walks[origin][1]
        }
        assert 0 < len(rewalked) < 16
        assert assessor.local_plan_compile_count == 16 + len(rewalked)
        assert {
            origin
            for origin in network.peer_names
            if assessor._blocks[origin] is not blocks[origin]
        } == rewalked
        # Carried blocks give the views of an assessor that compiled all.
        fresh = MappingQualityAssessor(network, **options)
        assert views == fresh.assess_local_all(attribute)

    def test_a_block_lowers_each_attribute_once(self):
        network = intro_example_network(with_records=False)
        assessor = MappingQualityAssessor(network, delta=0.1, ttl=4, seed=0)
        assessor.assess_local_all("Creator")
        memo = {
            origin: assessor._blocks[origin].codes_for("Creator")
            for origin in network.peer_names
        }
        assessor.update_priors(["Creator"])
        with mock.patch.object(
            quality, "structure_feedbacks", side_effect=AssertionError
        ), mock.patch.object(quality, "lower_feedbacks", side_effect=AssertionError):
            views = assessor.assess_local_all("Creator")
            assert assessor.assess_local("p2", "Creator") == views["p2"]
        for origin in network.peer_names:
            assert assessor._blocks[origin].codes_for("Creator") is memo[origin]
        # Memoised evidence under the updated priors equals a fresh run's.
        fresh = MappingQualityAssessor(
            network, priors=assessor.priors, delta=0.1, ttl=4, seed=0
        )
        assert views == fresh.assess_local_all("Creator")

    def test_a_correspondence_change_recompiles_the_blocks_holding_it(self):
        network = generate_scenario(
            topology="scale-free",
            peer_count=16,
            attribute_count=8,
            error_rate=0.2,
            seed=7,
        ).network
        attribute = network.attribute_universe()[0]
        options = dict(delta=None, ttl=3, seed=3, include_parallel_paths=False)
        assessor = MappingQualityAssessor(network, **options)
        assessor.assess_local_all(attribute)
        blocks = dict(assessor._blocks)

        def holders(name):
            return {
                origin
                for origin, block in blocks.items()
                if any(name in cycle.mapping_names for cycle in block.cycles)
            }

        name = next(
            name
            for name in network.mapping_names
            if network.mapping(name).maps_attribute(attribute)
            and 0 < len(holders(name)) < 16
        )
        mapping = network.mapping(name)
        network.change_correspondences(
            Mapping(
                mapping.source,
                mapping.target,
                [c for c in mapping if c.source_attribute != attribute],
                label=mapping.label,
            )
        )
        compiles = assessor.local_plan_compile_count
        views = assessor.assess_local_all(attribute)
        recompiled = {
            origin
            for origin in network.peer_names
            if assessor._blocks[origin] is not blocks[origin]
        }
        assert recompiled == holders(name)
        assert assessor.local_plan_compile_count == compiles + len(recompiled)
        for origin in set(network.peer_names) - recompiled:
            assert (
                assessor._blocks[origin].codes_for(attribute)
                is blocks[origin].codes_for(attribute)
            )
        assert views[mapping.source][name] == 0.0  # the ⊥ rule
        fresh = MappingQualityAssessor(cold_copy(network), **options)
        assert views == fresh.assess_local_all(attribute)

    def test_a_removed_peer_leaves_no_block_behind(self):
        network = intro_example_network(with_records=False)
        assessor = MappingQualityAssessor(network, delta=0.1, ttl=4, seed=0)
        assessor.assess_local_all("Creator")
        network.remove_peer("p3")
        assessor.assess_local("p1", "Creator")
        assert set(assessor._blocks) == {"p1", "p2", "p4"}

    def test_invalidate_recompiles_every_block(self):
        network = intro_example_network(with_records=False)
        assessor = MappingQualityAssessor(network, delta=0.1, ttl=4, seed=0)
        before = assessor.assess_local_all("Creator")
        assessor.invalidate()
        assert assessor.assess_local_all("Creator") == before
        assert assessor.local_plan_compile_count == 4 + 4


def _colliding_names_network():
    """Five peers whose names contain ``::``.

    Origin ``x`` sees mapping ``y::z->w`` and origin ``x::y`` sees mapping
    ``z->w``: under an ``origin::mapping`` instance naming both would be
    ``x::y::z->w``.  One swapped mapping makes ``x``'s cycle negative.
    """
    network = PDMSNetwork(directed=True)
    for name in ("x", "y::z", "x::y", "z", "w"):
        network.add_peer(Peer(name, Schema.from_names(name, ["A", "B"])))
    same, swapped = {"A": "A", "B": "B"}, {"A": "B", "B": "A"}
    for source, target, pairs in (
        ("x", "y::z", same),
        ("y::z", "w", swapped),
        ("w", "x", same),
        ("x::y", "z", same),
        ("z", "w", same),
        ("w", "x::y", same),
    ):
        network.add_mapping(
            Mapping.from_pairs(source, target, pairs), bidirectional=False
        )
    return network


class TestInstanceNames:
    @pytest.mark.parametrize("send_probability", [1.0, 0.7])
    def test_colliding_peer_names_keep_blocks_disjoint(self, send_probability):
        network = _colliding_names_network()
        assessor = MappingQualityAssessor(
            network, delta=0.1, ttl=4, seed=0, send_probability=send_probability
        )
        plan, _ = assessor._local_assessment_plan(network.peer_names)
        block_mappings = [
            name
            for origin in network.peer_names
            for name in assessor._blocks[origin].plan.mapping_names
        ]
        assert list(plan.mapping_names) == block_mappings
        assert len(set(block_mappings)) == len(block_mappings)
        views = assessor.assess_local_all("A")
        one_lane = MappingQualityAssessor(
            network, delta=0.1, ttl=4, seed=0, send_probability=send_probability
        )
        assert views == {
            origin: one_lane.assess_local(origin, "A")
            for origin in network.peer_names
        }
        assert views["x"]["x->y::z"] < 0.5 < views["x::y"]["x::y->z"]


class TestNeighborhoodCache:
    def _canonical(self, structures):
        return [structure.mapping_names for structure in structures]

    def test_matches_a_cold_cache_on_a_cold_copy(self):
        network = intro_example_network(with_records=False)
        cache = StructureCache(network, ttl=4)
        cache.warm(network.peer_names)
        network.remove_mapping("p2->p4")
        copy = cold_copy(network)
        for origin in network.peer_names:
            fresh_cache = StructureCache(copy, ttl=4)
            cached = structure_feedbacks(*cache.structures_for(origin), "Creator")
            fresh = structure_feedbacks(
                *fresh_cache.structures_for(origin), "Creator"
            )
            assert [f.identifier for f in cached] == [f.identifier for f in fresh]
            assert [f.kind for f in cached] == [f.kind for f in fresh]
            assert (
                cache.evidence_for("Creator").unmappable
                == fresh_cache.evidence_for("Creator").unmappable
            )

    def test_remove_mapping_refreshes_incrementally(self):
        network = intro_example_network(with_records=False)
        cache = StructureCache(network, ttl=4)
        for origin in network.peer_names:
            cache.structures_for(origin)
        network.remove_mapping("p2->p4")
        for origin in network.peer_names:
            cycles, _ = cache.structures_for(origin)
            expected, _ = (
                StructureCache(network, ttl=4).structures_for(origin)
            )
            assert self._canonical(cycles) == self._canonical(expected)
        assert cache.statistics.partial_refreshes == len(network.peer_names)
        assert cache.statistics.probes == len(network.peer_names)

    def test_add_mapping_enumerates_only_new_cycles(self):
        network = intro_example_network(with_records=False)
        cache = StructureCache(
            network, ttl=4, include_parallel_paths=False
        )
        for origin in network.peer_names:
            cache.structures_for(origin)
        network.add_mapping(
            Mapping.from_pairs(
                "p4",
                "p2",
                {concept: concept for concept in INTRO_SCHEMA_CONCEPTS},
            ),
            bidirectional=False,
        )
        for origin in network.peer_names:
            cycles, _ = cache.structures_for(origin)
            expected, _ = StructureCache(
                network, ttl=4, include_parallel_paths=False
            ).structures_for(origin)
            assert self._canonical(cycles) == self._canonical(expected)
        assert cache.statistics.partial_refreshes == len(network.peer_names)
        # Incrementally grafted cycles start at the origin, like a probe's.
        for origin in network.peer_names:
            cycles, _ = cache.structures_for(origin)
            for cycle in cycles:
                assert cycle.mappings[0].source == origin

    def test_mutation_churn_with_parallel_paths_is_served_incrementally(self):
        """Adds and removals with parallel paths enabled are absorbed by
        grafting/filtering per origin — partial refreshes dominate — and
        every origin's view still matches a fresh probe."""
        network = intro_example_network(with_records=False)
        cache = StructureCache(
            network, ttl=4, include_parallel_paths=True
        )
        for origin in network.peer_names:
            cache.structures_for(origin)

        def check():
            fresh_cache = StructureCache(
                network, ttl=4, include_parallel_paths=True
            )
            for origin in network.peer_names:
                cycles, paths = cache.structures_for(origin)
                expected_cycles, expected_paths = fresh_cache.structures_for(
                    origin
                )
                assert self._canonical(cycles) == self._canonical(expected_cycles)
                assert self._canonical(paths) == self._canonical(expected_paths)

        network.add_mapping(
            Mapping.from_pairs("p4", "p2", {"Creator": "Creator"}),
            bidirectional=False,
        )
        check()
        network.remove_mapping("p2->p4")
        check()
        network.add_mapping(
            Mapping.from_pairs("p3", "p1", {"Creator": "Creator"}),
            bidirectional=False,
        )
        check()
        assert cache.statistics.partial_refreshes == 3 * len(network.peer_names)
        assert cache.statistics.partial_refreshes > cache.statistics.probes

    def test_add_peer_carries_existing_origins(self):
        network = intro_example_network(with_records=False)
        cache = StructureCache(network, ttl=4)
        cache.structures_for("p2")
        network.add_peer(Peer("p9", Schema.from_names("p9", ["Creator"])))
        cache.structures_for("p2")
        cache.structures_for("p9")
        # p2's walks are inherited; only the new peer walks cold.
        assert cache.statistics.probes == 2
        assert cache.statistics.partial_refreshes == 1
        assert cache.statistics.work_units == 4


class TestLocalViewResolutionOrder:
    """Regression tests for the assess_local correctness fixes."""

    def test_prior_fallback_with_informative_evidence(self):
        """An own mapping without informative evidence is no longer dropped
        from the local view — it falls back to its prior."""
        network, priors = _dangling_network(default_prior=0.8)
        assessor = MappingQualityAssessor(network, priors=priors, delta=0.1, ttl=4)
        for local in _both_views(assessor, "p3", "Creator"):
            # p3->p4 sits in informative cycles; p3->p5 has no evidence.
            assert local["p3->p4"] > 0.5
            assert local["p3->p5"] == pytest.approx(0.8)

    def test_bottom_rule_applies_with_informative_evidence(self):
        """An own mapping whose source schema declares the attribute but
        that provides no correspondence scores 0.0, not its prior — even
        when the origin has informative evidence for other mappings."""
        network = intro_example_network(with_records=False)
        network.remove_mapping("p2->p4")
        incomplete = Mapping.from_pairs(
            "p2",
            "p4",
            {
                concept: concept
                for concept in INTRO_SCHEMA_CONCEPTS
                if concept != "Creator"
            },
        )
        network.add_mapping(incomplete, bidirectional=False)
        assessor = MappingQualityAssessor(network, delta=0.1, ttl=4)
        for local in _both_views(assessor, "p2", "Creator"):
            assert local["p2->p4"] == 0.0
            assert local["p2->p3"] > 0.5
        assert assessor.probability("p2->p4", "Creator") == 0.0

    def test_bottom_rule_applies_without_evidence(self):
        """The no-evidence branch also applies the ⊥ rule instead of
        silently dropping unmappable own mappings."""
        network = intro_example_network(with_records=False)
        network.add_peer(Peer("p6", Schema.from_names("p6", ["Creator", "Title"])))
        network.add_mapping(
            Mapping.from_pairs("p6", "p1", {"Title": "Title"}),
            bidirectional=False,
        )
        assessor = MappingQualityAssessor(network, delta=0.1, ttl=4)
        for local in _both_views(assessor, "p6", "Creator"):
            assert local == {"p6->p1": 0.0}
        for title_view in _both_views(assessor, "p6", "Title"):
            assert title_view["p6->p1"] == pytest.approx(0.5)

    def test_no_evidence_branch_returns_priors(self):
        network = intro_example_network(with_records=False)
        assessor = MappingQualityAssessor(network, delta=0.1, ttl=1)
        local = assessor.assess_locals(["p2"], "Creator")["p2"]
        assert set(local) == {"p2->p1", "p2->p3", "p2->p4"}
        assert all(value == pytest.approx(0.5) for value in local.values())


class TestThetaConsistency:
    """Regression: flagged_mappings must agree with is_erroneous."""

    def test_prior_below_theta_is_flagged(self):
        network, priors = _dangling_network(default_prior=0.3)
        assessor = MappingQualityAssessor(network, priors=priors, delta=0.1, ttl=4)
        assessor.assess_attribute("Creator")
        assert assessor.is_erroneous("p3->p5", "Creator", theta=0.5)
        assert "p3->p5" in assessor.flagged_mappings("Creator", theta=0.5)

    def test_prior_above_theta_is_not_flagged(self):
        network, priors = _dangling_network(default_prior=0.8)
        assessor = MappingQualityAssessor(network, priors=priors, delta=0.1, ttl=4)
        assert not assessor.is_erroneous("p3->p5", "Creator", theta=0.5)
        assert "p3->p5" not in assessor.flagged_mappings("Creator", theta=0.5)

    def test_unmappable_mapping_is_flagged(self):
        network = intro_example_network(with_records=False)
        network.add_peer(Peer("p6", Schema.from_names("p6", ["Creator", "Title"])))
        network.add_mapping(
            Mapping.from_pairs("p6", "p1", {"Title": "Title"}),
            bidirectional=False,
        )
        assessor = MappingQualityAssessor(network, delta=0.1, ttl=4)
        flagged = assessor.flagged_mappings("Creator", theta=0.5)
        assert "p6->p1" in flagged
        assert assessor.is_erroneous("p6->p1", "Creator", theta=0.5)

    def test_decisions_agree_over_the_full_mapping_set(self):
        network, priors = _dangling_network(default_prior=0.3)
        assessor = MappingQualityAssessor(network, priors=priors, delta=0.1, ttl=4)
        flagged = set(assessor.flagged_mappings("Creator", theta=0.5))
        for mapping in network.mappings:
            in_scope = mapping.maps_attribute("Creator") or mapping.name in (
                assessor.assessment("Creator").unmappable
            )
            if not in_scope:
                continue
            assert (
                mapping.name in flagged
            ) == assessor.is_erroneous(mapping, "Creator", theta=0.5)

    def test_invalid_theta_rejected(self):
        network = intro_example_network(with_records=False)
        assessor = MappingQualityAssessor(network, delta=0.1, ttl=4)
        from repro.exceptions import ReproError

        with pytest.raises(ReproError):
            assessor.flagged_mappings("Creator", theta=-0.1)


class TestAssessMappingEmptyAttributes:
    """Regression: no fabricated "*" attribute key."""

    def test_explicit_empty_iterable_raises(self):
        network = intro_example_network(with_records=False)
        assessor = MappingQualityAssessor(network, delta=0.1, ttl=3)
        with pytest.raises(FeedbackError, match="at least one attribute"):
            assessor.assess_mapping("p2->p3", attributes=())

    def test_mapping_without_correspondences_scores_zero(self):
        network = intro_example_network(with_records=False)
        network.add_mapping(Mapping(source="p3", target="p1"), bidirectional=False)
        assessor = MappingQualityAssessor(network, delta=0.1, ttl=3)
        assert assessor.assess_mapping("p3->p1") == 0.0


class TestOverlappingLanes:
    """Lanes that share structures or mappings land on separate slices."""

    def test_overlapping_lanes_run_solo(self):
        network = intro_example_network(with_records=False)
        assessor = MappingQualityAssessor(network, delta=0.1, ttl=4)
        plan, blocks = assessor._local_assessment_plan(network.peer_names)
        origin = network.peer_names[0]
        (lane,) = _origin_lanes(
            assessor, plan, blocks, [origin], "Creator", delta=0.1
        )
        clone = replace(lane, key="clone", delta=0.3)
        together = BatchedEmbeddedMessagePassing(plan, [lane, clone]).run()
        alone = {
            **BatchedEmbeddedMessagePassing(plan, [lane]).run(),
            **BatchedEmbeddedMessagePassing(plan, [clone]).run(),
        }
        assert together["clone"] is not None
        _assert_same_results(together, alone)

    def test_non_block_diagonal_lanes_run_solo(self):
        """Two lanes whose structures share mappings run independently."""
        network = intro_example_network(with_records=False)
        assessor = MappingQualityAssessor(network, delta=0.1, ttl=4)
        shared_plan = assessor.assessment_plan()
        evidence = assessor.structure_cache.evidence_for("Creator")
        half = shared_plan.structure_count // 2
        first_half = range(half)
        second_half = range(half, shared_plan.structure_count)
        first = AssessmentLane(
            key="first",
            codes=lower_feedbacks(shared_plan, evidence.feedbacks[:half], first_half),
            structure_indices=first_half,
        )
        second = AssessmentLane(
            key="second",
            codes=lower_feedbacks(shared_plan, evidence.feedbacks[half:], second_half),
            structure_indices=second_half,
        )
        together = BatchedEmbeddedMessagePassing(shared_plan, [first, second]).run()
        alone = {
            **BatchedEmbeddedMessagePassing(shared_plan, [first]).run(),
            **BatchedEmbeddedMessagePassing(shared_plan, [second]).run(),
        }
        assert together["first"] is not None and together["second"] is not None
        _assert_same_results(together, alone)


class TestLocalRoutingWiring:
    def test_local_oracle_blocks_faulty_mapping(self):
        network = intro_example_network(with_records=True)
        assessor = MappingQualityAssessor(network, delta=0.1, ttl=4, seed=0)
        assert assessor.local_probability("p2->p4", "Creator") < 0.5
        assert assessor.local_probability("p2->p3", "Creator") > 0.5

        from repro.pdms.query import Query, substring_predicate

        router = assessor.local_router(policy=RoutingPolicy(default_threshold=0.5))
        query = Query.select_project(
            "p2",
            project=["Creator"],
            where={"Subject": substring_predicate("river")},
        )
        trace = router.route(query)
        assert "p2->p4" in {hop.mapping_name for hop in trace.blocked_hops}

    def test_local_oracle_refreshes_on_topology_mutation(self):
        """Regression: the local routing oracle must not serve views of a
        stale topology version after a tracked mutation."""
        network = intro_example_network(with_records=False)
        assessor = MappingQualityAssessor(network, delta=0.1, ttl=4, seed=0)
        assert assessor.local_probability("p2->p4", "Creator") < 0.5
        network.remove_mapping("p2->p4")
        # The mapping is gone: its own peer no longer reports it at all, so
        # the oracle falls through to the ⊥/prior resolution of the fresh
        # view instead of the stale posterior.
        fresh = assessor.assess_local_all("Creator")
        assert "p2->p4" not in fresh["p2"]
        assert assessor.local_probability("p2->p3", "Creator") == pytest.approx(
            fresh["p2"]["p2->p3"]
        )

    def test_local_oracle_refreshes_after_prior_update(self):
        """Regression: EM prior updates drop the cached local views, so the
        local oracle's prior-fallback entries track the live store."""
        network, priors = _dangling_network(default_prior=0.8)
        assessor = MappingQualityAssessor(network, priors=priors, delta=0.1, ttl=4)
        assert assessor.local_probability("p3->p5", "Creator") == pytest.approx(0.8)
        assessor.assess_attribute("Creator")
        assessor.update_priors(["Creator"])
        # p3->p5 has no posterior, but other priors moved; the oracle must
        # agree with the global resolution for the fallback entry.
        assert assessor.local_probability("p3->p5", "Creator") == pytest.approx(
            assessor.probability("p3->p5", "Creator")
        )

    def test_local_views_cached_until_invalidate(self):
        network = intro_example_network(with_records=False)
        assessor = MappingQualityAssessor(network, delta=0.1, ttl=4, seed=0)
        assessor.local_probability("p2->p4", "Creator")
        probes = assessor.neighborhood_cache.statistics.probes
        assessor.local_probability("p2->p3", "Creator")
        assert assessor.neighborhood_cache.statistics.probes == probes
        assessor.invalidate()
        assessor.local_probability("p2->p4", "Creator")
        assert assessor.neighborhood_cache.statistics.probes == 2 * probes

    def test_local_router_reuses_assess_local_all(self, monkeypatch):
        """After ``assess_local_all(a)`` a local router over ``a`` runs no
        second sweep and answers exactly the views that sweep returned;
        after ``update_priors`` they are stale, and a read runs the one
        lane of the asked mapping's source."""
        from repro.pdms.query import Query

        network = intro_example_network(with_records=True)
        assessor = MappingQualityAssessor(network, delta=0.1, ttl=4, seed=0)
        views = assessor.assess_local_all("Creator")
        sweeps = []
        sweep = assessor.assess_locals

        def counting_sweep(origins, attribute):
            sweeps.append((list(origins), attribute))
            return sweep(origins, attribute)

        monkeypatch.setattr(assessor, "assess_locals", counting_sweep)
        router = assessor.local_router(policy=RoutingPolicy(default_threshold=0.5))
        assert router.route(Query.select_project("p2", project=["Creator"])).hops
        for view in views.values():
            for name, value in view.items():
                assert assessor.local_probability(name, "Creator") == value
        assert sweeps == []

        # The caller's dicts are copies of the stored views.
        views["p2"]["p2->p4"] = 1.0
        assert assessor.local_probability("p2->p4", "Creator") < 0.5
        assert sweeps == []

        assessor.update_priors(["Creator"])
        assessor.local_probability("p2->p4", "Creator")
        assert sweeps == [(["p2"], "Creator")]
