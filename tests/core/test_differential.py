"""One differential guard for the production assessment path.

A hypothesis-drawn small scale-free PDMS (cycles only), a churn sequence
and a loss seed are pushed through :class:`MappingQualityAssessor`, and the
production path is compared against its two oracles:

1. **§4 fixed points.**  Lossless ``assess_attributes`` must land on the
   fixed points of centralised loopy belief propagation — the loops
   :class:`~repro.factorgraph.sum_product.SumProduct` reference run on
   ``build_factor_graph`` of the same evidence.
2. **Incremental caches.**  After the churn (mapping removal and re-add,
   peer leave and rejoin, assessed between every step so the caches refresh
   incrementally), the live assessor's ``assess_attributes`` and
   ``assess_local_all`` must equal a from-scratch assessor's.  The
   from-scratch side runs on a replayed twin of the network, so it lowers
   and walks its own snapshot instead of sharing the live one.
3. **Lossy rng streams.**  Under message loss every attribute lane and
   every per-origin lane must replay the per-message loop reference
   (``embedded_reference.py``) on the same evidence and seed: posteriors,
   iterations, attempts and deliveries.
"""

import pytest
from cold_copy import cold_copy
from embedded_reference import (
    assert_matches_reference,
    reference_assessment,
    reference_local_view,
)
from hypothesis import given, settings, strategies as st

from repro.core.embedded import EmbeddedOptions
from repro.core.feedback import variable_name_for
from repro.core.pdms_factor_graph import build_factor_graph
from repro.core.quality import MappingQualityAssessor
from repro.factorgraph.sum_product import run_sum_product
from repro.generators.scenarios import generate_scenario
from repro.pdms.peer import Peer

TTL = 3
DELTA = 0.1
ATTRIBUTE_COUNT = 3

#: Both engines iterate until their per-round change drops below 1e-11, so
#: each sits within 1e-11 / (1 - ρ) of its fixed point for a contraction
#: rate ρ.  The two formulations run different message schedules (priors
#: folded into the variable messages versus separate prior factors), so
#: they only meet *at* the fixed point; 1e-8 covers contraction rates up to
#: ρ = 0.999 while still catching any real divergence (a wrong factor table
#: or a dropped message moves posteriors by ≥1e-3).
FIXED_POINT_TOLERANCE = 1e-8
STOP_TOLERANCE = 1e-11
CONVERGED = EmbeddedOptions(max_rounds=500, tolerance=STOP_TOLERANCE)

#: A refreshed structure cache may list structures in a different order
#: than a fresh probe, which permutes floating-point products; the end-to-end
#: benchmark's live-vs-fresh gate uses the same bound.
REFRESH_TOLERANCE = 1e-9

#: The lanes replay the reference's rng streams exactly, so only the
#: kernels' product order separates them.
LOSSY_TOLERANCE = 1e-9


def _worst(stacked, reference):
    """Largest difference between two ``{key: float}`` dicts with equal keys."""
    assert set(stacked) == set(reference)
    return max(
        (abs(stacked[key] - reference[key]) for key in reference), default=0.0
    )


def _assessor(network, **kwargs):
    return MappingQualityAssessor(
        network, delta=DELTA, ttl=TTL, include_parallel_paths=False, **kwargs
    )


def _snapshot(assessor, attributes):
    assessments = assessor.assess_attributes(attributes)
    return (
        {a: dict(assessments[a].posteriors) for a in attributes},
        {a: assessor.assess_local_all(a) for a in attributes},
    )


def _churn(network, live, attributes, steps):
    """Apply ``steps`` to ``network``, assessing on ``live`` after each
    mutation so its caches take the incremental paths."""
    for kind, index in steps:
        if kind == "mapping":
            names = network.mapping_names
            mapping = network.mapping(names[index % len(names)])
            network.remove_mapping(mapping.name)
            _snapshot(live, attributes)
            network.add_mapping(mapping, bidirectional=False)
        else:
            peer = network.peers[index % len(network.peers)]
            incident = [
                mapping
                for mapping in network.mappings
                if peer.name in (mapping.source, mapping.target)
            ]
            network.remove_peer(peer.name)
            _snapshot(live, attributes)
            network.add_peer(Peer(peer.name, peer.schema))
            for mapping in incident:
                network.add_mapping(mapping, bidirectional=False)
        _snapshot(live, attributes)


churn_steps = st.lists(
    st.tuples(st.sampled_from(["mapping", "peer"]), st.integers(0, 63)),
    min_size=1,
    max_size=3,
)


@given(
    peer_count=st.integers(min_value=5, max_value=16),
    topology_seed=st.integers(min_value=0, max_value=10_000),
    steps=churn_steps,
    loss_seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=12, deadline=None)
def test_production_path_matches_its_oracles(
    peer_count, topology_seed, steps, loss_seed
):
    network = generate_scenario(
        topology="scale-free",
        peer_count=peer_count,
        attribute_count=ATTRIBUTE_COUNT,
        error_rate=0.2,
        seed=topology_seed,
    ).network
    attributes = network.attribute_universe()

    # 2. Churn: the live assessor refreshes incrementally between steps and
    #    must end where a from-scratch assessor starts.
    live = _assessor(network)
    _snapshot(live, attributes)
    _churn(network, live, attributes, steps)
    live_global, live_local = _snapshot(live, attributes)
    fresh_global, fresh_local = _snapshot(_assessor(cold_copy(network)), attributes)
    for attribute in attributes:
        assert _worst(
            live_global[attribute], fresh_global[attribute]
        ) <= REFRESH_TOLERANCE
        assert set(live_local[attribute]) == set(fresh_local[attribute])
        for origin, view in fresh_local[attribute].items():
            assert _worst(live_local[attribute][origin], view) <= REFRESH_TOLERANCE

    # 1. Lossless stacked sweeps reach the centralised loopy-BP fixed points.
    #    Loopy BP may oscillate on these graphs; a lane that never settles
    #    has no fixed point to compare, so only converged lanes are checked.
    converged = _assessor(network, options=CONVERGED)
    assessments = converged.assess_attributes(attributes)
    for attribute in attributes:
        assessment = assessments[attribute]
        evidence = assessment.evidence
        if not evidence.informative_feedbacks:
            assert assessment.posteriors == {}
            continue
        if not assessment.converged:
            continue
        graph = build_factor_graph(
            evidence.feedbacks, priors=0.5, delta=DELTA, attribute=attribute
        )
        reference = run_sum_product(
            graph.graph,
            max_iterations=2000,
            tolerance=STOP_TOLERANCE,
        )
        assert reference.converged
        for name, posterior in assessment.posteriors.items():
            expected = reference.probability_correct(
                variable_name_for(name, attribute)
            )
            assert posterior == pytest.approx(expected, abs=FIXED_POINT_TOLERANCE)

    # 3. Lossy lanes replay the per-message loop reference.
    stacked = _assessor(network, send_probability=0.7, seed=loss_seed)
    lossy = stacked.assess_attributes(attributes)
    for attribute in attributes:
        reference = reference_assessment(stacked, attribute)
        if reference is None:
            assert lossy[attribute].result is None
        else:
            assert_matches_reference(
                lossy[attribute].result, reference, LOSSY_TOLERANCE
            )
        views = stacked.assess_local_all(attribute)
        for origin in network.peer_names:
            assert _worst(
                views[origin], reference_local_view(stacked, origin, attribute)
            ) <= LOSSY_TOLERANCE
