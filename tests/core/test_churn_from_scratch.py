"""A live assessor under peer and mapping churn against a from-scratch one.

The end-to-end ``sf1024-churn`` workload applies, every epoch, one peer
leave/rejoin plus four mapping churns to a scale-free network, and keeps
one assessor live across all epochs.  Its structures come from snapshots
that carry every walk a change leaves unchanged.  Here the same epoch shape
runs on 64 peers, and after every epoch the live posteriors and local
views must equal, float for float, those of an assessor that shares the
live priors but sits on a cold copy of the topology (``cold_copy``:
``PeerAdded`` / ``MappingAdded`` events in the live network's peer and
mapping order).  The parallel-path run probes with ttl 2: at ttl 3 the
64-peer network holds ~6,100 parallel-path structures and one sweep takes
seconds.
"""

import random

import pytest
from cold_copy import cold_copy

from repro.core.quality import MappingQualityAssessor
from repro.generators.scenarios import generate_scenario

EPOCHS = 8


def _epoch(network, rng):
    """One peer leaves and rejoins with its mappings; four mappings are
    removed and added back."""
    victim = rng.choice(network.peer_names)
    incident = [
        mapping
        for mapping in network.mappings
        if victim in (mapping.source, mapping.target)
    ]
    churn = rng.sample(network.mapping_names, 4)
    network.add_peer(network.remove_peer(victim))
    for mapping in incident:
        network.add_mapping(mapping, bidirectional=False)
    for name in churn:
        network.add_mapping(network.remove_mapping(name), bidirectional=False)


@pytest.mark.parametrize("include_parallel_paths, ttl", [(False, 3), (True, 2)])
def test_live_assessor_matches_a_cold_topology(include_parallel_paths, ttl):
    network = generate_scenario(
        "scale-free", 64, attribute_count=4, error_rate=0.15, seed=3
    ).network
    attributes = network.attribute_universe()

    def assessor(on, priors=None):
        return MappingQualityAssessor(
            on,
            priors=priors,
            delta=None,
            ttl=ttl,
            include_parallel_paths=include_parallel_paths,
        )

    def state(judge, attribute):
        return {
            "global": {
                name: assessment.posteriors
                for name, assessment in judge.assess_attributes(attributes).items()
            },
            "local": judge.assess_local_all(attribute),
        }

    live = assessor(network)
    state(live, attributes[0])
    rng = random.Random(7919)
    for epoch in range(EPOCHS):
        _epoch(network, rng)
        attribute = attributes[epoch % len(attributes)]
        observed = state(live, attribute)
        assert observed == state(assessor(cold_copy(network), live.priors), attribute)
        live.update_priors([attribute])
    # The live side read carried walks, not cold ones.
    statistics = live.neighborhood_cache.statistics
    assert statistics.partial_refreshes > 0
    assert statistics.probes <= len(network.peer_names) + EPOCHS
