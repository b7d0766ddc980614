"""Differential test of the memoised evidence against fresh assessors.

The structure cache memoises each attribute's evidence per topology key,
and every per-origin block memoises its labelled feedbacks per attribute
for as long as the block lives.  Both are exact only if every change that
can alter a feedback — a topology event or a correspondence edit through
``PDMSNetwork.change_correspondences`` — reaches them.  Here one live
assessor runs through a random script of such changes; after each checked
step its global posteriors and every origin's local view must equal, float
for float, those of a fresh assessor with the same priors on a cold copy
of the network (``cold_copy``), which shares no snapshot, walk, block or
memo with the live side.
"""

import pytest
from cold_copy import cold_copy
from hypothesis import given, settings, strategies as st

from repro.core import analysis
from repro.core.quality import MappingQualityAssessor
from repro.generators.paper import intro_example_network
from repro.mapping.correspondence import Correspondence
from repro.mapping.mapping import Mapping
from repro.pdms.network import PDMSNetwork
from repro.pdms.peer import Peer
from repro.schema.schema import Schema

ATTRIBUTES = ("A", "B", "C")

#: One script step: ``(operation, i, j, check)``, with ``i`` and ``j``
#: read modulo the current peers, mappings or attributes.
STEPS = st.tuples(
    st.sampled_from(
        ["add", "remove", "rejoin", "retarget", "repair", "drop", "em"]
    ),
    st.integers(min_value=0, max_value=63),
    st.integers(min_value=0, max_value=63),
    st.booleans(),
)

SCRIPTS = st.tuples(
    st.integers(min_value=3, max_value=6),
    # Initial edges; repeated pairs become parallel mappings.
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=0, max_value=5),
        ),
        max_size=14,
    ),
    st.integers(min_value=2, max_value=4),
    st.booleans(),
    st.lists(STEPS, min_size=1, max_size=8),
)


def _peer(name):
    return Peer(name, Schema(name, list(ATTRIBUTES)))


def _identity(source, target, label):
    return Mapping.from_pairs(
        source, target, {a: a for a in ATTRIBUTES}, label=label
    )


def _without(mapping, attribute):
    """A copy of ``mapping`` with no correspondence for ``attribute`` (its
    source schema still declares it, so the ⊥ rule applies)."""
    return Mapping(
        mapping.source,
        mapping.target,
        [c for c in mapping.correspondences if c.source_attribute != attribute],
        label=mapping.label,
    )


def _pointed(mapping, attribute, target):
    """A copy of ``mapping`` whose ``attribute`` correspondence points at
    ``target`` (added when the mapping had none)."""
    return mapping.with_correspondence(
        Correspondence(attribute, target, is_correct=attribute == target)
    )


def _outcomes(assessor):
    """Every decision the evidence memos feed: global posteriors and ⊥
    sets, and every origin's local view, per attribute."""
    universe = assessor.network.attribute_universe()
    assessments = assessor.assess_attributes(universe)
    return (
        {a: (x.posteriors, x.unmappable) for a, x in assessments.items()},
        {a: assessor.assess_local_all(a) for a in universe},
    )


def _run_script(script, send_probability):
    """Apply ``script``, comparing the live assessor with a fresh one after
    every checked step; returns how many steps were compared."""
    peer_count, edges, ttl, include, steps = script
    network = PDMSNetwork("memo", directed=True)
    for index in range(peer_count):
        network.add_peer(_peer(f"p{index}"))
    labels = iter(range(10**6))

    def add(i, j):
        peers = network.peer_names
        source, target = peers[i % len(peers)], peers[j % len(peers)]
        if source != target:
            network.add_mapping(_identity(source, target, str(next(labels))))

    for i, j in edges:
        add(i, j)
    options = dict(
        delta=0.1,
        ttl=ttl,
        include_parallel_paths=include,
        send_probability=send_probability,
        seed=5,
    )
    live = MappingQualityAssessor(network, **options)
    _outcomes(live)
    compared = 0
    for operation, i, j, check in steps:
        names = network.mapping_names
        attribute = ATTRIBUTES[j % len(ATTRIBUTES)]
        if operation == "add":
            add(i, j)
        elif operation == "remove" and names:
            network.remove_mapping(names[i % len(names)])
        elif operation == "rejoin":
            name = network.peer_names[i % len(network.peer_names)]
            incident = [m for m in network.mappings if name in (m.source, m.target)]
            network.add_peer(network.remove_peer(name))
            for mapping in incident[: j % (len(incident) + 1)]:
                network.add_mapping(mapping)
        elif operation in ("retarget", "repair", "drop") and names:
            mapping = network.mapping(names[i % len(names)])
            if operation == "retarget":
                wrong = ATTRIBUTES[(j + 1) % len(ATTRIBUTES)]
                replacement = _pointed(mapping, attribute, wrong)
            elif operation == "repair":
                replacement = _pointed(mapping, attribute, attribute)
            else:
                replacement = _without(mapping, attribute)
            network.change_correspondences(replacement)
        elif operation == "em":
            live.update_priors()
        if not check:
            continue
        fresh = MappingQualityAssessor(
            cold_copy(network), priors=live.priors, **options
        )
        assert _outcomes(live) == _outcomes(fresh), operation
        compared += 1
    return compared


@pytest.mark.parametrize("send_probability", [1.0, 0.7])
def test_memoised_evidence_equals_a_fresh_assessor(send_probability):
    compared = []

    @given(SCRIPTS)
    @settings(max_examples=100, deadline=None)
    def check(script):
        compared.append(_run_script(script, send_probability))

    check()
    # Not vacuous: the scripts did compare states after their steps.
    assert sum(compared) > 0


def test_both_views_share_one_bottom_scan_per_version(monkeypatch):
    """The ⊥ scan reads every mapping; only the global view runs it, once
    per attribute and version, and an all-origins assessment runs none
    (each origin's own mappings resolve the ⊥ rule themselves)."""
    scans = []
    scan = analysis._unmappable_mappings

    def counted(network, attribute):
        scans.append((network.version, attribute))
        return scan(network, attribute)

    monkeypatch.setattr(analysis, "_unmappable_mappings", counted)
    network = intro_example_network(with_records=False)
    assessor = MappingQualityAssessor(network, ttl=4)
    assessor.assess_attributes(["Creator"])
    assessor.assess_local_all("Creator")
    assert scans == [(network.version, "Creator")]
    network.remove_mapping("p2->p4")
    assessor.assess_local_all("Creator")
    assessor.assess_attributes(["Creator"])
    assert len(scans) == 2 and scans[1] == (network.version, "Creator")
