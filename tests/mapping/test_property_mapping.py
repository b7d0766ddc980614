"""Property-based tests for mapping composition invariants and names."""

import string

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import MappingError
from repro.mapping.composition import POSITIVE, round_trip_outcome
from repro.mapping.mapping import Mapping

attribute_names = st.lists(
    st.text(alphabet=string.ascii_uppercase, min_size=1, max_size=6),
    min_size=2,
    max_size=8,
    unique=True,
)


def identity_chain(attributes, peer_count):
    peers = [f"p{i}" for i in range(1, peer_count + 1)]
    chain = []
    for first, second in zip(peers, peers[1:] + peers[:1]):
        chain.append(Mapping.from_pairs(first, second, {a: a for a in attributes}))
    return chain


@given(attribute_names, st.integers(min_value=2, max_value=6))
@settings(max_examples=40, deadline=None)
def test_identity_cycle_always_gives_positive_feedback(attributes, peer_count):
    chain = identity_chain(attributes, peer_count)
    for attribute in attributes:
        assert round_trip_outcome(chain, attribute) == POSITIVE


@given(attribute_names, st.data())
@settings(max_examples=40, deadline=None)
def test_permutation_mappings_compose_to_permutation(attributes, data):
    """A cycle of permutation mappings maps the attribute set onto itself."""
    permutation = data.draw(st.permutations(attributes))
    forward = Mapping.from_pairs("a", "b", dict(zip(attributes, permutation)))
    backward = Mapping.from_pairs("b", "a", dict(zip(permutation, attributes)))
    for attribute in attributes:
        assert round_trip_outcome([forward, backward], attribute) == POSITIVE


@given(attribute_names)
@settings(max_examples=30, deadline=None)
def test_reversed_mapping_inverts_identity(attributes):
    mapping = Mapping.from_pairs("a", "b", {x: x for x in attributes})
    reversed_mapping = mapping.reversed()
    for attribute in attributes:
        assert reversed_mapping.apply(mapping.apply(attribute)) == attribute


#: Short strings over the name delimiters ``->`` and ``#``.
delimited_text = st.text(alphabet="ab->#", max_size=5)


@given(delimited_text, delimited_text, delimited_text)
@settings(max_examples=200, deadline=None)
def test_every_mapping_name_parses_back_to_its_identity(source, target, label):
    """The first ``->`` ends the source and the first ``#`` after it ends
    the target, so two mappings share a name only if they share endpoints
    and label."""
    try:
        mapping = Mapping(source, target, label=label)
    except MappingError:
        endpoints = (source, target)
        assert (
            "" in endpoints
            or source == target
            or any("->" in endpoint or "#" in endpoint for endpoint in endpoints)
        )
        return
    parsed_source, rest = mapping.name.split("->", 1)
    parsed_target, _, parsed_label = rest.partition("#")
    assert (parsed_source, parsed_target, parsed_label) == (source, target, label)
