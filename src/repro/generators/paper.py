"""The paper's named experimental setups, reproduced as reusable builders.

Every figure of the evaluation section works on one of a handful of small,
hand-specified configurations:

* the **introductory example** (Figures 1 and 5, revisited in §4.5): four
  art databases, six directed mappings, one of which erroneously maps
  ``Creator`` onto ``CreatedOn``;
* the **example factor graph** (Figure 4): five mappings, three cycle
  feedbacks — used for the convergence (Figure 7) and fault-tolerance
  (Figure 11) experiments;
* the **growing-cycle family** (Figure 8): the example graph whose long
  cycle is stretched by inserting additional peers — used for the
  relative-error experiment (Figure 9);
* the **single positive cycle** of 2–20 mappings — used for the
  cycle-length experiment (Figure 10).

The builders below return either fully materialised
:class:`~repro.pdms.network.PDMSNetwork` objects (when instance data and
routing matter) or plain lists of :class:`~repro.core.feedback.Feedback`
(when only the probabilistic model matters, exactly like the paper which
simply posits the feedback signs).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..core.feedback import Feedback, FeedbackKind, StructureKind
from ..mapping.mapping import Mapping
from ..pdms.network import PDMSNetwork
from ..pdms.peer import Peer
from ..schema.schema import Schema

__all__ = [
    "INTRO_ATTRIBUTE",
    "INTRO_SCHEMA_CONCEPTS",
    "intro_example_network",
    "intro_example_feedbacks",
    "figure4_feedbacks",
    "extended_cycle_feedbacks",
    "single_cycle_feedback",
]

#: The attribute the worked example reasons about.
INTRO_ATTRIBUTE = "Creator"

#: Eleven concepts per schema, giving Δ = 1/10 as in §4.5.
INTRO_SCHEMA_CONCEPTS: Tuple[str, ...] = (
    "Creator",
    "Title",
    "Subject",
    "CreatedOn",
    "Identifier",
    "Format",
    "Language",
    "Publisher",
    "Rights",
    "Medium",
    "Location",
)

_SIGNS = {"+": FeedbackKind.POSITIVE, "-": FeedbackKind.NEGATIVE, "0": FeedbackKind.NEUTRAL}


def _kind(sign: str | FeedbackKind) -> FeedbackKind:
    if isinstance(sign, FeedbackKind):
        return sign
    return _SIGNS[sign]


# ---------------------------------------------------------------------------
# Introductory example (Figures 1 / 5, §1.2 and §4.5)
# ---------------------------------------------------------------------------


def intro_example_network(with_records: bool = True) -> PDMSNetwork:
    """The four-peer art-database PDMS of the introductory example.

    Six directed mappings: ``p1→p2``, ``p2→p1``, ``p2→p3``, ``p3→p4``,
    ``p4→p1`` and ``p2→p4``; all are correct except ``p2→p4`` which maps
    ``Creator`` onto ``CreatedOn`` (the error the paper's detector flags).
    """
    network = PDMSNetwork(name="intro-example", directed=True)
    schemas = {
        name: Schema.from_names(name, INTRO_SCHEMA_CONCEPTS)
        for name in ("p1", "p2", "p3", "p4")
    }
    for name, schema in schemas.items():
        network.add_peer(Peer(name, schema))

    def correct(source: str, target: str) -> Mapping:
        return Mapping.from_pairs(
            source,
            target,
            {concept: concept for concept in INTRO_SCHEMA_CONCEPTS},
            is_correct=True,
            provenance="intro-example",
        )

    network.add_mapping(correct("p1", "p2"), bidirectional=False)
    network.add_mapping(correct("p2", "p1"), bidirectional=False)
    network.add_mapping(correct("p2", "p3"), bidirectional=False)
    network.add_mapping(correct("p3", "p4"), bidirectional=False)
    network.add_mapping(correct("p4", "p1"), bidirectional=False)

    faulty = Mapping(source="p2", target="p4")
    for concept in INTRO_SCHEMA_CONCEPTS:
        if concept == INTRO_ATTRIBUTE:
            # The erroneous correspondence of the introductory example.
            faulty.add(
                correct("p2", "p4").correspondence_for(concept).with_target(
                    "CreatedOn", is_correct=False
                )
            )
        else:
            faulty.add(correct("p2", "p4").correspondence_for(concept))
    network.add_mapping(faulty, bidirectional=False)

    if with_records:
        network.peer("p2").insert_many(
            [
                {"Creator": "Henry Peach Robinson", "Subject": "A view of the river Medway", "Title": "Landscape"},
                {"Creator": "Claude Monet", "Subject": "The river Seine at dawn", "Title": "Morning on the Seine"},
                {"Creator": "Paul Cezanne", "Subject": "Still life with apples", "Title": "Nature morte"},
            ]
        )
        network.peer("p3").insert_many(
            [
                {"Creator": "Alfred Sisley", "Subject": "Flood at the river bank", "Title": "The Flood"},
                {"Creator": "Gustave Courbet", "Subject": "Portrait of a man", "Title": "The Desperate Man"},
            ]
        )
        network.peer("p4").insert_many(
            [
                {"Creator": "Katsushika Hokusai", "Subject": "The great wave off the river mouth", "CreatedOn": "1831"},
                {"Creator": "J. M. W. Turner", "Subject": "Rain, steam and speed", "CreatedOn": "1844"},
            ]
        )
        network.peer("p1").insert_many(
            [
                {"Creator": "Vincent van Gogh", "Subject": "Starry night over the river Rhone", "CreatedOn": "1888"},
            ]
        )
    return network


def intro_example_feedbacks(attribute: str = INTRO_ATTRIBUTE) -> List[Feedback]:
    """The three feedbacks p2 gathers in §4.5 (f1+, f2−, f3−⇒)."""
    return [
        Feedback(
            identifier="f1",
            kind=FeedbackKind.POSITIVE,
            structure=StructureKind.CYCLE,
            mapping_names=("p1->p2", "p2->p3", "p3->p4", "p4->p1"),
            attribute=attribute,
            origin="p2",
        ),
        Feedback(
            identifier="f2",
            kind=FeedbackKind.NEGATIVE,
            structure=StructureKind.CYCLE,
            mapping_names=("p1->p2", "p2->p4", "p4->p1"),
            attribute=attribute,
            origin="p2",
        ),
        Feedback(
            identifier="f3=>",
            kind=FeedbackKind.NEGATIVE,
            structure=StructureKind.PARALLEL_PATHS,
            mapping_names=("p2->p4", "p2->p3", "p3->p4"),
            attribute=attribute,
            origin="p2",
        ),
    ]


# ---------------------------------------------------------------------------
# Example factor graph of Figure 4 (used by Figures 7 and 11)
# ---------------------------------------------------------------------------


def figure4_feedbacks(
    signs: Sequence[str | FeedbackKind] = ("+", "-", "-"),
    attribute: str = INTRO_ATTRIBUTE,
) -> List[Feedback]:
    """The three cycle feedbacks of the Figure 4 example graph.

    ``signs`` gives the observed outcome of ``f1`` (m12–m23–m34–m41),
    ``f2`` (m12–m24–m41) and ``f3`` (m23–m34–m24); the paper's convergence
    and fault-tolerance experiments use ``(+, −, −)``.
    """
    if len(signs) != 3:
        raise ValueError(f"figure4_feedbacks needs exactly 3 signs, got {len(signs)}")
    structures = (
        ("f1", ("p1->p2", "p2->p3", "p3->p4", "p4->p1")),
        ("f2", ("p1->p2", "p2->p4", "p4->p1")),
        ("f3", ("p2->p3", "p3->p4", "p2->p4")),
    )
    return [
        Feedback(
            identifier=identifier,
            kind=_kind(sign),
            structure=StructureKind.CYCLE,
            mapping_names=mapping_names,
            attribute=attribute,
            origin="p1",
        )
        for (identifier, mapping_names), sign in zip(structures, signs)
    ]


# ---------------------------------------------------------------------------
# Growing-cycle family of Figure 8 (used by Figure 9)
# ---------------------------------------------------------------------------


def extended_cycle_feedbacks(
    extra_peers: int,
    signs: Sequence[str | FeedbackKind] = ("+", "-", "-"),
    attribute: str = INTRO_ATTRIBUTE,
) -> List[Feedback]:
    """The Figure 4 example graph with ``extra_peers`` peers inserted on the
    p1→p2 edge (Figure 8), lengthening cycles f1 and f2.

    ``extra_peers=0`` reproduces :func:`figure4_feedbacks` exactly.
    """
    if extra_peers < 0:
        raise ValueError(f"extra_peers must be >= 0, got {extra_peers}")
    if len(signs) != 3:
        raise ValueError(f"extended_cycle_feedbacks needs exactly 3 signs")
    chain: List[str] = []
    previous = "p1"
    for index in range(1, extra_peers + 1):
        inserted = f"x{index}"
        chain.append(f"{previous}->{inserted}")
        previous = inserted
    chain.append(f"{previous}->p2")
    structures = (
        ("f1", tuple(chain) + ("p2->p3", "p3->p4", "p4->p1")),
        ("f2", tuple(chain) + ("p2->p4", "p4->p1")),
        ("f3", ("p2->p3", "p3->p4", "p2->p4")),
    )
    return [
        Feedback(
            identifier=identifier,
            kind=_kind(sign),
            structure=StructureKind.CYCLE,
            mapping_names=mapping_names,
            attribute=attribute,
            origin="p1",
        )
        for (identifier, mapping_names), sign in zip(structures, signs)
    ]


# ---------------------------------------------------------------------------
# Single positive cycle (Figure 10)
# ---------------------------------------------------------------------------


def single_cycle_feedback(
    length: int,
    kind: str | FeedbackKind = "+",
    attribute: str = INTRO_ATTRIBUTE,
) -> Feedback:
    """One cycle feedback over ``length`` mappings p1→p2→…→p1 (Figure 10)."""
    if length < 2:
        raise ValueError(f"a cycle needs at least 2 mappings, got {length}")
    mapping_names = tuple(
        f"p{i}->p{i % length + 1}" for i in range(1, length + 1)
    )
    return Feedback(
        identifier=f"cycle{length}",
        kind=_kind(kind),
        structure=StructureKind.CYCLE,
        mapping_names=mapping_names,
        attribute=attribute,
        origin="p1",
    )
