"""Synthetic stand-in for the EON Ontology Alignment Contest bibliography set.

The paper's real-world experiment (Figure 12) imports six bibliographic
ontologies — the EON reference ontology (101), its French translation (221),
the MIT and UMBC BibTeX ontologies, and the INRIA and Karlsruhe bibliography
ontologies — each of roughly thirty concepts, aligns them automatically and
measures how well the message-passing scheme spots the wrong
correspondences.

The original OWL files are not redistributable here, so this module ships a
faithful *synthetic* counterpart (see DESIGN.md, substitutions): six
ontologies over the same ~30 canonical bibliographic concepts, each using
its own naming style (plain English, French, two BibTeX flavours, and two
institutional flavours).  The names are deliberately chosen so that the
simple string matchers of :mod:`repro.alignment.matchers` behave as they do
on the real data: most correspondences come out right, a significant
minority come out wrong (classic traps such as French *Editeur* = publisher
vs English *Editor*), and some concepts stay unmatched.

Every concept is annotated with the canonical concept it denotes, giving the
ground truth the evaluation harness scores against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..pdms.network import PDMSNetwork
from ..pdms.peer import Peer
from .aligner import AlignmentResult, OntologyAligner
from .matchers import CompositeMatcher
from .ontology import Concept, Ontology

__all__ = [
    "eon_ontologies",
    "eon_ground_truth",
    "build_eon_network",
    "EONScenario",
]

#: Per-ontology naming of every canonical concept (None = concept absent);
#: the reference ontology ``ref101`` names all thirty.
_NAMING: Dict[str, Dict[str, Optional[str]]] = {
    # 101 — the reference ontology, plain English names.
    "ref101": {
        "reference": "Reference",
        "article": "Article",
        "book": "Book",
        "conference-paper": "InProceedings",
        "technical-report": "TechnicalReport",
        "thesis": "Thesis",
        "proceedings": "Proceedings",
        "journal": "Journal",
        "publisher": "Publisher",
        "institution": "Institution",
        "school": "School",
        "author": "Author",
        "editor": "Editor",
        "title": "Title",
        "year": "Year",
        "month": "Month",
        "pages": "Pages",
        "volume": "Volume",
        "number": "Number",
        "chapter": "Chapter",
        "address": "Address",
        "abstract": "Abstract",
        "keywords": "Keywords",
        "note": "Note",
        "edition": "Edition",
        "series": "Series",
        "isbn": "ISBN",
        "url": "URL",
        "conference": "Conference",
        "organization": "Organization",
    },
    # 221 — the French translation of the reference ontology.  Note the
    # classic faux-ami: "Editeur" means *publisher*, "Redacteur" is the
    # editor; string matchers love to get these wrong.
    "fr221": {
        "reference": "Reference",
        "article": "Article",
        "book": "Livre",
        "conference-paper": "ArticleDeConference",
        "technical-report": "RapportTechnique",
        "thesis": "These",
        "proceedings": "Actes",
        "journal": "Revue",
        "publisher": "Editeur",
        "institution": "Institution",
        "school": "Ecole",
        "author": "Auteur",
        "editor": "Redacteur",
        "title": "Titre",
        "year": "Annee",
        "month": "Mois",
        "pages": "Pages",
        "volume": "Volume",
        "number": "Numero",
        "chapter": "Chapitre",
        "address": "Adresse",
        "abstract": "Resume",
        "keywords": "MotsCles",
        "note": "Note",
        "edition": "Edition",
        "series": "Collection",
        "isbn": "ISBN",
        "url": "URL",
        "conference": "Conference",
        "organization": "Organisation",
    },
    # MIT BibTeX — lower-case BibTeX entry/field names.
    "mit-bibtex": {
        "reference": "entry",
        "article": "article",
        "book": "book",
        "conference-paper": "inproceedings",
        "technical-report": "techreport",
        "thesis": "phdthesis",
        "proceedings": "proceedings",
        "journal": "journal",
        "publisher": "publisher",
        "institution": "institution",
        "school": "school",
        "author": "author",
        "editor": "editor",
        "title": "title",
        "year": "year",
        "month": "month",
        "pages": "pages",
        "volume": "volume",
        "number": "number",
        "chapter": "chapter",
        "address": "address",
        "abstract": "annote",
        "keywords": "keywords",
        "note": "note",
        "edition": "edition",
        "series": "series",
        "isbn": "isbn",
        "url": "howpublished",
        "conference": "conference",
        "organization": "organization",
    },
    # UMBC BibTeX — verbose CamelCase names.
    "umbc-bibtex": {
        "reference": "Publication",
        "article": "JournalArticle",
        "book": "Monograph",
        "conference-paper": "ConferencePaper",
        "technical-report": "TechReport",
        "thesis": "Dissertation",
        "proceedings": "ConferenceProceedings",
        "journal": "Periodical",
        "publisher": "PublishingHouse",
        "institution": "Institute",
        "school": "University",
        "author": "Creator",
        "editor": "EditorName",
        "title": "DocumentTitle",
        "year": "PublicationYear",
        "month": "PublicationMonth",
        "pages": "PageRange",
        "volume": "VolumeNumber",
        "number": "IssueNumber",
        "chapter": "ChapterNumber",
        "address": "PublisherAddress",
        "abstract": "Summary",
        "keywords": "SubjectTerms",
        "note": "Annotation",
        "edition": "EditionNumber",
        "series": "SeriesTitle",
        "isbn": "ISBNCode",
        "url": "WebAddress",
        "conference": "Meeting",
        "organization": "SponsoringBody",
    },
    # INRIA — property-style camelCase names.
    "inria": {
        "reference": "bibliographicEntry",
        "article": "journalPaper",
        "book": "monography",
        "conference-paper": "conferencePaper",
        "technical-report": "researchReport",
        "thesis": "dissertation",
        "proceedings": "conferenceProceedings",
        "journal": "journal",
        "publisher": "publishingEditor",
        "institution": "institution",
        "school": "university",
        "author": "hasAuthor",
        "editor": "hasEditor",
        "title": "hasTitle",
        "year": "publicationYear",
        "month": "publicationMonth",
        "pages": "pageNumbers",
        "volume": "volumeOf",
        "number": "issueOf",
        "chapter": "chapterOf",
        "address": "publisherLocation",
        "abstract": "hasAbstract",
        "keywords": "keyword",
        "note": "remark",
        "edition": "editionOf",
        "series": "partOfSeries",
        "isbn": "isbnNumber",
        "url": "webResource",
        "conference": "conferenceEvent",
        "organization": "organizedBy",
    },
    # Karlsruhe — German-flavoured mixed names.
    "karlsruhe": {
        "reference": "Publikation",
        "article": "ArticleReference",
        "book": "BookReference",
        "conference-paper": "ConferenceArticle",
        "technical-report": "Report",
        "thesis": "PhDThesis",
        "proceedings": "ProceedingsReference",
        "journal": "Journal",
        "publisher": "Verlag",
        "institution": "Institut",
        "school": "Universitaet",
        "author": "AuthorPerson",
        "editor": "EditorPerson",
        "title": "TitleOfWork",
        "year": "YearOfPublication",
        "month": "MonthOfPublication",
        "pages": "NumberOfPages",
        "volume": "VolumeTitle",
        "number": "Number",
        "chapter": "ChapterTitle",
        "address": "Address",
        "abstract": "AbstractText",
        "keywords": "Keyword",
        "note": "Note",
        "edition": "Edition",
        "series": "SeriesName",
        "isbn": "ISBN",
        "url": "OnlineResource",
        "conference": "ConferenceEvent",
        "organization": "Organization",
    },
}


def eon_ontologies() -> List[Ontology]:
    """Build the six synthetic bibliographic ontologies."""
    languages = {
        "ref101": "en",
        "fr221": "fr",
        "mit-bibtex": "en",
        "umbc-bibtex": "en",
        "inria": "en",
        "karlsruhe": "en",
    }
    ontologies: List[Ontology] = []
    for ontology_name, naming in _NAMING.items():
        concepts = [
            Concept(name=concept_name, comment=f"denotes canonical concept {canonical!r}")
            for canonical, concept_name in naming.items()
            if concept_name is not None
        ]
        ontologies.append(
            Ontology(ontology_name, concepts=concepts, language=languages[ontology_name])
        )
    return ontologies


def eon_ground_truth() -> Dict[Tuple[str, str], str]:
    """Ground truth: (ontology, concept name) → canonical concept id."""
    truth: Dict[Tuple[str, str], str] = {}
    for ontology_name, naming in _NAMING.items():
        for canonical, concept_name in naming.items():
            if concept_name is None:
                continue
            truth[(ontology_name, concept_name)] = canonical
    return truth


@dataclass
class EONScenario:
    """The full synthetic EON setting: network, mappings and ground truth."""

    network: PDMSNetwork
    ontologies: List[Ontology]
    alignments: Dict[Tuple[str, str], AlignmentResult]
    ground_truth: Dict[Tuple[str, str], bool]

    @property
    def correspondence_count(self) -> int:
        """Total number of generated attribute correspondences ("mappings"
        in the paper's Figure 12 terminology)."""
        return sum(result.correspondence_count for result in self.alignments.values())

    @property
    def erroneous_count(self) -> int:
        return sum(result.erroneous_count for result in self.alignments.values())

    @property
    def error_rate(self) -> float:
        total = self.correspondence_count
        return self.erroneous_count / total if total else 0.0

    def is_correct(self, mapping_name: str, source_attribute: str) -> Optional[bool]:
        return self.ground_truth.get((mapping_name, source_attribute))


def build_eon_network(
    threshold: float = 0.55,
    matcher: Optional[CompositeMatcher] = None,
    pairs: Optional[Iterable[Tuple[str, str]]] = None,
) -> EONScenario:
    """Align the six ontologies and assemble the resulting PDMS.

    Every ordered pair of ontologies is aligned (giving 30 directed schema
    mappings, a few hundred attribute correspondences in total, a sizeable
    minority of which are wrong), and each ontology becomes a peer whose
    schema is the ontology's concept list — the exact setting of the paper's
    Figure 12 experiment, with synthetic ontologies substituted for the EON
    originals.
    """
    ontologies = eon_ontologies()
    aligner = OntologyAligner(
        matcher=matcher, threshold=threshold, ground_truth=eon_ground_truth()
    )
    alignments = aligner.align_all(ontologies, pairs=pairs)

    network = PDMSNetwork(name="eon-bibliography", directed=True)
    for ontology in ontologies:
        network.add_peer(Peer(ontology.name, ontology.to_schema()))
    ground_truth: Dict[Tuple[str, str], bool] = {}
    for result in alignments.values():
        mapping = result.mapping
        if len(mapping) == 0:
            continue
        network.add_mapping(mapping, bidirectional=False)
        for correspondence in mapping.correspondences:
            ground_truth[(mapping.name, correspondence.source_attribute)] = (
                correspondence.is_correct is not False
            )
    return EONScenario(
        network=network,
        ontologies=ontologies,
        alignments=alignments,
        ground_truth=ground_truth,
    )
