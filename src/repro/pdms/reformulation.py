"""Query reformulation through schema mappings.

When a peer forwards a query over a mapping, every operation's attribute is
rewritten to its image under the mapping (the XQuery ``T12`` transformation
of the paper's Figure 2 collapses, for our purposes, to this renaming).
Operations whose attribute has no image are dropped; the result records
which attributes were preserved, translated or lost so that the router and
the feedback analysis can reason about them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..exceptions import QueryError
from ..mapping.mapping import Mapping
from .query import Operation, Query

__all__ = ["ReformulationResult", "reformulate"]


@dataclass(frozen=True)
class ReformulationResult:
    """Outcome of pushing a query through one mapping.

    Attributes
    ----------
    query:
        The reformulated query expressed against the target schema, or
        ``None`` when no operation survived the mapping.
    translated:
        ``{original attribute: target attribute}`` for attributes that
        survived.
    lost:
        Attributes of the original query the mapping could not translate
        (the ⊥ case).
    """

    query: Optional[Query]
    translated: Dict[str, str]
    lost: Tuple[str, ...]


def reformulate(query: Query, mapping: Mapping) -> ReformulationResult:
    """Reformulate ``query`` through ``mapping``.

    The query must be expressed against the mapping's source schema.
    """
    if query.schema_name != mapping.source:
        raise QueryError(
            f"query is against schema {query.schema_name!r} but mapping "
            f"{mapping.name} departs from {mapping.source!r}"
        )
    translated: Dict[str, str] = {}
    lost: List[str] = []
    new_operations: List[Operation] = []
    for operation in query.operations:
        image = mapping.apply(operation.attribute)
        if image is None:
            if operation.attribute not in lost:
                lost.append(operation.attribute)
            continue
        translated[operation.attribute] = image
        new_operations.append(operation.renamed(image))
    if not new_operations:
        return ReformulationResult(query=None, translated=translated, lost=tuple(lost))
    reformulated = query.with_operations(new_operations, schema_name=mapping.target)
    return ReformulationResult(
        query=reformulated, translated=translated, lost=tuple(lost)
    )

