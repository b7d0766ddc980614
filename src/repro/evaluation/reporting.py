"""Plain-text reporting helpers for the benchmark harness.

The benchmarks print the same rows / series the paper's figures show, next
to the paper's reference values, so a reader can eyeball whether the shape
of each result holds.  These helpers keep that formatting in one place.

The throughput runners return tuples of *points*: frozen dataclasses that
declare their table once, as a ``COLUMNS`` tuple of :class:`Column`.  The
CLI and the benchmarks render that declaration with :func:`format_points`,
and the benchmarks' JSON records come from :func:`point_record`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Iterable, List, Optional, Sequence

from .timing import Measurement

__all__ = [
    "Column",
    "format_table",
    "format_points",
    "point_record",
    "format_comparison",
]


@dataclass(frozen=True)
class Column:
    """One column of a point table: its header, the point attribute it
    shows, and the cell format (applied to the value times ``scale`` when
    one is given, e.g. ``1e3`` to show seconds as milliseconds)."""

    header: str
    name: str
    template: str = "{}"
    scale: Optional[float] = None

    def cell(self, point: object) -> str:
        value = getattr(point, self.name)
        return self.template.format(value if self.scale is None else value * self.scale)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render a simple fixed-width text table."""
    rendered_rows = [[_render(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = " | ".join(
        header.ljust(widths[index]) for index, header in enumerate(headers)
    )
    lines.append(header_line)
    lines.append("-+-".join("-" * width for width in widths))
    for row in rendered_rows:
        lines.append(
            " | ".join(cell.ljust(widths[index]) for index, cell in enumerate(row))
        )
    return "\n".join(lines)


def format_points(points: Sequence[object], title: Optional[str] = None) -> str:
    """Render points of one type as the table their ``COLUMNS`` declare."""
    columns = type(points[0]).COLUMNS
    return format_table(
        [column.header for column in columns],
        [[column.cell(point) for column in columns] for point in points],
        title=title,
    )


def point_record(point: object) -> Dict[str, object]:
    """A point as JSON-ready data: its fields (a :class:`Measurement` as
    its per-side, per-pair seconds) plus every value its columns derive."""
    record: Dict[str, object] = {}
    for item in fields(point):
        value = getattr(point, item.name)
        record[item.name] = value.seconds if isinstance(value, Measurement) else value
    for column in type(point).COLUMNS:
        record.setdefault(column.name, getattr(point, column.name))
    return record


def format_comparison(
    title: str,
    paper_value: object,
    measured_value: object,
    note: str = "",
) -> str:
    """One-line "paper vs measured" comparison."""
    suffix = f"  ({note})" if note else ""
    return f"{title}: paper={_render(paper_value)}  measured={_render(measured_value)}{suffix}"


def _render(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)
