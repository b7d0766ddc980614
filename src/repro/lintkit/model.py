"""Finding records and the rule protocol of the lintkit engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import ParsedModule

__all__ = ["Finding", "Rule"]


@dataclass(frozen=True)
class Finding:
    """One rule violation, anchored to a file/line and a rule id.

    ``module`` is the dotted module name relative to the scanned tree —
    stable across checkouts, unlike ``path``."""

    rule: str
    module: str
    path: str
    line: int
    message: str
    suppressed: bool = field(default=False, compare=False)

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


@runtime_checkable
class Rule(Protocol):
    """A pluggable lint rule.

    Implementations carry a stable ``rule_id`` (what suppressions refer
    to), a ``family`` grouping related rules, and a one-line
    ``description`` rendered by ``repro-lint --list-rules``.  ``check``
    receives a fully parsed module (AST + suppression table, cached per
    file) and yields findings; it must not mutate the module."""

    rule_id: str
    family: str
    description: str

    def check(self, module: "ParsedModule") -> Iterator[Finding]:
        """Yield every violation of this rule in ``module``."""
        ...
