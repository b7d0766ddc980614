"""AST visitor core of the lintkit: parsing, caching, suppressions, runs.

The engine parses each file once per (path, mtime, size) — every rule of a
run shares the same :class:`ParsedModule`, and repeated runs in one process
(the test suite, the benchmark provenance stamp) reuse the cache — and owns
the two cross-cutting mechanics rules should not reimplement:

* **module naming** — a scanned file is addressed by its dotted module name
  relative to the scanned tree (``repro.core.embedded``), which is what the
  layer tables and the reports key on;
* **inline suppressions** — ``# lint: disable=<rule-id>[,<rule-id>...]``
  silences the named rules on that physical line only.  A suppression that
  does not name a rule, or names an unknown one, is itself reported under
  the ``lint-suppression`` rule id.
"""

from __future__ import annotations

import ast
import io
import pathlib
import re
import tokenize
from dataclasses import dataclass, replace
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .model import Finding, Rule

__all__ = [
    "ImportRecord",
    "ParsedModule",
    "SUPPRESSION_RULE_ID",
    "collect_files",
    "parse_module",
    "run_rules",
]

#: Rule id of the engine's own findings about malformed suppressions.
SUPPRESSION_RULE_ID = "lint-suppression"

#: Anchored at the start of the comment, so prose that merely *mentions*
#: the directive (docs, this line) is not parsed as one.
_DISABLE_RE = re.compile(r"^#\s*lint:\s*disable(?P<eq>=)?(?P<rules>[\w\-, ]*)")


@dataclass(frozen=True)
class ImportRecord:
    """One import statement, resolved to absolute dotted targets.

    ``targets`` lists the imported modules (for ``from X import a, b`` the
    base module plus, per alias, the candidate submodule ``X.a`` — rules
    that care about submodule layering pick the most specific declared
    prefix).  ``deferred`` is true for imports nested inside a function —
    the sanctioned cycle-breaking position."""

    base: str
    names: Tuple[str, ...]
    lineno: int
    deferred: bool
    is_from: bool


@dataclass
class ParsedModule:
    """A parsed source file plus the per-file indexes rules share."""

    path: str
    module: str
    is_package: bool
    source: str
    tree: ast.Module
    #: line -> rule ids disabled on that line
    suppressions: Mapping[int, FrozenSet[str]]
    #: (line, reason) pairs for malformed ``# lint: disable`` comments
    malformed_suppressions: Tuple[Tuple[int, str], ...]
    #: names listed in ``# lint: disable=...`` (validated against the
    #: registry at run time, since the engine does not know the rule set)
    suppression_names: Tuple[Tuple[int, str], ...]
    imports: Tuple[ImportRecord, ...] = ()

    def finding(self, rule_id: str, node_or_line, message: str) -> Finding:
        line = getattr(node_or_line, "lineno", node_or_line)
        return Finding(
            rule=rule_id,
            module=self.module,
            path=self.path,
            line=int(line),
            message=message,
        )


def _parse_suppressions(
    source: str,
) -> Tuple[
    Dict[int, FrozenSet[str]],
    Tuple[Tuple[int, str], ...],
    Tuple[Tuple[int, str], ...],
]:
    table: Dict[int, FrozenSet[str]] = {}
    malformed: List[Tuple[int, str]] = []
    names: List[Tuple[int, str]] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        return table, tuple(malformed), tuple(names)
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _DISABLE_RE.match(token.string)
        if match is None:
            continue
        line = token.start[0]
        listed = [
            rule.strip()
            for rule in (match.group("rules") or "").split(",")
            if rule.strip()
        ]
        if not match.group("eq") or not listed:
            malformed.append(
                (line, "inline suppression must name a rule id: "
                       "'# lint: disable=<rule-id>'")
            )
            continue
        table[line] = frozenset(listed) | table.get(line, frozenset())
        names.extend((line, rule) for rule in listed)
    return table, tuple(malformed), tuple(names)


def _resolve_from_import(
    module: str, is_package: bool, node: ast.ImportFrom
) -> Optional[str]:
    """Absolute dotted target of a (possibly relative) ``from`` import."""
    if node.level == 0:
        return node.module
    parts = module.split(".")
    if not is_package:
        parts = parts[:-1]
    up = node.level - 1
    if up >= len(parts) and up > 0:
        return None  # relative import escaping the scanned tree
    base = parts[: len(parts) - up] if up else parts
    if node.module:
        return ".".join(base + [node.module]) if base else node.module
    return ".".join(base) if base else None


class _Indexer(ast.NodeVisitor):
    """One walk collecting imports with their deferral depth."""

    def __init__(self, module: str, is_package: bool) -> None:
        self.module = module
        self.is_package = is_package
        self.depth = 0
        self.imports: List[ImportRecord] = []

    def _visit_scope(self, node) -> None:
        self.depth += 1
        self.generic_visit(node)
        self.depth -= 1

    visit_FunctionDef = _visit_scope
    visit_AsyncFunctionDef = _visit_scope
    visit_Lambda = _visit_scope

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.imports.append(
                ImportRecord(
                    base=alias.name,
                    names=(),
                    lineno=node.lineno,
                    deferred=self.depth > 0,
                    is_from=False,
                )
            )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = _resolve_from_import(self.module, self.is_package, node)
        if base is None:
            return
        self.imports.append(
            ImportRecord(
                base=base,
                names=tuple(alias.name for alias in node.names),
                lineno=node.lineno,
                deferred=self.depth > 0,
                is_from=True,
            )
        )


def _module_name(root: pathlib.Path, path: pathlib.Path) -> Tuple[str, bool]:
    """Dotted module name of ``path`` relative to scan root ``root``.

    If the root itself is a package (contains ``__init__.py``), the chain
    of package names up from the root is prepended, so scanning
    ``src/repro`` and scanning ``src`` name modules identically."""
    prefix: List[str] = []
    probe = root
    while (probe / "__init__.py").exists():
        prefix.insert(0, probe.name)
        probe = probe.parent
    rel = path.relative_to(root)
    parts = list(rel.parts)
    parts[-1] = parts[-1][: -len(".py")]
    is_package = parts[-1] == "__init__"
    if is_package:
        parts = parts[:-1]
    dotted = ".".join(prefix + parts)
    return dotted or root.name, is_package


#: (resolved path, mtime_ns, size) -> ParsedModule
_CACHE: Dict[Tuple[str, int, int], ParsedModule] = {}


def parse_module(
    path: pathlib.Path, root: Optional[pathlib.Path] = None
) -> ParsedModule:
    """Parse ``path`` (cached on content identity) into a ParsedModule."""
    resolved = path.resolve()
    stat = resolved.stat()
    key = (str(resolved), stat.st_mtime_ns, stat.st_size)
    cached = _CACHE.get(key)
    reported = str(path)
    if cached is not None:
        if cached.path == reported:
            return cached
        cached = None  # same file scanned under a different root/path
    source = resolved.read_text(encoding="utf-8")
    module, is_package = _module_name(root or path.parent, path)
    tree = ast.parse(source, filename=reported)
    suppressions, malformed, names = _parse_suppressions(source)
    indexer = _Indexer(module, is_package)
    indexer.visit(tree)
    parsed = ParsedModule(
        path=reported,
        module=module,
        is_package=is_package,
        source=source,
        tree=tree,
        suppressions=suppressions,
        malformed_suppressions=malformed,
        suppression_names=names,
        imports=tuple(indexer.imports),
    )
    _CACHE[key] = parsed
    return parsed


def collect_files(paths: Sequence) -> List[Tuple[pathlib.Path, pathlib.Path]]:
    """Expand files/directories into (file, scan-root) pairs."""
    pairs: List[Tuple[pathlib.Path, pathlib.Path]] = []
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            for file in sorted(path.rglob("*.py")):
                if "__pycache__" in file.parts:
                    continue
                pairs.append((file, path))
        elif path.suffix == ".py":
            pairs.append((path, path.parent))
        else:
            raise FileNotFoundError(
                f"repro-lint target {raw!r} is neither a directory nor a "
                f".py file"
            )
    return pairs


def run_rules(
    paths: Sequence,
    rules: Sequence[Rule],
    *,
    known_rule_ids: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Run ``rules`` over ``paths``; returns all findings, sorted.

    Suppressions are applied here: a finding whose rule id is disabled on
    its own line comes back with ``suppressed=True`` instead of being
    dropped, so reports can account for it.  Malformed suppressions and
    suppressions naming rule ids outside ``known_rule_ids`` are reported
    under :data:`SUPPRESSION_RULE_ID` (never suppressible)."""
    known = frozenset(known_rule_ids) if known_rule_ids is not None else None
    findings: List[Finding] = []
    for file, root in collect_files(paths):
        parsed = parse_module(file, root)
        for rule in rules:
            for finding in rule.check(parsed):
                disabled = parsed.suppressions.get(finding.line, frozenset())
                if finding.rule in disabled:
                    finding = replace(finding, suppressed=True)
                findings.append(finding)
        for line, reason in parsed.malformed_suppressions:
            findings.append(parsed.finding(SUPPRESSION_RULE_ID, line, reason))
        if known is not None:
            for line, name in parsed.suppression_names:
                if name not in known and name != SUPPRESSION_RULE_ID:
                    findings.append(
                        parsed.finding(
                            SUPPRESSION_RULE_ID,
                            line,
                            f"suppression names unknown rule {name!r}",
                        )
                    )
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return findings
