"""Lint runs as data: the ``--json`` report schema and the provenance probe.

:func:`build_report` is the one place the machine-readable schema is
assembled — the CLI serialises it verbatim and the schema-stability test
pins its key set.  :func:`lint_status` is the benchmark-provenance hook:
``benchmarks/conftest.py`` stamps ``lint_clean`` / ``lintkit_version`` into
every ``BENCH_*.json`` through it, next to the git revision, so a perf
number always names the tree it came from and whether that tree was clean.
"""

from __future__ import annotations

import pathlib
from functools import lru_cache
from typing import Dict, List, Optional, Sequence

from .contracts import RULESET_VERSION
from .engine import run_rules
from .model import Finding, Rule
from .rules import all_rules

__all__ = ["build_report", "run_lint", "lint_status"]


def run_lint(
    paths: Sequence, *, rules: Optional[Sequence[Rule]] = None
) -> List[Finding]:
    """Run the rule set over ``paths``; findings carry their
    ``suppressed`` flag."""
    active_rules = list(rules) if rules is not None else all_rules()
    known = [rule.rule_id for rule in all_rules()]
    return run_rules(paths, active_rules, known_rule_ids=known)


def failing(findings: Sequence[Finding]) -> List[Finding]:
    """The findings that fail a CI run: the unsuppressed ones."""
    return [f for f in findings if not f.suppressed]


def build_report(
    paths: Sequence, findings: Sequence[Finding], rules: Sequence[Rule]
) -> Dict:
    """The stable ``--json`` payload (see tests for the pinned schema)."""
    active = failing(findings)
    return {
        "tool": "repro-lint",
        "ruleset_version": RULESET_VERSION,
        "clean": not active,
        "paths": [str(path) for path in paths],
        "counts": {
            "total": len(findings),
            "active": len(active),
            "suppressed": len(findings) - len(active),
        },
        "rules": [
            {
                "id": rule.rule_id,
                "family": rule.family,
                "description": rule.description,
            }
            for rule in rules
        ],
        "findings": [
            {
                "rule": finding.rule,
                "module": finding.module,
                "file": finding.path,
                "line": finding.line,
                "message": finding.message,
                "suppressed": finding.suppressed,
            }
            for finding in findings
        ],
    }


@lru_cache(maxsize=1)
def lint_status() -> Dict:
    """Lint the installed ``repro`` source tree once per process.

    Returns ``{"lint_clean": bool | None, "lintkit_version": str}`` —
    ``None`` when the package source cannot be linted (e.g. running from a
    zipped install).  Used by the benchmark emitters to stamp correctness
    provenance next to the perf numbers."""
    try:
        package_dir = pathlib.Path(__file__).resolve().parents[1]
        clean = not failing(run_lint([package_dir]))
    except Exception:  # pragma: no cover - only on broken installs
        return {"lint_clean": None, "lintkit_version": RULESET_VERSION}
    return {"lint_clean": clean, "lintkit_version": RULESET_VERSION}
