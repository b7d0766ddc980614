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

from .baseline import BaselineEntry, find_default_baseline, load_baseline
from .contracts import RULESET_VERSION
from .engine import run_rules
from .model import Finding, Rule
from .rules import all_rules

__all__ = ["build_report", "run_lint", "lint_status"]


def run_lint(
    paths: Sequence,
    *,
    rules: Optional[Sequence[Rule]] = None,
    baseline: Optional[Sequence[BaselineEntry]] = None,
):
    """Run the rule set over ``paths`` and apply the baseline.

    Returns ``(findings, stale_entries)`` — findings carry their
    ``suppressed``/``baselined`` flags, stale entries are baseline lines
    matching no current finding."""
    from .baseline import apply_baseline

    active_rules = list(rules) if rules is not None else all_rules()
    known = [rule.rule_id for rule in all_rules()]
    findings = run_rules(paths, active_rules, known_rule_ids=known)
    return apply_baseline(findings, baseline or [])


def failing(findings: Sequence[Finding]) -> List[Finding]:
    """The findings that fail a CI run: neither suppressed nor baselined."""
    return [f for f in findings if not f.suppressed and not f.baselined]


def build_report(
    paths: Sequence,
    findings: Sequence[Finding],
    stale: Sequence[BaselineEntry],
    rules: Sequence[Rule],
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
            "baselined": sum(1 for f in findings if f.baselined),
            "suppressed": sum(1 for f in findings if f.suppressed),
            "stale_baseline": len(stale),
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
                "baselined": finding.baselined,
                "suppressed": finding.suppressed,
                "fingerprint": finding.fingerprint(),
            }
            for finding in findings
        ],
        "stale_baseline": [
            {
                "rule": entry.rule,
                "module": entry.module,
                "fingerprint": entry.fingerprint,
                "justification": entry.justification,
            }
            for entry in stale
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
        baseline_path = find_default_baseline(package_dir)
        baseline = load_baseline(baseline_path) if baseline_path else []
        findings, _ = run_lint([package_dir], baseline=baseline)
        clean = not failing(findings)
    except Exception:  # pragma: no cover - only on broken installs
        return {"lint_clean": None, "lintkit_version": RULESET_VERSION}
    return {"lint_clean": clean, "lintkit_version": RULESET_VERSION}
