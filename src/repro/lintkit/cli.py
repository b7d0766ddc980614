"""The ``repro-lint`` console entry point.

::

    repro-lint [paths...]            # text report, exit 1 on any finding
    repro-lint --json [paths...]     # machine-readable report on stdout
    repro-lint --list-rules          # enumerate the rule set

With no paths, the tree is auto-detected: ``src/repro`` (or ``src``) under
the current directory if present, else the installed ``repro`` package.
Exit codes: 0 clean (every finding suppressed inline), 1 findings, 2 usage
error.  A reader that closes the pipe early (``repro-lint --json | head``)
leaves the exit code the lint verdict.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
from typing import List, Optional, Sequence, Tuple

from .contracts import RULESET_VERSION
from .report import build_report, failing, run_lint
from .rules import all_rules, rules_by_id

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based architectural analyzer enforcing the repository's "
            "layering, determinism, knob-hygiene and numeric-correctness "
            "invariants (see ARCHITECTURE.md)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro tree)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable report on stdout",
    )
    parser.add_argument(
        "--rules",
        metavar="ID[,ID...]",
        help="run only the named rule ids",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list rule ids and descriptions, then exit",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"repro-lint ruleset {RULESET_VERSION}",
    )
    return parser


def _default_paths() -> List[pathlib.Path]:
    cwd = pathlib.Path.cwd()
    for candidate in (cwd / "src" / "repro", cwd / "src"):
        if candidate.is_dir():
            return [candidate]
    return [pathlib.Path(__file__).resolve().parents[1]]


def _select_rules(spec: Optional[str], parser: argparse.ArgumentParser):
    if not spec:
        return all_rules()
    registry = rules_by_id()
    selected = []
    for rule_id in [part.strip() for part in spec.split(",") if part.strip()]:
        if rule_id not in registry:
            parser.error(
                f"unknown rule id {rule_id!r}; valid ids: "
                f"{', '.join(sorted(registry))}"
            )
        selected.append(registry[rule_id])
    return selected


def _report(parser: argparse.ArgumentParser, args) -> Tuple[str, int]:
    """The text to print and the exit code of one invocation."""
    if args.list_rules:
        lines = [
            f"{rule.rule_id:28} [{rule.family}] {rule.description}"
            for rule in all_rules()
        ]
        return "\n".join(lines), 0

    paths = [pathlib.Path(p) for p in args.paths] or _default_paths()
    for path in paths:
        if not path.exists():
            parser.error(f"no such file or directory: {path}")
    rules = _select_rules(args.rules, parser)
    findings = run_lint(paths, rules=rules)
    active = failing(findings)
    verdict = 1 if active else 0
    if args.json:
        return json.dumps(build_report(paths, findings, rules), indent=2), verdict
    lines = [finding.render() for finding in active]
    lines.append(
        f"[repro-lint] ruleset {RULESET_VERSION}: {len(active)} finding(s), "
        f"{len(findings) - len(active)} suppressed"
    )
    return "\n".join(lines), verdict


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    output, verdict = _report(parser, parser.parse_args(argv))
    try:
        print(output)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (``... | head -1``): stop quietly, and
        # point stdout at devnull so the interpreter's exit flush stays
        # quiet too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return verdict


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
