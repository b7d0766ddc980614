"""``repro.lintkit`` — AST-based architectural analyzer for this repo.

Every guarantee the reproduction makes — bit-identical posteriors across
the sweep engines, discovery order-identical to per-peer walker sweeps —
rests on conventions that used to live in docstrings and two ad-hoc test
sweeps.  This subsystem states each invariant once, as data
(:mod:`repro.lintkit.contracts`), and enforces it mechanically over the
whole tree:

* **layering** — the sanctioned import DAG (schema/mapping → discovery →
  factorgraph → core → generators → evaluation → cli), the plan-IR kernel
  surface and the discovery-walker ban;
* **determinism** — no hidden-global-state randomness, explicit seeds for
  every rng factory, no wall-clock reads in kernel/sweep/discovery code;
* **process safety** — module-level worker entries only, wire payloads
  registered in the picklable-boundary allowlist;
* **knob hygiene** — ``os.environ`` only behind the validated
  :func:`repro.constants.read_env` gate;
* **numeric correctness** — no float-literal equality, no mutable default
  arguments.

``ARCHITECTURE.md`` at the repository root is the prose rendering of the
same contracts.  The ``repro-lint`` console script (also
``python -m repro.lintkit``) reports findings as text or ``--json``,
honours ``# lint: disable=<rule-id>`` inline suppressions that must name
the rule, and grandfathers deliberate violations through a committed,
justified baseline file (``lintkit-baseline.txt``).

This package depends only on the foundation layer (``repro.constants``) —
it can lint the tree without importing the engines it checks.
"""

from .baseline import (
    BaselineEntry,
    find_default_baseline,
    format_baseline,
    load_baseline,
    save_baseline,
)
from .cli import main
from .contracts import RULESET_VERSION
from .engine import ParsedModule, SUPPRESSION_RULE_ID, parse_module, run_rules
from .model import Finding, Rule
from .report import build_report, failing, lint_status, run_lint
from .rules import all_rules, rules_by_id

__all__ = [
    "BaselineEntry",
    "Finding",
    "ParsedModule",
    "Rule",
    "RULESET_VERSION",
    "SUPPRESSION_RULE_ID",
    "all_rules",
    "build_report",
    "failing",
    "find_default_baseline",
    "format_baseline",
    "lint_status",
    "load_baseline",
    "main",
    "parse_module",
    "rules_by_id",
    "run_lint",
    "run_rules",
    "save_baseline",
]
