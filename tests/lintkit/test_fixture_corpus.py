"""The fixture corpus: one violating + one clean snippet per rule family.

Each violating fixture pins the exact ``(line, rule-id)`` set repro-lint
must report for it — file and line precision is part of the acceptance
contract — and each clean fixture mirrors the sanctioned pattern its
violating twin breaks, asserting the rule stays quiet on it.
"""

import pathlib
from collections import defaultdict

import pytest

from repro.lintkit import run_lint

FIXTURE_TREE = pathlib.Path(__file__).parent / "fixtures" / "tree"

#: relative path -> {(line, rule-id, suppressed)} the corpus must yield.
VIOLATING = {
    "repro/core/imports_upward.py": {(3, "layering-import-dag", False)},
    "repro/core/uses_kernels.py": {(3, "layering-plan-kernels", False)},
    "repro/core/uses_walkers.py": {(3, "layering-discovery-walkers", False)},
    "repro/core/touches_correspondences.py": {
        (5, "layering-correspondence-store", False)
    },
    "repro/core/suppressed.py": {
        (5, "numeric-float-equality", True),
        (6, "numeric-float-equality", False),
    },
    "repro/core/bad_suppression.py": {
        (5, "numeric-float-equality", False),
        (5, "lint-suppression", False),
        (6, "numeric-float-equality", False),
        (6, "lint-suppression", False),
    },
    "repro/factorgraph/global_rng.py": {(7, "determinism-global-rng", False)},
    "repro/factorgraph/unseeded_rng.py": {
        (7, "determinism-unseeded-rng", False)
    },
    "repro/factorgraph/wallclock.py": {(7, "determinism-wallclock", False)},
    "repro/evaluation/env_read.py": {(7, "knob-env-read", False)},
    "repro/constants.py": {(7, "knob-env-read", False)},
    "repro/evaluation/float_equality.py": {
        (5, "numeric-float-equality", False)
    },
    "repro/evaluation/mutable_default.py": {
        (4, "numeric-mutable-default", False)
    },
}

CLEAN = {
    "repro/core/clean_module.py",
    "repro/factorgraph/clean_timing.py",
    "repro/pdms/clean_deferred_import.py",
    "repro/mapping/clean_store.py",
    "repro/evaluation/clean_env.py",
    "repro/evaluation/clean_numeric.py",
}


@pytest.fixture(scope="module")
def corpus():
    findings = run_lint([FIXTURE_TREE])
    grouped = defaultdict(set)
    for finding in findings:
        rel = pathlib.Path(finding.path).relative_to(FIXTURE_TREE).as_posix()
        grouped[rel].add((finding.line, finding.rule, finding.suppressed))
    return dict(grouped), findings


def test_every_fixture_is_accounted_for():
    on_disk = {
        path.relative_to(FIXTURE_TREE).as_posix()
        for path in FIXTURE_TREE.rglob("*.py")
    }
    assert on_disk == set(VIOLATING) | CLEAN


@pytest.mark.parametrize("rel", sorted(VIOLATING))
def test_violating_fixture_reports_exact_lines(corpus, rel):
    grouped, _ = corpus
    assert grouped.get(rel, set()) == VIOLATING[rel]


@pytest.mark.parametrize("rel", sorted(CLEAN))
def test_clean_fixture_reports_nothing(corpus, rel):
    grouped, _ = corpus
    assert grouped.get(rel, set()) == set()


def test_every_rule_family_has_a_violating_fixture(corpus):
    grouped, _ = corpus
    reported = {rule for hits in grouped.values() for _, rule, _ in hits}
    expected = {
        "layering-import-dag",
        "layering-plan-kernels",
        "layering-discovery-walkers",
        "layering-correspondence-store",
        "determinism-global-rng",
        "determinism-unseeded-rng",
        "determinism-wallclock",
        "knob-env-read",
        "numeric-float-equality",
        "numeric-mutable-default",
        "lint-suppression",
    }
    assert reported == expected


def test_module_names_are_rooted_at_repro(corpus):
    _, findings = corpus
    assert findings
    for finding in findings:
        assert finding.module.startswith("repro."), finding
