"""Doc-sync: ARCHITECTURE.md names everything the contracts declare.

The contracts module is the machine-readable source of truth and
ARCHITECTURE.md its normative prose twin; this test keeps them from
drifting apart by asserting the prose names every layer, rule id and
kernel/walker surface in the tables.
"""

import pathlib

import pytest

from repro.lintkit import SUPPRESSION_RULE_ID, all_rules
from repro.lintkit import contracts

DOC = pathlib.Path(__file__).parents[2] / "ARCHITECTURE.md"


@pytest.fixture(scope="module")
def doc_text():
    assert DOC.is_file(), "ARCHITECTURE.md must live at the repository root"
    return DOC.read_text(encoding="utf-8")


def test_every_layer_is_documented(doc_text):
    for layer in contracts.IMPORT_DAG:
        assert f"`{layer}`" in doc_text, f"layer {layer!r} missing"


def test_every_rule_id_is_documented(doc_text):
    rule_ids = [rule.rule_id for rule in all_rules()] + [SUPPRESSION_RULE_ID]
    for rule_id in rule_ids:
        assert f"`{rule_id}`" in doc_text, f"rule {rule_id!r} missing"


def test_kernel_and_walker_surfaces_are_documented(doc_text):
    assert f"`{contracts.KERNEL_SURFACE_MODULE}`" in doc_text
    assert f"`{contracts.KERNEL_IMPLEMENTATION_MODULE}`" in doc_text
    assert f"`{contracts.WALKER_MODULE}`" in doc_text
    for name in sorted(contracts.KERNEL_NAMES | contracts.WALKER_NAMES):
        assert f"`{name}`" in doc_text, f"name {name!r} missing"


def test_version_is_documented(doc_text):
    assert "RULESET_VERSION" in doc_text
