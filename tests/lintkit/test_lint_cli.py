"""The ``repro-lint`` entry point: exit codes and the JSON schema."""

import json
import pathlib

import pytest

from repro.lintkit import main
from repro.lintkit.contracts import RULESET_VERSION
from repro.lintkit.rules import all_rules

FIXTURE_TREE = pathlib.Path(__file__).parent / "fixtures" / "tree"

SRC_REPRO = pathlib.Path(__file__).parents[2] / "src" / "repro"

#: The pinned ``--json`` schema.  Extending it is fine (bump the ruleset
#: version); renaming or dropping keys breaks CI consumers.
TOP_KEYS = {
    "tool",
    "ruleset_version",
    "clean",
    "paths",
    "counts",
    "rules",
    "findings",
}
COUNT_KEYS = {"total", "active", "suppressed"}
RULE_KEYS = {"id", "family", "description"}
FINDING_KEYS = {
    "rule",
    "module",
    "file",
    "line",
    "message",
    "suppressed",
}


def write_violation(tree, rel="repro/mapping/bad.py",
                    line="from repro.core import analysis\n"):
    target = tree / rel
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(line, encoding="utf-8")
    return target


class TestJsonReport:
    def test_schema_key_sets_are_stable(self, capsys):
        code = main(["--json", str(FIXTURE_TREE)])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert set(report) == TOP_KEYS
        assert set(report["counts"]) == COUNT_KEYS
        assert report["findings"] and report["rules"]
        for rule in report["rules"]:
            assert set(rule) == RULE_KEYS
        for finding in report["findings"]:
            assert set(finding) == FINDING_KEYS
        assert report["tool"] == "repro-lint"
        assert report["ruleset_version"] == RULESET_VERSION
        assert report["clean"] is False
        assert report["counts"]["suppressed"] == 1

    def test_json_lists_the_full_default_rule_set(self, capsys, tmp_path):
        clean = tmp_path / "repro" / "evaluation"
        clean.mkdir(parents=True)
        (clean / "ok.py").write_text("VALUE = 1\n", encoding="utf-8")
        code = main(["--json", str(tmp_path)])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["clean"] is True
        listed = {rule["id"] for rule in report["rules"]}
        assert listed == {rule.rule_id for rule in all_rules()}


class TestExitCodes:
    def test_clean_tree_exits_zero(self, capsys, tmp_path):
        (tmp_path / "repro").mkdir()
        (tmp_path / "repro" / "ok.py").write_text("VALUE = 1\n")
        assert main([str(tmp_path)]) == 0

    def test_synthetic_layering_violation_fails_ci_mode(self, capsys, tmp_path):
        write_violation(tmp_path)
        code = main(["--json", str(tmp_path)])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["clean"] is False
        rules = {f["rule"] for f in report["findings"]}
        assert rules == {"layering-import-dag"}
        [finding] = report["findings"]
        assert finding["module"] == "repro.mapping.bad"
        assert finding["line"] == 1

    def test_unknown_rule_id_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--rules", "no-such-rule", str(FIXTURE_TREE)])
        assert excinfo.value.code == 2

    def test_missing_path_is_a_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main([str(tmp_path / "nowhere")])
        assert excinfo.value.code == 2

    def test_list_rules_prints_every_id(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert [line.split()[0] for line in out.splitlines()] == [
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
        ]


class TestRepositoryIsClean:
    def test_repro_lint_over_the_installed_tree_exits_zero(self, capsys):
        assert main([str(SRC_REPRO)]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out
