"""Engine mechanics (suppression scoping, module naming, parse caching,
rule selection) and the forms ``knob-env-read`` flags."""

import pathlib
import textwrap

import pytest

from repro.lintkit import parse_module, run_lint, rules_by_id

SRC = pathlib.Path(__file__).parents[2] / "src"


def lint_source(tmp_path, source, name="repro/evaluation/sample.py"):
    target = tmp_path / name
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    findings = run_lint([tmp_path])
    return findings


class TestSuppressions:
    def test_suppression_is_scoped_to_its_own_line(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """\
            def check(value):
                a = value == 0.5  # lint: disable=numeric-float-equality
                b = value == 0.5
                return a, b
            """,
        )
        by_line = {f.line: f for f in findings}
        assert by_line[2].suppressed
        assert not by_line[3].suppressed

    def test_suppression_silences_only_the_named_rule(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """\
            def check(value):
                return value == 0.5  # lint: disable=knob-env-read
            """,
        )
        float_eq = [f for f in findings if f.rule == "numeric-float-equality"]
        assert len(float_eq) == 1 and not float_eq[0].suppressed

    def test_suppression_must_name_a_rule(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """\
            def check(value):
                return value == 0.5  # lint: disable
            """,
        )
        rules = {f.rule for f in findings}
        assert "lint-suppression" in rules
        # ... and the malformed directive does not silence the finding.
        float_eq = [f for f in findings if f.rule == "numeric-float-equality"]
        assert float_eq and not float_eq[0].suppressed

    def test_unknown_rule_id_is_reported(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """\
            value = 1  # lint: disable=no-such-rule
            """,
        )
        [finding] = [f for f in findings if f.rule == "lint-suppression"]
        assert "no-such-rule" in finding.message
        assert not finding.suppressed

    def test_multiple_rules_in_one_directive(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """\
            def check(value, bucket=[]):  # lint: disable=numeric-mutable-default, numeric-float-equality
                return value == 0.5, bucket
            """,
        )
        by_rule = {f.rule: f for f in findings}
        assert by_rule["numeric-mutable-default"].suppressed
        # The comparison sits on line 2, outside the directive's scope.
        assert not by_rule["numeric-float-equality"].suppressed

    def test_prose_mentioning_the_directive_is_not_parsed(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """\
            # docs: silence a rule with "# lint: disable=<rule-id>" inline
            value = 1
            """,
        )
        assert findings == []


class TestEnvReads:
    """``knob-env-read`` flags every way of reading the environment, in
    every module: ``repro.constants`` is held to it like the rest."""

    #: form -> (source, line of its one finding)
    FORMS = {
        "environ-item": ("import os\n\nVALUE = os.environ['HOME']\n", 3),
        "environ-get": ("import os\n\nVALUE = os.environ.get('HOME')\n", 3),
        "getenv": ("import os\n\nVALUE = os.getenv('HOME')\n", 3),
        "putenv": ("import os\n\nos.putenv('HOME', '/')\n", 3),
        "from-environ": ("from os import environ\n", 1),
        "from-getenv": ("from os import getenv\n", 1),
    }

    @pytest.mark.parametrize("name", ["repro/constants.py", "repro/pdms/sample.py"])
    @pytest.mark.parametrize("form", sorted(FORMS))
    def test_every_env_read_is_one_finding(self, tmp_path, form, name):
        source, line = self.FORMS[form]
        findings = lint_source(tmp_path, source, name=name)
        assert [(f.rule, f.line, f.suppressed) for f in findings] == [
            ("knob-env-read", line, False)
        ]

    def test_os_without_the_environment_is_not_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """\
            import os
            from os import path

            SEPARATOR = os.sep
            ROOT = path.join(os.curdir, "data")
            NOTE = "os.environ is never read"
            """,
            name="repro/constants.py",
        )
        assert findings == []


class TestModuleNaming:
    def test_scan_roots_name_modules_identically(self):
        from_src = parse_module(SRC / "repro" / "constants.py", SRC)
        from_pkg = parse_module(
            SRC / "repro" / "constants.py", SRC / "repro"
        )
        assert from_src.module == "repro.constants"
        assert from_pkg.module == "repro.constants"

    def test_package_init_is_named_after_the_package(self):
        parsed = parse_module(SRC / "repro" / "__init__.py", SRC)
        assert parsed.module == "repro"
        assert parsed.is_package

    def test_parse_cache_reuses_unchanged_files(self):
        first = parse_module(SRC / "repro" / "constants.py", SRC)
        second = parse_module(SRC / "repro" / "constants.py", SRC)
        assert first is second


class TestRuleSelection:
    def test_single_rule_run_sees_only_that_rule(self, tmp_path):
        target = tmp_path / "repro" / "core" / "mixed.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            "from repro.evaluation import metrics\n"
            "\n"
            "\n"
            "def check(value):\n"
            "    return value == 0.5\n",
            encoding="utf-8",
        )
        rule = rules_by_id()["layering-import-dag"]
        findings = run_lint([tmp_path], rules=[rule])
        assert {f.rule for f in findings} == {"layering-import-dag"}
