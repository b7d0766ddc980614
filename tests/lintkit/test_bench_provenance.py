"""BENCH_*.json provenance: every record carries the lint verdict.

The benchmark emitters stamp ``lint_clean`` / ``lintkit_version`` next to
the git revision, so a perf number can never silently come from a tree
violating the architectural invariants.  ``lint_status`` is cached
per process — the emitters add one lint run to a whole benchmark session.
"""

import importlib.util
import json
import pathlib

from repro.lintkit import RULESET_VERSION, lint_status

BENCH_CONFTEST = (
    pathlib.Path(__file__).parents[2] / "benchmarks" / "conftest.py"
)


def load_bench_conftest():
    spec = importlib.util.spec_from_file_location(
        "bench_conftest_under_test", BENCH_CONFTEST
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_lint_status_is_clean_and_cached():
    status = lint_status()
    assert status == {
        "lint_clean": True,
        "lintkit_version": RULESET_VERSION,
    }
    assert lint_status() is status


def test_emit_json_report_stamps_the_lint_verdict(tmp_path, monkeypatch, capsys):
    conftest = load_bench_conftest()
    monkeypatch.setattr(conftest, "REPORT_DIR", tmp_path)
    conftest.emit_json_report("provenance_smoke", {"metric": 1.0})
    record = json.loads(
        (tmp_path / "BENCH_provenance_smoke.json").read_text(encoding="utf-8")
    )
    assert record["lint_clean"] is True
    assert record["lintkit_version"] == RULESET_VERSION
    assert record["metric"] == 1.0
    # The benchmark's own payload always wins over the stamp.
    conftest.emit_json_report(
        "provenance_override", {"lint_clean": None}
    )
    override = json.loads(
        (tmp_path / "BENCH_provenance_override.json").read_text(
            encoding="utf-8"
        )
    )
    assert override["lint_clean"] is None
