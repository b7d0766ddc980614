"""Shared helpers for the benchmark harness.

Every benchmark reproduces one table/figure of the paper: it runs the
corresponding experiment (timed by pytest-benchmark) and emits a plain-text
"paper vs measured" report both to stdout and to ``benchmarks/reports/``.
The throughput / amortization benchmarks additionally emit machine-readable
``BENCH_*.json`` files (metrics + git revision) so the perf trajectory can
be tracked across runs; both their text table and their JSON record render
from the table their points declare (:func:`emit_points`).  The reports are
run artefacts, not sources: the directory is git-ignored, so a test run
leaves the working tree clean.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import time

import pytest

from repro.evaluation.reporting import format_points, point_record

REPORT_DIR = pathlib.Path(__file__).parent / "reports"


def emit_report(name: str, text: str) -> None:
    """Print a benchmark report and persist it under benchmarks/reports/."""
    banner = f"\n===== {name} =====\n"
    print(banner + text + "\n")
    REPORT_DIR.mkdir(exist_ok=True)
    (REPORT_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")


def _git_revision() -> str:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=pathlib.Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    revision = completed.stdout.strip()
    return revision if completed.returncode == 0 and revision else "unknown"


def emit_json_report(name: str, payload: dict) -> None:
    """Persist machine-readable benchmark metrics as BENCH_<name>.json.

    ``payload`` holds the benchmark's own metrics (rates, speedups, peer
    counts…); the emitter stamps the git revision, a unix timestamp and the
    host's ``cpu_count`` so the perf trajectory stays attributable.
    Correctness provenance rides along as well: ``lint_clean`` (did the
    tree pass ``repro-lint`` — linted once per process, cached) and
    ``lintkit_version`` (the rule-set version), so a perf number can never
    silently come from a tree that violates the architectural invariants.
    """
    from repro.lintkit import lint_status

    record = dict(payload)
    record.update(
        (key, value)
        for key, value in lint_status().items()
        if key not in record
    )
    record.setdefault("benchmark", name)
    record.setdefault("git_rev", _git_revision())
    record.setdefault("unix_time", int(time.time()))
    record.setdefault("cpu_count", os.cpu_count())
    REPORT_DIR.mkdir(exist_ok=True)
    path = REPORT_DIR / f"BENCH_{name}.json"
    path.write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"[bench-json] {path}")


def emit_points(name: str, points, title: str) -> None:
    """Report throughput points as the table their type declares, in text
    (``EX_<name>.txt``) and as ``BENCH_<name>.json`` records."""
    emit_report(f"EX_{name}", format_points(points, title))
    emit_json_report(name, {"points": [point_record(point) for point in points]})


@pytest.fixture
def report():
    """Fixture handing benchmarks the report emitter."""
    return emit_report


@pytest.fixture
def report_json():
    """Fixture handing benchmarks the machine-readable metrics emitter."""
    return emit_json_report


@pytest.fixture
def report_points():
    """Fixture handing benchmarks the point-table emitter."""
    return emit_points
