"""Unit tests for detection metrics, baselines and reporting helpers."""

from dataclasses import dataclass
from typing import ClassVar

import pytest

from repro.evaluation.baselines import chatty_web_baseline
from repro.evaluation.metrics import (
    ConfusionCounts,
    DetectionMetrics,
    precision_curve,
    score_detection,
)
from repro.evaluation.reporting import (
    Column,
    format_comparison,
    format_points,
    format_table,
    point_record,
)
from repro.evaluation.timing import Measurement
from repro.exceptions import EvaluationError
from repro.generators.paper import intro_example_feedbacks


class TestConfusionCounts:
    def test_derived_counts(self):
        counts = ConfusionCounts(true_positives=3, false_positives=1, false_negatives=2, true_negatives=4)
        assert counts.flagged == 4
        assert counts.actual_errors == 5
        assert counts.total == 10


class TestDetectionMetrics:
    def test_from_counts(self):
        counts = ConfusionCounts(3, 1, 2, 4)
        metrics = DetectionMetrics.from_counts(counts)
        assert metrics.precision == pytest.approx(0.75)
        assert metrics.recall == pytest.approx(0.6)
        assert metrics.f1 == pytest.approx(2 * 0.75 * 0.6 / 1.35)

    def test_zero_flagged_gives_zero_precision(self):
        metrics = DetectionMetrics.from_counts(ConfusionCounts(0, 0, 3, 5))
        assert metrics.precision == 0.0
        assert metrics.recall == 0.0
        assert metrics.f1 == 0.0


class TestScoreDetection:
    GROUND_TRUTH = {
        ("a->b", "X"): False,
        ("b->c", "X"): True,
        ("c->d", "X"): True,
        ("d->e", "X"): False,
    }

    def test_perfect_detector(self):
        posteriors = {
            ("a->b", "X"): 0.1,
            ("b->c", "X"): 0.9,
            ("c->d", "X"): 0.8,
            ("d->e", "X"): 0.2,
        }
        metrics = score_detection(posteriors, self.GROUND_TRUTH, theta=0.5)
        assert metrics.precision == 1.0
        assert metrics.recall == 1.0

    def test_over_eager_detector_loses_precision(self):
        posteriors = {key: 0.1 for key in self.GROUND_TRUTH}
        metrics = score_detection(posteriors, self.GROUND_TRUTH, theta=0.5)
        assert metrics.precision == pytest.approx(0.5)
        assert metrics.recall == 1.0

    def test_missing_posterior_counts_as_not_flagged(self):
        posteriors = {("a->b", "X"): 0.1}
        metrics = score_detection(posteriors, self.GROUND_TRUTH, theta=0.5)
        assert metrics.counts.false_negatives == 1
        assert metrics.recall == pytest.approx(0.5)

    def test_empty_ground_truth_rejected(self):
        with pytest.raises(EvaluationError):
            score_detection({}, {}, theta=0.5)

    def test_invalid_theta_rejected(self):
        with pytest.raises(EvaluationError):
            score_detection({}, self.GROUND_TRUTH, theta=1.5)

    def test_precision_curve_covers_all_thetas(self):
        posteriors = {key: 0.3 for key in self.GROUND_TRUTH}
        curve = precision_curve(posteriors, self.GROUND_TRUTH, thetas=(0.1, 0.5, 0.9))
        assert [theta for theta, _ in curve] == [0.1, 0.5, 0.9]


class TestBaselines:
    def test_chatty_web_disqualifies_every_mapping_in_negative_structures(self):
        verdicts = chatty_web_baseline(intro_example_feedbacks())
        assert verdicts[("p2->p4", "Creator")] == 0.0
        # The paper's point: the heuristic also disqualifies innocent
        # mappings that happen to sit on a negative cycle.
        assert verdicts[("p1->p2", "Creator")] == 0.0
        assert verdicts[("p2->p3", "Creator")] == 0.0


class TestReporting:
    def test_format_table_alignment(self):
        table = format_table(("theta", "precision"), [(0.1, 1.0), (0.5, 0.9)], title="Fig 12")
        lines = table.splitlines()
        assert lines[0] == "Fig 12"
        assert "theta" in lines[1]
        assert "0.900" in table

    def test_format_comparison(self):
        line = format_comparison("posterior", 0.59, 0.56, note="loopy estimate")
        assert "paper=0.590" in line
        assert "measured=0.560" in line
        assert "loopy estimate" in line


@dataclass(frozen=True)
class _Point:
    peers: int
    timing: Measurement

    COLUMNS: ClassVar = (
        Column("peers", "peers"),
        Column("ms", "seconds", "{:.1f}", 1e3),
        Column("speedup", "speedup", "{:.1f}x"),
    )

    @property
    def seconds(self):
        return self.timing.median(1)

    @property
    def speedup(self):
        return self.timing.speedup(0, 1)


class TestPointTables:
    point = _Point(8, Measurement(((0.4, 0.6), (0.1, 0.2)), values=(None, None)))

    def test_columns_render_the_declared_cells(self):
        title, header, _, row = format_points([self.point], "points").splitlines()
        assert title == "points"
        assert [cell.strip() for cell in header.split("|")] == ["peers", "ms", "speedup"]
        assert [cell.strip() for cell in row.split("|")] == ["8", "150.0", "3.5x"]

    def test_record_holds_fields_seconds_and_derived_columns(self):
        assert point_record(self.point) == {
            "peers": 8,
            "timing": ((0.4, 0.6), (0.1, 0.2)),
            "seconds": pytest.approx(0.15),
            "speedup": pytest.approx(3.5),
        }
