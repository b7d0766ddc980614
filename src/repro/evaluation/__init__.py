"""Evaluation harness: metrics, baselines, per-figure experiment runners,
the throughput timing primitive and plain-text reporting."""

from .metrics import ConfusionCounts, DetectionMetrics, precision_curve, score_detection
from .baselines import chatty_web_baseline
from .reporting import format_comparison, format_table
from .experiments import (
    BaselineComparisonResult,
    ConvergenceResult,
    CycleLengthResult,
    FaultToleranceResult,
    IntroExampleResult,
    RealWorldResult,
    RelativeErrorResult,
    ScheduleComparisonResult,
    run_baseline_comparison,
    run_convergence,
    run_cycle_length,
    run_fault_tolerance,
    run_intro_example,
    run_real_world,
    run_relative_error,
    run_schedule_comparison,
)

__all__ = [
    "ConfusionCounts",
    "DetectionMetrics",
    "precision_curve",
    "score_detection",
    "chatty_web_baseline",
    "format_comparison",
    "format_table",
    "BaselineComparisonResult",
    "ConvergenceResult",
    "CycleLengthResult",
    "FaultToleranceResult",
    "IntroExampleResult",
    "RealWorldResult",
    "RelativeErrorResult",
    "ScheduleComparisonResult",
    "run_baseline_comparison",
    "run_convergence",
    "run_cycle_length",
    "run_fault_tolerance",
    "run_intro_example",
    "run_real_world",
    "run_relative_error",
    "run_schedule_comparison",
]
