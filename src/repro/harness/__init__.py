"""Experiment harness: runners, reporting and per-figure drivers."""

from .calibration_experiments import CalibrationStudy, run_calibration_study
from .measure_experiments import MeasureComparison, run_measure_comparison
from .accuracy_experiments import (
    AccuracyResult,
    AccuracyScale,
    Fig12Result,
    Fig13Result,
    Table4Result,
    offline_competitors,
    online_competitors,
    run_accuracy,
    run_fig9,
    run_fig10,
    run_fig11,
    run_fig12,
    run_fig13,
    run_table4,
    smiler_config,
)
from .reporting import format_seconds, render_series, render_table
from .runner import HorizonScores, RunResult, SMiLerForecaster, run_continuous
from .search_experiments import (
    Fig7Result,
    Fig8Result,
    SearchScale,
    Table3Result,
    run_fig7,
    run_fig8,
    run_table3,
)
from .trends import render_fig1

__all__ = [
    "CalibrationStudy",
    "run_calibration_study",
    "MeasureComparison",
    "run_measure_comparison",
    "AccuracyResult",
    "AccuracyScale",
    "Fig12Result",
    "Fig13Result",
    "Table4Result",
    "offline_competitors",
    "online_competitors",
    "run_accuracy",
    "run_fig9",
    "run_fig10",
    "run_fig11",
    "run_fig12",
    "run_fig13",
    "run_table4",
    "smiler_config",
    "format_seconds",
    "render_series",
    "render_table",
    "HorizonScores",
    "RunResult",
    "SMiLerForecaster",
    "run_continuous",
    "Fig7Result",
    "Fig8Result",
    "SearchScale",
    "Table3Result",
    "run_fig7",
    "run_fig8",
    "run_table3",
    "render_fig1",
]
