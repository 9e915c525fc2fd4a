"""A seeded, paired accuracy-equivalence gate for SMiLer-GP.

Bit identity gates a change that computes the same numbers a new way.  A
change that moves the GP training iterates — a different line-search
start, a shared distance matrix, another trainer — cannot pass it, so it
is gated here instead: run the variant and a reference over the same
seeded streams and accept the variant only if nothing moves by more than
the reference's own seed-to-seed spread.

One run is ``SMiLer(predictor="gp")`` at the paper's defaults (3 × 3
ensemble, sleep scheduler on) on a ``HISTORY``-point history of one
synthetic stream, z-normalised by the history's mean and std, predicting
one step ahead and observing the truth for ``STEPS`` steps.  Per dataset
the gate (:func:`violations`) takes the mean over :data:`SEEDS` of each
run's scores and passes only if

* every accuracy score in :data:`SCORES` — MAE, MNLPD, 95 % interval
  coverage, calibration error, sharpness — is within the reference's
  max − min over seeds of the reference's mean, either way;
* awake cells per step (training calls) do not *rise* by more than that
  spread, and CG iterations per training not by more than
  :data:`CG_SLACK`.

The two cost counters are held one way only.  Fewer awake cells mean
the sleep scheduler rested more — whether that hurt is what the accuracy
scores measure — and a two-sided rule on a chaotic count is at the mercy
of three seeds: the restart-at-1.0 trainer reads 8.783 / 8.800 / 8.800
awake cells on ``mall_like`` seeds 0–2 (spread 0.017) but 8.117 … 8.900
over seeds 0–9.

How a variant is installed is the caller's business (a test
monkeypatches the reference in and collects again); :func:`collect` runs
whatever the process has loaded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import SMiLer, SMiLerConfig
from repro.metrics import mae, mnlpd
from repro.metrics.calibration import calibration_error, interval_coverage, sharpness
from repro.timeseries import mall_like, net_like, road_like

__all__ = [
    "CG_SLACK",
    "DATASETS",
    "HISTORY",
    "SCORES",
    "SEEDS",
    "STEPS",
    "Run",
    "Runs",
    "collect",
    "run",
    "table",
    "violations",
]

DATASETS = {"road_like": road_like, "mall_like": mall_like, "net_like": net_like}
SEEDS = (0, 1, 2)
HISTORY = 700
STEPS = 60
#: Accuracy scores of :meth:`Run.scores`, held both ways.
SCORES = ("mae", "mnlpd", "coverage95", "calibration", "sharpness")
#: How far CG iterations per training may rise, per dataset.
CG_SLACK = 0.2


@dataclass(frozen=True)
class Run:
    """One seeded stream's forecasts and what training cost."""

    truth: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    trainings: int
    cg_iterations: int
    evaluations: int
    gradient_evaluations: int

    def scores(self) -> dict[str, float]:
        """The :data:`SCORES`, then awake cells (training calls) per step."""
        truth, means, variances = self.truth, self.means, self.variances
        return {
            "mae": mae(truth, means),
            "mnlpd": mnlpd(truth, means, variances),
            "coverage95": interval_coverage(truth, means, variances, 0.95),
            "calibration": calibration_error(truth, means, variances),
            "sharpness": sharpness(variances),
            "awake_per_step": self.trainings / truth.size,
        }

    def per_training(self) -> dict[str, float]:
        """CG iterations, value and gradient evaluations per training."""
        return {
            "cg": self.cg_iterations / self.trainings,
            "values": self.evaluations / self.trainings,
            "gradients": self.gradient_evaluations / self.trainings,
        }


#: Runs keyed by ``(dataset, seed)``.
Runs = dict[tuple[str, int], Run]


def run(dataset: str, seed: int) -> Run:
    """One-step-ahead forecasts of one seeded stream of ``dataset``."""
    values = DATASETS[dataset](1, HISTORY + STEPS, seed=seed)[0]
    history = values[:HISTORY]
    values = (values - history.mean()) / history.std()
    smiler = SMiLer(values[:HISTORY], SMiLerConfig(predictor="gp"))
    means, variances = [], []
    for value in values[HISTORY:]:
        output = smiler.predict()[1]
        means.append(output.mean)
        variances.append(output.variance)
        smiler.observe(float(value))
    ensemble = smiler.ensemble(1)
    predictors = [ensemble.state(cell).predictor for cell in ensemble.cells]
    return Run(
        truth=values[HISTORY:].copy(),
        means=np.array(means),
        variances=np.array(variances),
        trainings=sum(p.train_calls for p in predictors),
        cg_iterations=sum(p.cg_iterations for p in predictors),
        evaluations=sum(p.objective_evaluations for p in predictors),
        gradient_evaluations=sum(p.gradient_evaluations for p in predictors),
    )


def collect() -> Runs:
    """Every (dataset, seed) run, with whatever training is loaded."""
    return {(name, seed): run(name, seed) for name in DATASETS for seed in SEEDS}


def violations(variant: Runs, reference: Runs) -> list[str]:
    """Why ``variant`` fails the gate against ``reference``; empty = pass."""
    if variant.keys() != reference.keys():
        raise ValueError("variant and reference cover different runs")
    found = []
    for dataset in sorted({name for name, _ in reference}):
        keys = [key for key in reference if key[0] == dataset]
        ref = [reference[key].scores() for key in keys]
        var = [variant[key].scores() for key in keys]
        for score in (*SCORES, "awake_per_step"):
            ref_values = [scores[score] for scores in ref]
            moved = np.mean([s[score] for s in var]) - np.mean(ref_values)
            if score not in SCORES:
                moved = max(moved, 0.0)
            spread = max(ref_values) - min(ref_values)
            if abs(moved) > spread:
                found.append(
                    f"{dataset} {score}: mean moved {moved:+.4g}, reference "
                    f"spread {spread:.4g}"
                )
        rise = _cg_per_training(variant, keys) - _cg_per_training(reference, keys)
        if rise > CG_SLACK:
            found.append(
                f"{dataset} CG iterations per training rose {rise:.3f} > "
                f"{CG_SLACK}"
            )
    return found


def _cg_per_training(runs: Runs, keys) -> float:
    return sum(runs[k].cg_iterations for k in keys) / sum(
        runs[k].trainings for k in keys
    )


def table(variant: Runs, reference: Runs) -> str:
    """Markdown, one row per (dataset, seed), one column per score and
    per-training count: ``reference → variant``."""
    columns = [*SCORES, "awake_per_step", "cg", "values", "gradients"]
    lines = [
        "| dataset | seed | " + " | ".join(columns) + " |",
        "|---|---|" + "---|" * len(columns),
    ]
    for key in sorted(reference):
        ref = {**reference[key].scores(), **reference[key].per_training()}
        var = {**variant[key].scores(), **variant[key].per_training()}
        cells = [f"{ref[c]:.4f} → {var[c]:.4f}" for c in columns]
        lines.append(f"| {key[0]} | {key[1]} | " + " | ".join(cells) + " |")
    return "\n".join(lines)
