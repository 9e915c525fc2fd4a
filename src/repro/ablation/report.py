"""Scoring and reporting: per-component deltas → ranked importance.

The importance score is built **only from deterministic metrics** —
simulated kernel seconds (the cost model's ledger), the verified-rate
of the search cascade, and MAE — never from wall-clock, so the ranking
is bit-reproducible for a given workload seed and stable across hosts.
Wall-clock deltas are reported alongside as informational columns,
labelled with the host's core count; ``benchmarks/roundbench`` is the
instrument for time.

Sign convention: a **positive** delta means the system got *worse* with
the component off (more simulated work, higher MAE, more candidates
verified) — i.e. the component carries a win.  A negative importance
flags a harmful component: the system measured *better* without it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..harness.reporting import format_seconds, render_table
from .study import RunResult, StudyResult

__all__ = ["ComponentScore", "score_study", "render_report", "bench_payload"]

#: Guard for relative deltas against near-zero baselines.
_EPS = 1e-12


@dataclass(frozen=True)
class ComponentScore:
    """Deltas of one component-off run against the baseline."""

    component: str
    layer: str
    run_id: str
    claims_exact: bool
    #: Relative change in search-phase simulated seconds (None when the
    #: component does not touch the search pipeline).
    search_sim_delta: float | None
    #: Absolute change in the fraction of candidates whose true DTW was
    #: computed (percentage points / 100).
    verified_rate_delta: float | None
    #: Relative change in serving-phase simulated seconds (None when the
    #: run swapped backend kinds — ledgers are not comparable).
    serving_sim_delta: float | None
    #: Relative change in serving MAE (0 by construction for exact
    #: components).
    mae_delta: float
    #: Informational only — wall-clock is host noise.
    serving_wall_delta: float
    #: The deterministic blend the ranking sorts on.
    importance: float

    def as_dict(self) -> dict:
        """JSON-friendly record (the ``ranking`` rows of the bench file)."""
        return {
            "component": self.component,
            "layer": self.layer,
            "run_id": self.run_id,
            "claims_exact": self.claims_exact,
            "search_sim_delta": self.search_sim_delta,
            "verified_rate_delta": self.verified_rate_delta,
            "serving_sim_delta": self.serving_sim_delta,
            "mae_delta": self.mae_delta,
            "serving_wall_delta": self.serving_wall_delta,
            "importance": self.importance,
        }


def _rel(current: float, base: float) -> float:
    return float((current - base) / max(abs(base), _EPS))


def _score_one(baseline: RunResult, run: RunResult) -> ComponentScore:
    base_serving, serving = baseline.serving, run.serving
    # Simulated-time ledgers are only comparable within one backend
    # kind (the native fast path keeps no cost-model ledger), so a
    # backend-variant run contributes no sim delta to its importance.
    same_backend = serving.get("backend") == base_serving.get("backend")
    serving_sim_delta = (
        _rel(serving["sim_s"], base_serving["sim_s"]) if same_backend
        else None
    )
    mae_delta = _rel(serving["mae"], base_serving["mae"])
    serving_wall_delta = _rel(serving["wall_s"], base_serving["wall_s"])
    search_sim_delta = None
    verified_rate_delta = None
    if run.search is not None and baseline.search is not None:
        search_sim_delta = _rel(
            run.search["sim_s"], baseline.search["sim_s"]
        )
        verified_rate_delta = float(
            run.search["verified_rate"] - baseline.search["verified_rate"]
        )
    importance = (
        (search_sim_delta or 0.0)
        + (verified_rate_delta or 0.0)
        + (serving_sim_delta or 0.0)
        + mae_delta
    )
    return ComponentScore(
        component=run.component or "baseline",
        layer=run.layer or "-",
        run_id=run.run_id,
        claims_exact=run.claims_exact,
        search_sim_delta=search_sim_delta,
        verified_rate_delta=verified_rate_delta,
        serving_sim_delta=serving_sim_delta,
        mae_delta=mae_delta,
        serving_wall_delta=serving_wall_delta,
        importance=float(importance),
    )


def score_study(study: StudyResult) -> list[ComponentScore]:
    """Ranked importance, most load-bearing component first.

    Ordering is fully deterministic: primary key importance descending,
    tie-break component name ascending — re-scoring the same runs (in
    any input order) yields the same ranking.
    """
    baseline = study.baseline
    scores = [
        _score_one(baseline, run)
        for run in study.runs
        if run.component is not None
    ]
    scores.sort(key=lambda s: (-s.importance, s.component))
    return scores


def _pct(value: float | None) -> str:
    if value is None:
        return "-"
    return f"{value:+.1%}"


def render_report(
    study: StudyResult, scores: list[ComponentScore] | None = None
) -> str:
    """The ranked importance report as an aligned text table."""
    scores = scores if scores is not None else score_study(study)
    baseline = study.baseline
    rows = []
    for rank, score in enumerate(scores, start=1):
        rows.append([
            rank,
            score.component,
            score.layer,
            _pct(score.search_sim_delta),
            _pct(score.verified_rate_delta),
            _pct(score.serving_sim_delta),
            _pct(score.mae_delta),
            _pct(score.serving_wall_delta),
            f"{score.importance:+.3f}",
            "yes" if score.claims_exact else "no",
        ])
    header = (
        f"Ablation importance (baseline {baseline.run_id}: serving "
        f"{format_seconds(baseline.serving['wall_s'])} wall / "
        f"{format_seconds(baseline.serving['sim_s'])} sim, "
        f"mae {baseline.serving['mae']:.4f}).\n"
        "Positive deltas = worse with the component off (the component "
        "carries a win); wall-clock deltas are informational only."
    )
    return render_table(
        ["rank", "component", "layer", "Δsearch sim", "Δverified",
         "Δserve sim", "Δmae", "Δwall", "importance", "exact"],
        rows,
        title=header,
    )


def bench_payload(study: StudyResult, cpu_count: int | None) -> dict:
    """The ``BENCH_ablation.json`` document."""
    scores = score_study(study)
    return {
        "benchmark": "ablation",
        "config": {"workload": _workload_dict(study)},
        # Labels the informational wall fields; nothing gated reads it.
        "host": {"cpu_count": cpu_count},
        "baseline_run_id": study.baseline.run_id,
        "runs": [run.as_dict() for run in study.runs],
        "ranking": [score.as_dict() for score in scores],
    }


def _workload_dict(study: StudyResult) -> dict:
    import dataclasses

    return {
        key: (list(value) if isinstance(value, tuple) else value)
        for key, value in dataclasses.asdict(study.workload).items()
    }
