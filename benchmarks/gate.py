"""Benchmark regression gate: a fresh ablation study vs the committed one.

``python -m repro.cli ablate --out fresh.json`` re-runs the study (its
own exactness contracts included) and this gate compares the payload
against the committed root ``BENCH_ablation.json``, failing on a
regression larger than the threshold (``--threshold-pct``, default 10%).

Only host-independent numbers are gated — every one a pure function of
the seeded workload:

* **Hard invariants** (any threshold): the run-ID set equals the
  committed one (a drifted ID means the workload or a patch changed
  without the file being regenerated), every executed search phase
  matched the full-DTW oracle (``reference_exact``), every
  ``claims_exact`` run served the baseline's forecast digest, and no
  ``claims_exact`` component ranks negative (a pure optimisation the
  system measures better without has to go, not stay switchable).
* **Deterministic counters** of the everything-on run: MAE, simulated
  kernel seconds (summed and per-shard maximum), kernel launches over
  the shards, verified rate, total prune rate.

Wall-clock fields in the payload are informational; whether the round
got faster is ``benchmarks/roundbench``'s question, answered in
reference milliseconds over parent/change pairs.

Usage::

    python benchmarks/gate.py --fresh fresh.json [--threshold-pct 10]

Exit codes: 0 = gate green, 1 = regression (or missing fresh file),
2 = usage / malformed payload.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from dataclasses import dataclass

__all__ = [
    "BASELINE_PATH",
    "Check",
    "GateError",
    "compare_ablation",
    "render_checks",
]

#: The one committed bench file: ``python -m repro.cli ablate`` writes it.
BASELINE_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_ablation.json"
)

#: Gated counters of the everything-on run: (field, higher is worse).
_BASELINE_METRICS = (
    ("serving.mae", True),
    ("serving.sim_s", True),
    ("serving.sim_parallel_s", True),
    ("serving.launches", True),
    ("search.sim_s", True),
    ("search.verified_rate", True),
)


class GateError(ValueError):
    """A payload the gate cannot interpret (wrong schema, not JSON)."""


@dataclass(frozen=True)
class Check:
    """One gate comparison: a named metric and its verdict."""

    name: str
    status: str  # "pass" | "fail"
    detail: str

    @property
    def failed(self) -> bool:
        return self.status == "fail"


def _get(payload: dict, dotted: str) -> object:
    node: object = payload
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            raise GateError(f"payload is missing {dotted!r} (at {part!r})")
        node = node[part]
    return node


def _check_metric(
    label: str,
    baseline: float,
    fresh: float,
    threshold_pct: float,
    higher_is_worse: bool,
) -> Check:
    """Relative regression check with a near-zero-baseline guard."""
    base = float(baseline)
    cur = float(fresh)
    denom = max(abs(base), 1e-12)
    delta_pct = (cur - base) / denom * 100.0
    regression_pct = delta_pct if higher_is_worse else -delta_pct
    detail = f"baseline {base:.6g} -> fresh {cur:.6g} ({delta_pct:+.1f}%)"
    if regression_pct > threshold_pct:
        return Check(
            label, "fail",
            f"{detail} exceeds the {threshold_pct:g}% regression threshold",
        )
    return Check(label, "pass", detail)


def _check_all(label: str, offenders: list[str], holds: str) -> Check:
    if offenders:
        return Check(label, "fail", f"violated by {', '.join(offenders)}")
    return Check(label, "pass", holds)


def _runs(payload: dict, role: str) -> list[dict]:
    if payload.get("benchmark") != "ablation":
        raise GateError(
            f"{role} payload is benchmark {payload.get('benchmark')!r}, "
            "expected 'ablation'"
        )
    runs = _get(payload, "runs")
    if not isinstance(runs, list) or not all(
        isinstance(run, dict) and "run_id" in run for run in runs
    ):
        raise GateError(f"{role} 'runs' must be a list of run records")
    return runs


def _baseline_run(payload: dict, runs: list[dict]) -> dict:
    baseline_id = _get(payload, "baseline_run_id")
    for run in runs:
        if run["run_id"] == baseline_id:
            return run
    raise GateError(f"baseline run {baseline_id!r} missing from runs")


def compare_ablation(
    baseline: dict, fresh: dict, threshold_pct: float = 10.0
) -> list[Check]:
    """Gate a fresh study: invariants + the baseline run's counters.

    Component-off deltas are the study's *findings*, not its health —
    they move legitimately as components evolve.  What the gate pins is
    the everything-on run (accuracy, simulated time, cascade efficiency),
    the exactness contracts of every run in the fresh file, and that the
    enumerated run-ID set still matches the committed one, since a silent
    drift would invalidate every cross-PR diff of ``BENCH_ablation.json``.
    """
    base_runs = _runs(baseline, "baseline")
    fresh_runs = _runs(fresh, "fresh")
    base_run = _baseline_run(baseline, base_runs)
    fresh_run = _baseline_run(fresh, fresh_runs)

    drifted = sorted(
        {r["run_id"] for r in base_runs} ^ {r["run_id"] for r in fresh_runs}
    )
    if drifted:
        checks = [Check(
            "run_ids", "fail",
            f"run-ID drift ({len(drifted)} IDs differ: "
            f"{', '.join(drifted[:4])}...) — workload/patch changed; "
            "regenerate BENCH_ablation.json",
        )]
    else:
        checks = [
            Check("run_ids", "pass", f"{len(base_runs)} stable run IDs")
        ]
    checks.append(_check_all(
        "reference_exact",
        [
            r["run_id"] for r in fresh_runs
            if r.get("search") is not None
            and _get(r, "search.reference_exact") is not True
        ],
        "every search phase matched the full-DTW oracle",
    ))
    digest = _get(fresh_run, "serving.forecast_digest")
    checks.append(_check_all(
        "exact_digests",
        [
            r["run_id"] for r in fresh_runs
            if _get(r, "claims_exact")
            and _get(r, "serving.forecast_digest") != digest
        ],
        "every claims_exact run served the baseline's forecasts",
    ))
    checks.append(_check_all(
        "no_harmful_exact_component",
        [
            f"{_get(row, 'component')} ({_get(row, 'importance'):+.3f})"
            for row in _get(fresh, "ranking")
            if _get(row, "claims_exact") and _get(row, "importance") < 0
        ],
        "no claims_exact component has negative importance",
    ))
    for dotted, higher_is_worse in _BASELINE_METRICS:
        checks.append(_check_metric(
            f"baseline.{dotted}",
            _get(base_run, dotted), _get(fresh_run, dotted),  # type: ignore[arg-type]
            threshold_pct, higher_is_worse,
        ))
    base_rates = _get(base_run, "search.prune_rates")
    fresh_rates = _get(fresh_run, "search.prune_rates")
    if not isinstance(base_rates, dict) or not isinstance(fresh_rates, dict):
        raise GateError("search.prune_rates must be a dict in both payloads")
    # The total pruned fraction is the cascade's purpose; individual
    # tiers may legitimately trade candidates between each other.
    checks.append(_check_metric(
        "baseline.search.prune_rate_total",
        sum(base_rates.values()), sum(fresh_rates.values()),
        threshold_pct, higher_is_worse=False,
    ))
    return checks


def render_checks(checks: list[Check]) -> str:
    """Human-readable verdict table, failures last so they are visible."""
    marks = {"pass": "ok  ", "fail": "FAIL"}
    ordered = sorted(checks, key=lambda c: c.failed)
    lines = [
        f"{marks[c.status]}  {c.name:<34} {c.detail}" for c in ordered
    ]
    n_fail = sum(c.failed for c in checks)
    lines.append(f"gate: {len(checks)} checks, {n_fail} failed")
    return "\n".join(lines)


def _load(path: pathlib.Path) -> dict:
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise GateError(f"{path} is not JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise GateError(f"{path} does not hold a JSON object")
    return payload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--fresh", type=pathlib.Path, required=True, metavar="F.json",
        help="payload of a fresh `python -m repro.cli ablate --out F.json`",
    )
    parser.add_argument(
        "--threshold-pct", type=float, default=10.0, metavar="X",
        help="fail on regressions larger than X%% (default: 10)",
    )
    args = parser.parse_args(argv)
    if not args.fresh.exists():
        print(f"FAIL  fresh run missing: {args.fresh}")
        return 1
    try:
        checks = compare_ablation(
            _load(BASELINE_PATH), _load(args.fresh), args.threshold_pct
        )
    except GateError as exc:
        print(f"gate error: {exc}", file=sys.stderr)
        return 2
    print(render_checks(checks))
    return 1 if any(c.failed for c in checks) else 0


if __name__ == "__main__":
    sys.exit(main())
