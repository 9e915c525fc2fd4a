"""``run.py compare A.json B.json``: two sets of runs, metric by metric.

For every workload x end-to-end metric: both medians, how much worse B
is than A, and a verdict against the metric's bound —

* ``pass``        B's median is no worse than A's by more than the bound,
* ``fail``        it is worse by more than the bound,
* ``unresolved``  the run-to-run spread (quartile distance / median) of
                  either set is wider than the bound, unless every run
                  of B reads better than every run of A.
"""

from __future__ import annotations

import json
import pathlib
import statistics
from dataclasses import dataclass

from catalogue import E2E

__all__ = ["Row", "bounds_table", "compare_sets", "format_rows", "load_set", "spread"]


@dataclass(frozen=True)
class Row:
    workload: str
    metric: str
    unit: str
    median_a: float
    median_b: float
    #: How much worse B is than A: a share of A's median, or raw units
    #: for metrics with an absolute bound.  Negative = better.
    worse_by: float
    bound: float
    absolute: bool
    verdict: str


def bounds_table(benchmark_json: pathlib.Path) -> dict[str, tuple[float, bool]]:
    """metric -> (bound, absolute): ``BENCHMARK.json`` for the contract
    metrics, the catalogue for the rest."""
    table = {
        m.name: (m.bound, m.absolute) for m in E2E if m.bound is not None
    }
    for entry in json.loads(benchmark_json.read_text())["end_to_end"]:
        table[entry["name"]] = (float(entry["bound"]), False)
    return table


def load_set(path: pathlib.Path) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> the values of every run in the file that
    has one (``null`` metrics are left out)."""
    runs = json.loads(pathlib.Path(path).read_text())["runs"]
    values: dict[str, dict[str, list[float]]] = {}
    for run in runs:
        for workload, result in run.items():
            for name, metric in result["metrics"].items():
                if metric["value"] is not None:
                    values.setdefault(workload, {}).setdefault(name, []).append(
                        float(metric["value"])
                    )
    return values


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median (0 for fewer than two values or a zero median)."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def compare_sets(a: dict, b: dict, bounds: dict[str, tuple[float, bool]]) -> list[Row]:
    rows = []
    for metric in E2E:
        bound, absolute = bounds[metric.name]
        sign = 1.0 if metric.better == "lower" else -1.0
        for workload in a:
            va = a[workload].get(metric.name)
            vb = b.get(workload, {}).get(metric.name)
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            worse_by = sign * (mb - ma)
            if not absolute:
                worse_by = worse_by / abs(ma) if ma else 0.0
            noisy = not absolute and max(spread(va), spread(vb)) > bound
            b_dominates = all(sign * (y - x) < 0 for x in va for y in vb)
            if noisy and not b_dominates:
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "fail"
            else:
                verdict = "pass"
            rows.append(Row(
                workload, metric.name, metric.unit, ma, mb, worse_by, bound,
                absolute, verdict,
            ))
    return rows


def format_rows(rows: list[Row]) -> str:
    lines = [
        f"{'workload':<18} {'metric':<20} {'A median':>12} {'B median':>12} "
        f"{'unit':<5} {'B worse by':>11} {'bound':>8}  verdict"
    ]
    for r in rows:
        if r.absolute:
            change, bound = f"{r.worse_by:+.4g}", f"{r.bound:.4g} abs"
        else:
            change, bound = f"{100 * r.worse_by:+.2f}%", f"{100 * r.bound:.0f}%"
        lines.append(
            f"{r.workload:<18} {r.metric:<20} {r.median_a:>12.5g} "
            f"{r.median_b:>12.5g} {r.unit:<5} {change:>11} {bound:>8}  {r.verdict}"
        )
    counts = {v: sum(r.verdict == v for r in rows) for v in ("pass", "unresolved", "fail")}
    lines.append(
        f"{len(rows)} comparisons: {counts['pass']} pass, "
        f"{counts['unresolved']} unresolved, {counts['fail']} fail"
    )
    return "\n".join(lines)
