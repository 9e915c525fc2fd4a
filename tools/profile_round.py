#!/usr/bin/env python3
"""Where a serving round of one roundbench workload goes.

    python3 tools/profile_round.py fleet-stream                  # cProfile
    python3 tools/profile_round.py fleet-stream --layers         # wall per layer
    python3 tools/profile_round.py deep-search --rounds 20 --sort cumulative
    python3 tools/profile_round.py fleet-stream --sensors 768 --layers


ROADMAP's recipe, so "what the next profile says" repeats from PR to PR:
the workload and its seeded inputs come read-only from
``benchmarks/roundbench`` (``workloads.py``, ``loop.Driver``), seed 7,
the driver's three warm-up rounds, one BLAS thread, ``gc.freeze()``
before the measured rounds.  ``--sensors N`` serves the workload at
another fleet size (``dataclasses.replace(workload, sensors=N)``, after
``--smoke``): a row's cost a sensor is its change between two sizes.

Default output is a cProfile table of the caller's process (on a
process-engine workload that is the dispatch, not the shards' work),
``repro.obs`` disabled.  cProfile charges every Python call and nothing
inside native code, so call-heavy glue reads about twice its share.  The
header line gives the profiled calls per round without ``<string>``
entries (dataclass and named-tuple methods, whose counts pstats merges
under one key, so the table's own total depends on addresses), counted
as ``tests/test_forecast_lane.py::calls_per_round`` counts them.

``--layers`` turns ``repro.obs`` on after set-up and reads its span
ledger instead: each round's two request roots (``forecast_all``, taken
between the halves, and ``ingest_many``), with the lane subtrees a
process engine's shard workers ship back, summed by name — wall, calls
and work attrs per round, one row per layer of ``repro.obs.LAYERS``,
indented by its parent.  ``forecast_all`` / ``ingest_many`` are the
round's halves as the driver times them.  A span name is one site, so
``search`` counts the forecast side's stale re-searches too.  So a PR
can quote glue = ``_search_lane`` − kernels (``dtw_verification``,
``k_select``).

The work columns, per round: ``dtw_verification`` the rows verified (one
per ``(sensor, end)``), the band cells planned (each row's through its
longest needed suffix, ``repro.dtw.distance.launch_work``), the
anti-diagonals walked (``2 x longest - 1`` per ``BLOCK_ROWS`` block; its
ms over that column is the cost of one), then what the kernel did: the
band cells computed (each row's own through the last length it read —
the planned cells less what the survivor launch's cutoff saved) and the
rows abandoned (stopped before their last needed length); ``k_select`` the segments
selected (a ``(sensor, item length)`` pool each); ``lower_bounds`` the
``(sensors, starts)`` bound arrays written (one per item length and mode
asked for); ``dtw_refine`` the ``(item length, sensor)`` rows whose
threshold seeds ``_lane_seeds`` chose alone (a new, restored, short or
stale member) rather than by the stacked union.  Two rows read obs
metrics instead: ``step_many`` the sliding windows whose LB_EQ it
refreshed (``smiler_window_index_rows_total``, built or recomputed), and
``gp_train`` (the lane trainer; 0 on AR workloads) the cells trained in
its calls column, then their LOO value and gradient evaluations
(``smiler_gp_*``) and the stacked ``loo_values`` / ``loo_gradients``
calls that answered them.  Last, the forecast half split by whether its
tree holds a ``search`` span (a member was stale and re-searched).
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import dataclasses
import gc
import os
import pathlib
import pstats
import sys
import tempfile
import time
from collections import Counter, defaultdict

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: The span attrs a row sums beside its wall and calls.
WORK = {
    "dtw_verification": (
        "rows", "cells", "diagonals", "cells_computed", "abandoned",
    ),
    "k_select": ("segments",),
    "lower_bounds": ("arrays",),
    "dtw_refine": ("seeded_alone",),
}

#: What the rows/round column counts on rows that say it in words.
WORK_NOTES = {
    "step_many": "(LB_EQ windows refreshed)",
    "lower_bounds": "(bound arrays written)",
    "dtw_refine": "(seed rows chosen alone)",
}


class Ledger:
    """The measured rounds' span ledger, summed by layer: ``totals[name]``
    holds ``wall_s``, ``calls`` and the :data:`WORK` attrs; ``counted``
    the work obs metrics count (:func:`metric_work`); ``halves`` the
    round's two halves as the driver times them, and the forecast half
    split by whether its tree holds a ``search`` span."""

    def __init__(self, obs) -> None:
        self.obs = obs
        self.totals: dict[str, Counter] = defaultdict(Counter)
        self.counted = Counter()
        self.halves = Counter()

    def round(self, driver) -> None:
        roots, before = [], metric_work(self.obs.get_registry())
        record = driver.round(
            between=lambda: roots.append(driver.service.trace_last_request())
        )
        roots.append(driver.service.trace_last_request())
        self.counted += metric_work(self.obs.get_registry()) - before
        # An ingest that raised leaves the forecast root the last trace.
        for root in {id(root): root for root in roots if root}.values():
            self.add(root)
        forecast = record.forecast_ns / 1e9
        kind = "searched" if roots[0] and roots[0].find("search") else "current"
        self.halves.update({
            "forecast_all": forecast, "ingest_many": record.ingest_ns / 1e9,
            kind: forecast, (kind, "rounds"): 1,
        })

    def add(self, span) -> None:
        """Add ``span`` and its descendants to :attr:`totals`."""
        row = self.totals[span.name]
        row["wall_s"] += span.wall_s
        row["calls"] += 1
        for attr in WORK.get(span.name, ()):
            row[attr] += span.attrs.get(attr, 0)
        for child in span.children:
            self.add(child)


def metric_work(registry) -> Counter:
    """The work obs metrics count so far, by ``(row, column)``."""
    def value(name, **labels):
        metric = registry.get(name)
        return 0.0 if metric is None else metric.value(**labels)

    windows, trained, evaluated = (
        "smiler_window_index_rows_total", "smiler_gp_train_calls_total",
        "smiler_gp_objective_evaluations_total",
    )
    return Counter({
        ("step_many", "windows"): value(windows, outcome="built_full")
        + value(windows, outcome="recomputed_lbeq"),
        ("gp_train", "trainings"): value(trained, converged=True)
        + value(trained, converged=False),
        ("gp_train", "values"): value(evaluated, kind="value"),
        ("gp_train", "gradients"): value(evaluated, kind="gradient"),
    })


def print_layers(ledger: Ledger, rounds: int, out) -> None:
    from repro.obs import LAYERS

    totals, counted, halves = ledger.totals, ledger.counted, ledger.halves
    # Indented by the table's nesting; a share of ingest on its side.
    depth, ingest_side = {}, {"ingest_many", "absorb_many", "search"}
    for name, parent in LAYERS:
        depth[name] = 0 if parent is None else depth[parent] + 1
        if parent in ingest_side:
            ingest_side.add(name)
    for half in ("forecast_all", "ingest_many"):
        totals[half] = Counter(wall_s=halves[half], calls=rounds)
    ingest = halves["ingest_many"] or float("nan")
    print(
        f"{'layer':<30}{'ms/round':>10}{'calls/round':>13}{'of ingest':>11}"
        f"{'rows/round':>12}{'cells/round':>13}{'diagonals/round':>17}"
        f"{'computed/round':>16}{'abandoned/round':>17}",
        file=out,
    )
    for name, _ in LAYERS:
        row, calls = totals[name], totals[name]["calls"]
        share = f"{row['wall_s'] / ingest:>10.1%}" if name in ingest_side else ""
        note = ""
        if name == "dtw_verification":
            note = (
                f"{row['rows'] / rounds:>12.1f}{row['cells'] / rounds:>13.0f}"
                f"{row['diagonals'] / rounds:>17.1f}"
                f"{row['cells_computed'] / rounds:>16.0f}"
                f"{row['abandoned'] / rounds:>17.1f}"
            )
        elif name == "k_select":
            note = f"{row['segments'] / rounds:>12.1f}"
        elif name in WORK_NOTES:
            work = counted["step_many", "windows"] if name == "step_many" else (
                row[WORK[name][0]]
            )
            note = f"{work / rounds:>12.1f}   {WORK_NOTES[name]}"
        elif name == "gp_train":
            # Cells trained in the calls column; then what they asked for
            # and how many stacked calls answered it.
            calls = counted["gp_train", "trainings"]
            work = (
                counted["gp_train", "values"], counted["gp_train", "gradients"],
                totals["loo_values"]["calls"], totals["loo_gradients"]["calls"],
            )
            note = "".join(f"{n / rounds:>12.1f}" for n in work) + (
                "   (trainings; value, gradient evaluations; stacked value, "
                "gradient calls)"
            )
        print(
            f"{'  ' * depth[name] + name:<30}"
            f"{row['wall_s'] / rounds * 1e3:>10.3f}{calls / rounds:>13.1f}"
            f"{share:>11}{note}",
            file=out,
        )
    kernels = totals["dtw_verification"]["wall_s"] + totals["k_select"]["wall_s"]
    glue = totals["_search_lane"]["wall_s"] - kernels
    print(
        f"{'_search_lane glue':<30}{glue / rounds * 1e3:>10.3f}"
        f"{'':>13}{glue / ingest:>10.1%}   (= _search_lane - kernels)",
        file=out,
    )
    for kind, label in (("searched", "with a search"), ("current", "without")):
        count = halves[kind, "rounds"]
        print(
            f"{'forecast_all ' + label:<30}"
            f"{halves[kind] / max(count, 1) * 1e3:>10.3f}{count:>7} rounds"
            + ("   (a stale member re-searched)" if kind == "searched" else ""),
            file=out,
        )


def main(argv=None, out=sys.stdout) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("workload")
    parser.add_argument("--rounds", type=int, default=40)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--sort", choices=("tottime", "cumulative"), default="tottime"
    )
    parser.add_argument("--top", type=int, default=30, help="profile rows shown")
    parser.add_argument(
        "--layers", action="store_true",
        help="wall and work per layer per round from the obs span ledger "
        "instead of cProfile",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="the benchmark's smoke sizes"
    )
    parser.add_argument(
        "--sensors", type=int, help="fleet size in place of the workload's"
    )
    args = parser.parse_args(argv)
    if args.rounds <= 0:
        raise SystemExit("--rounds must be positive")
    if args.sensors is not None and args.sensors <= 0:
        raise SystemExit("--sensors must be positive")

    # One BLAS thread: set before NumPy is first imported.
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(variable, "1")
    for path in (ROOT / "benchmarks" / "roundbench", ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from loop import Driver
    from workloads import MAX_ROUNDS, WORKLOADS, generate, smoke_variant

    from repro import obs

    if args.workload not in WORKLOADS:
        raise SystemExit(
            f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}"
        )
    if args.rounds > MAX_ROUNDS:
        raise SystemExit(f"--rounds is at most {MAX_ROUNDS}")
    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = smoke_variant(workload)
    if args.sensors is not None:
        workload = dataclasses.replace(workload, sensors=args.sensors)
    with contextlib.ExitStack() as stack:
        tmp_dir = stack.enter_context(
            tempfile.TemporaryDirectory(prefix="profile-round-")
        )
        driver = Driver(
            workload, generate(workload, args.seed), args.seed,
            pathlib.Path(tmp_dir),
        )
        stack.callback(driver.close)
        driver.setup()
        gc.collect()
        gc.freeze()
        stack.callback(gc.unfreeze)
        profiler = ledger = None
        if args.layers:
            obs.enable()
            stack.callback(obs.disable)
            ledger = Ledger(obs)
        else:
            profiler = cProfile.Profile()
        t0 = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        for done in range(1, args.rounds + 1):
            if ledger is None:
                driver.round()
            else:
                ledger.round(driver)
            driver.maintenance(done)
        if profiler is not None:
            profiler.disable()
        wall = time.perf_counter() - t0

    if ledger is not None:
        how = "obs span ledger"
    else:
        stats = pstats.Stats(profiler, stream=out)
        how = (
            f"under cProfile, {calls_per_round(stats, args.rounds):.1f} "
            "calls/round without <string> entries"
        )
    print(
        f"{workload.name} seed={args.seed} sensors={workload.sensors}: "
        f"{args.rounds} rounds after "
        f"{driver.tick - args.rounds} warm-ups, {wall / args.rounds * 1e3:.3f} "
        f"ms/round ({how}; engine={workload.engine}, maintenance included)",
        file=out,
    )
    if ledger is not None:
        print_layers(ledger, args.rounds, out)
    else:
        stats.sort_stats(args.sort).print_stats(args.top)
    return 0


def calls_per_round(stats: pstats.Stats, rounds: int) -> float:
    """The profiled calls a round, methods generated from source strings
    (dataclass and named-tuple methods, file ``<string>``) left out:
    pstats keys a function by file, line and name, so every generated
    ``__init__`` shares one key and all but one code object's count is
    dropped — which one depends on addresses, and so would the total."""
    return sum(
        calls for (where, _, _), (_, calls, *_) in stats.stats.items()
        if where != "<string>"
    ) / rounds


if __name__ == "__main__":
    raise SystemExit(main())
