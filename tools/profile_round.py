#!/usr/bin/env python3
"""Where a serving round of one roundbench workload goes.

    python3 tools/profile_round.py fleet-stream                  # cProfile
    python3 tools/profile_round.py fleet-stream --layers         # wall per layer
    python3 tools/profile_round.py deep-search --rounds 20 --sort cumulative

ROADMAP's recipe, so "what the next profile says" repeats from PR to PR:
the workload and its seeded inputs come read-only from
``benchmarks/roundbench`` (``workloads.py``, ``loop.Driver``), seed 7,
the driver's three warm-up rounds, one BLAS thread, ``repro.obs``
disabled, ``gc.freeze()`` before the measured rounds.  The caller's
process is what is profiled: on a process-engine workload that is the
dispatch, not the shards' work.

Default output is a cProfile table.  cProfile charges every Python call
and nothing inside native code, so call-heavy glue reads about twice its
share; ``--layers`` instead wraps the layer boundaries in
``perf_counter`` timers and prints untraced wall per round —

    forecast_all -> predict_cells (gp_train (loo_values, loo_gradients)), mix
    ingest_many -> absorb_many (tune, step_many (_tube_excess))
                -> search_many (lower_bounds_many, _search_lane
                                 (dtw_verification, k_select))

— so a PR can quote glue = ``_search_lane`` − kernels.  ``_search_lane``
is the one pass over a lane that serves every item length (two
``dtw_verification`` launches and one ``k_select``).  ``search_many``
rows include the forecast side's stale re-searches, if any.
``predict_cells`` is the family dispatch — every awake cell of a
horizon's lane through one ``predict_stacks`` per predictor family —
and counts horizons per lane (the reduced rung's single cells too).
``tune`` and ``mix`` are the ensemble lane's stacked update and mix, so
they count lanes (``mix``: a lane's grids), not sensors.  Six rows
also say how much work their wall bought: ``dtw_verification`` the rows
verified (one per ``(sensor, end)``, whatever lengths it is read at),
the band cells computed — each row's through its longest needed suffix,
``repro.dtw.distance.band_cells``, the count the simulated ledger charges
a launch's slowest thread — and the anti-diagonals walked (``2 x
longest - 1`` per ``BLOCK_ROWS`` block of a launch, each block's longest
needed suffix; the kernel's fixed cost is paid per diagonal, so its wall
over this column is the cost of one) per round, ``step_many`` the
sliding windows whose LB_EQ it refreshed (``SW_0`` and those whose
envelope the new point changed, summed over rows), ``lower_bounds_many``
the bound arrays it wrote (one ``(sensors, starts)`` array per item
length and mode asked for: the search asks for its ``lb_mode`` alone),
``_search_lane`` the ``(item length, sensor)`` rows whose threshold
seeds ``_lane_seeds`` chose alone rather than by the stacked union (a
new, restored, short or stale member), ``k_select`` the segments
selected (a ``(sensor, item length)`` pool, one row each of the stacked
selection) per round, ``gp_train``
(the GP lane trainer, every GP cell's hyperparameter training; 0 on AR
workloads) the cells trained, the LOO value and gradient evaluations
they asked for, and the stacked value and gradient calls that answered
them, per round.  ``loo_values`` and ``loo_gradients`` are those stacked
calls (``LooProblem.values`` / ``.gradients``) made inside ``gp_train``,
so their calls read its stacked-call columns; the posterior's
refactorisation at a point training did not value is not counted.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import gc
import importlib
import os
import pathlib
import pstats
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: ``(label, depth, module[:class], attribute)`` — each name is patched
#: where its caller looks it up, outermost first.
LAYERS = (
    ("forecast_all", 0, "repro.service:PredictionService", "forecast_all"),
    ("predict_cells", 1, "repro.core.smiler:_LaneKnn", "predict_cells"),
    ("gp_train", 2, "repro.core.gp_predictor", "_train_stack"),
    ("loo_values", 3, "repro.gp.loo:LooProblem", "values"),
    ("loo_gradients", 3, "repro.gp.loo:LooProblem", "gradients"),
    ("mix", 1, "repro.core.smiler", "mix_many"),
    ("ingest_many", 0, "repro.service:PredictionService", "ingest_many"),
    ("absorb_many", 1, "repro.service", "absorb_many"),
    ("tune", 2, "repro.core.smiler", "tune_many"),
    ("step_many", 2, "repro.core.smiler", "step_many"),
    ("_tube_excess", 3, "repro.dtw.lower_bounds", "_tube_excess"),
    ("search_many", 1, "repro.service", "search_many"),
    ("lower_bounds_many", 2, "repro.index.suffix_search", "lower_bounds_many"),
    ("_search_lane", 2, "repro.index.suffix_search", "_search_lane"),
    ("dtw_verification", 3, "repro.backend.base:SubstrateBackend",
     "dtw_verification"),
    ("k_select", 3, "repro.backend.base:SubstrateBackend", "k_select"),
)


def _timed(fn, entry: list):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            entry[0] += time.perf_counter() - t0
            entry[1] += 1

    return wrapper


def _counting_rows(verify, entry: list):
    """``dtw_verification(self, query, candidates, rho, lengths, need)``
    with the rows it was handed, the band cells they compute (each row's
    through its longest needed suffix) and the anti-diagonals its blocks
    walk added to ``entry[2:5]``."""
    import numpy as np
    from repro.dtw.distance import BLOCK_ROWS, band_cells

    def wrapper(self, query, candidates, rho, lengths=None, need=None):
        rows, d = candidates.shape
        entry[2] += rows
        if lengths is None:
            entry[3] += rows * band_cells(d, rho)
            longest = np.full(-(-rows // BLOCK_ROWS), d)
        else:
            needs = np.bincount(need, minlength=len(lengths) + 1)[1:]
            entry[3] += sum(
                int(count) * band_cells(length, rho)
                for length, count in zip(lengths, needs)
            )
            # The kernel's blocks take the rows longest first.
            first = np.sort(need)[::-1][::BLOCK_ROWS]
            longest = np.asarray(lengths)[first - 1]
        entry[4] += int((2 * longest - 1).sum())
        return verify(self, query, candidates, rho, lengths, need)

    return wrapper


def _counting_evaluations(train, entry: list):
    """The lane trainer ``_train_stack(predictors, problem, ...)`` with
    the trainings and the value and gradient evaluations of its members
    added to ``entry[2:5]``, and the stacked value and gradient calls
    that answered them to ``entry[5:7]``."""
    def wrapper(predictors, problem, *args, **kwargs):
        def counts():
            return [
                sum(getattr(p, name) for p in predictors)
                for name in (
                    "train_calls", "objective_evaluations", "gradient_evaluations"
                )
            ] + [problem.value_calls, problem.gradient_calls]

        before = counts()
        try:
            return train(predictors, problem, *args, **kwargs)
        finally:
            for at, (now, then) in enumerate(zip(counts(), before)):
                entry[2 + at] += now - then

    return wrapper


def _counting_segments(select, entry: list):
    """``k_select(self, values, k, offsets=None)`` with the segments it
    selected in (one row each of the stacked selection) added to
    ``entry[2]``."""
    def wrapper(self, values, k, offsets=None):
        entry[2] += 1 if offsets is None else len(offsets) - 1
        return select(self, values, k, offsets)

    return wrapper


def _counting_windows(step, entry: list):
    """``step_many(indexes, points)`` with the sliding windows whose
    LB_EQ it refreshed (``SW_0`` and the ones whose envelope changed,
    summed over rows) added to ``entry[2]``."""
    def wrapper(indexes, points):
        def refreshed():
            return sum(i.rows_built_full + i.rows_recomputed_lbeq for i in indexes)

        before = refreshed()
        try:
            return step(indexes, points)
        finally:
            entry[2] += refreshed() - before

    return wrapper


def _counting_arrays(bound, entry: list):
    """``lower_bounds_many(groups, modes)`` with the bound arrays it
    wrote (one ``(sensors, starts)`` array per item length and mode
    asked for) added to ``entry[2]``."""
    def wrapper(groups, *args, **kwargs):
        found = bound(groups, *args, **kwargs)
        entry[2] += sum(len(by_length) for by_length in found.stacked.values())
        return found

    return wrapper


def _counting_alone(search_lane, entry: list):
    """``_search_lane`` with the ``(length, sensor)`` rows whose seeds
    ``_lane_seeds`` chose alone (one ``_row_seeds`` call each, not the
    stacked union) added to ``entry[2]``."""
    from repro.index import suffix_search

    def wrapper(*args, **kwargs):
        choose = suffix_search._row_seeds

        def counted(*row_args):
            entry[2] += 1
            return choose(*row_args)

        suffix_search._row_seeds = counted
        try:
            return search_lane(*args, **kwargs)
        finally:
            suffix_search._row_seeds = choose

    return wrapper


def _running(fn, flag: list):
    """``fn`` with ``flag[0]`` raised while it runs."""
    def wrapper(*args, **kwargs):
        flag[0] += 1
        try:
            return fn(*args, **kwargs)
        finally:
            flag[0] -= 1

    return wrapper


def _while(fn, timed, flag: list):
    """``timed`` while ``flag`` is raised, ``fn`` untimed otherwise."""
    def wrapper(*args, **kwargs):
        return (timed if flag[0] else fn)(*args, **kwargs)

    return wrapper


#: Rows timed only while their parent row's call runs.
WITHIN = {"loo_values": "gp_train", "loo_gradients": "gp_train"}

#: What the rows/round column counts on rows that say it in words.
WORK_NOTES = {
    "step_many": "(LB_EQ windows refreshed)",
    "lower_bounds_many": "(bound arrays written)",
    "_search_lane": "(seed rows chosen alone)",
}

#: Rows that count the work beside their wall, and how.
COUNTERS = {
    "step_many": _counting_windows,
    "lower_bounds_many": _counting_arrays,
    "_search_lane": _counting_alone,
    "dtw_verification": _counting_rows,
    "k_select": _counting_segments,
    "gp_train": _counting_evaluations,
}


@contextlib.contextmanager
def layer_timers():
    """Wrap every layer boundary for the block; yields ``{label:
    [seconds, calls, work...]}`` (the work only counted for
    :data:`COUNTERS`: windows refreshed; bound arrays written; seed rows
    chosen alone; rows, DP cells and diagonals; segments selected;
    trainings, value and gradient evaluations, stacked value and gradient
    calls)."""
    totals: dict[str, list] = {}
    patched = []
    flags = {parent: [0] for parent in WITHIN.values()}
    try:
        for label, _, where, attribute in LAYERS:
            module, _, cls = where.partition(":")
            owner = importlib.import_module(module)
            if cls:
                owner = getattr(owner, cls)
            original = getattr(owner, attribute)
            entry = totals[label] = [0.0, 0, 0, 0, 0, 0, 0]
            timed = _timed(original, entry)
            if label in COUNTERS:
                timed = COUNTERS[label](timed, entry)
            if label in flags:
                timed = _running(timed, flags[label])
            if label in WITHIN:
                timed = _while(original, timed, flags[WITHIN[label]])
            setattr(owner, attribute, timed)
            patched.append((owner, attribute, original))
        yield totals
    finally:
        for owner, attribute, original in patched:
            setattr(owner, attribute, original)


def print_layers(totals: dict[str, list], rounds: int, out) -> None:
    ingest = totals["ingest_many"][0] or float("nan")
    print(
        f"{'layer':<30}{'ms/round':>10}{'calls/round':>13}{'of ingest':>11}"
        f"{'rows/round':>12}{'cells/round':>13}{'diagonals/round':>17}",
        file=out,
    )
    for label, depth, _, _ in LAYERS:
        seconds, calls, *work = totals[label]
        forecast_side = label in (
            "forecast_all", "predict_cells", "gp_train", "loo_values",
            "loo_gradients", "mix",
        )
        share = "" if forecast_side else f"{seconds / ingest:>10.1%}"
        note = ""
        if label == "dtw_verification":
            note = (
                f"{work[0] / rounds:>12.1f}{work[1] / rounds:>13.0f}"
                f"{work[2] / rounds:>17.1f}"
            )
        elif label == "k_select":
            note = f"{work[0] / rounds:>12.1f}"  # segments, one row each
        elif label in WORK_NOTES:
            note = f"{work[0] / rounds:>12.1f}   {WORK_NOTES[label]}"
        elif label == "gp_train":
            # Cells trained in the calls column; then what they asked for
            # and how many stacked calls answered it.
            calls = work[0]
            note = "".join(f"{n / rounds:>12.1f}" for n in work[1:5]) + (
                "   (trainings; value, gradient evaluations; stacked value, "
                "gradient calls)"
            )
        print(
            f"{'  ' * depth + label:<30}{seconds / rounds * 1e3:>10.3f}"
            f"{calls / rounds:>13.1f}{share:>11}{note}",
            file=out,
        )
    kernels = totals["dtw_verification"][0] + totals["k_select"][0]
    glue = totals["_search_lane"][0] - kernels
    print(
        f"{'_search_lane glue':<30}{glue / rounds * 1e3:>10.3f}"
        f"{'':>13}{glue / ingest:>10.1%}   (= _search_lane - kernels)",
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
        help="perf_counter wall per layer per round instead of cProfile",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="the benchmark's smoke sizes"
    )
    args = parser.parse_args(argv)
    if args.rounds <= 0:
        raise SystemExit("--rounds must be positive")

    # One BLAS thread: set before NumPy is first imported.
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(variable, "1")
    for path in (ROOT / "benchmarks" / "roundbench", ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from loop import Driver
    from workloads import MAX_ROUNDS, WORKLOADS, generate, smoke_variant

    if args.workload not in WORKLOADS:
        raise SystemExit(
            f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}"
        )
    if args.rounds > MAX_ROUNDS:
        raise SystemExit(f"--rounds is at most {MAX_ROUNDS}")
    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = smoke_variant(workload)
    with contextlib.ExitStack() as stack:
        totals = stack.enter_context(layer_timers()) if args.layers else None
        tmp_dir = stack.enter_context(
            tempfile.TemporaryDirectory(prefix="profile-round-")
        )
        driver = Driver(
            workload, generate(workload, args.seed), args.seed,
            pathlib.Path(tmp_dir),
        )
        stack.callback(driver.close)
        driver.setup()
        if totals is not None:
            for entry in totals.values():
                entry[:] = [0.0, 0, 0, 0, 0, 0, 0]
        gc.collect()
        gc.freeze()
        stack.callback(gc.unfreeze)
        profiler = None if args.layers else cProfile.Profile()
        t0 = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        for done in range(1, args.rounds + 1):
            driver.round()
            driver.maintenance(done)
        if profiler is not None:
            profiler.disable()
        wall = time.perf_counter() - t0

    print(
        f"{workload.name} seed={args.seed}: {args.rounds} rounds after "
        f"{driver.tick - args.rounds} warm-ups, {wall / args.rounds * 1e3:.3f} "
        f"ms/round ({'layer timers' if args.layers else 'under cProfile'}; "
        f"engine={workload.engine}, maintenance included)",
        file=out,
    )
    if totals is not None:
        print_layers(totals, args.rounds, out)
    else:
        pstats.Stats(profiler, stream=out).sort_stats(args.sort).print_stats(
            args.top
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
