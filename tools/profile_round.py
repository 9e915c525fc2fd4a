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

    forecast_all -> gp_train
    ingest_many -> absorb_many (tune, step_many)
                -> search_many (lower_bounds_many, _search_item
                                 (dtw_verification, k_select))

— so a PR can quote glue = ``_search_item`` − kernels.  ``search_many``
rows include the forecast side's stale re-searches, if any.  Two rows
also say how much work their wall bought: ``dtw_verification`` the rows
verified and DP cells (``Σ n·d·min(d, 2ρ+1)``) per round, ``gp_train``
(every GP cell's hyperparameter training, 0 on AR workloads) the LOO
objective's value and gradient evaluations per round.
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
    ("gp_train", 1, "repro.core.gp_predictor:GaussianProcessPredictor",
     "_train"),
    ("ingest_many", 0, "repro.service:PredictionService", "ingest_many"),
    ("absorb_many", 1, "repro.service", "absorb_many"),
    ("tune", 2, "repro.core.smiler:SMiLer", "tune"),
    ("step_many", 2, "repro.core.smiler", "step_many"),
    ("search_many", 1, "repro.service", "search_many"),
    ("lower_bounds_many", 2, "repro.index.suffix_search", "lower_bounds_many"),
    ("_search_item", 2, "repro.index.suffix_search", "_search_item"),
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
    """``dtw_verification(self, query, candidates, rho)`` with the rows
    and band cells it was handed added to ``entry[2:4]``."""
    def wrapper(self, query, candidates, rho):
        rows, d = candidates.shape
        entry[2] += rows
        entry[3] += rows * d * min(d, 2 * rho + 1)
        return verify(self, query, candidates, rho)

    return wrapper


def _counting_evaluations(train, entry: list):
    """``GaussianProcessPredictor._train`` with the value and gradient
    evaluations it asked of its objective added to ``entry[2:4]``."""
    def wrapper(self, *args, **kwargs):
        values, gradients = self.objective_evaluations, self.gradient_evaluations
        try:
            return train(self, *args, **kwargs)
        finally:
            entry[2] += self.objective_evaluations - values
            entry[3] += self.gradient_evaluations - gradients

    return wrapper


#: Rows that count the work beside their wall, and how.
COUNTERS = {
    "dtw_verification": _counting_rows,
    "gp_train": _counting_evaluations,
}


@contextlib.contextmanager
def layer_timers():
    """Wrap every layer boundary for the block; yields
    ``{label: [seconds, calls, work, work]}`` (the last two only counted
    for :data:`COUNTERS`: rows and DP cells, value and gradient
    evaluations)."""
    totals: dict[str, list] = {}
    patched = []
    try:
        for label, _, where, attribute in LAYERS:
            module, _, cls = where.partition(":")
            owner = importlib.import_module(module)
            if cls:
                owner = getattr(owner, cls)
            original = getattr(owner, attribute)
            entry = totals[label] = [0.0, 0, 0, 0]
            timed = _timed(original, entry)
            if label in COUNTERS:
                timed = COUNTERS[label](timed, entry)
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
        f"{'rows/round':>12}{'cells/round':>13}",
        file=out,
    )
    for label, depth, _, _ in LAYERS:
        seconds, calls, n_rows, cells = totals[label]
        forecast_side = label in ("forecast_all", "gp_train")
        share = "" if forecast_side else f"{seconds / ingest:>10.1%}"
        work = ""
        if label == "dtw_verification":
            work = f"{n_rows / rounds:>12.1f}{cells / rounds:>13.0f}"
        elif label == "gp_train":
            work = (
                f"{n_rows / rounds:>12.1f}{cells / rounds:>13.1f}"
                "   (value, gradient evaluations)"
            )
        print(
            f"{'  ' * depth + label:<30}{seconds / rounds * 1e3:>10.3f}"
            f"{calls / rounds:>13.1f}{share:>11}{work}",
            file=out,
        )
    kernels = totals["dtw_verification"][0] + totals["k_select"][0]
    glue = totals["_search_item"][0] - kernels
    print(
        f"{'_search_item glue':<30}{glue / rounds * 1e3:>10.3f}"
        f"{'':>13}{glue / ingest:>10.1%}   (= _search_item - kernels)",
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
                entry[:] = [0.0, 0, 0, 0]
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
