"""Search-cascade benchmark: tiered pruning vs the single-filter baseline.

Not a pytest benchmark — run it directly::

    PYTHONPATH=src python benchmarks/bench_search.py
    PYTHONPATH=src python benchmarks/bench_search.py \
        --backend native --points 60000 --steps 24

Builds two :class:`~repro.index.suffix_search.SuffixKnnEngine` instances
over the *same* seeded series — one with the full pruning cascade
(LB_Kim → LB_w → LB_Improved → early-abandoning DTW), one with
``cascade=False`` (the pre-cascade pipeline: single LB_w filter pass,
unpruned verification) — drives both through identical continuous
steps, and writes ``BENCH_search.json`` with:

* candidates/s for both modes and the cascade's speedup (the headline;
  on one host 3.5x with the row-major verification loop and 1.8x with
  the wavefront kernel, which made the unpruned baseline 4.9x and the
  cascade 2.6x faster — pruning saves less when verifying costs less),
* per-tier prune rates (fraction of all candidates killed by LB_Kim,
  LB_w, LB_Improved, and abandoned mid-DTW) plus the verified fraction,
* simulated kernel seconds per mode from the backend ledger,
* an exactness cross-check: every step's answers must be bit-identical
  between the two modes, and the final step is verified start-for-start
  and distance-for-distance against the full-DTW reference scan
  (:func:`repro.index.reference.suffix_knn_reference`).

The candidates/s ratio is wall-clock, so absolute numbers are
hardware-dependent; the prune rates and simulated seconds are
deterministic for a given seed.  See ``benchmarks/README.md``.

The default band is ``rho=24``, wider than the paper's Table 2 default
of 8, and deliberately so: envelope-based bounds (LB_w, LB_Improved)
loosen as the band widens, so narrow bands let the precomputed LB_w
filter alone prune ~99% of candidates and leave the cascade little wall
time to win back — its gains there show up as fewer verified candidates
(simulated kernel seconds), not host seconds.  Wide bands are the regime
where verification dominates and the band-independent LB_Kim tier plus
early abandoning pay off; that is the trade-off this benchmark is
measuring.  Use ``--rho 8`` to reproduce the narrow-band numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.backend import make_backend  # noqa: E402
from repro.index import SuffixKnnEngine, SuffixSearchConfig  # noqa: E402
from repro.index.reference import suffix_knn_reference  # noqa: E402

TIERS = ("kim", "window", "improved", "abandoned")


def make_workload(n_points: int, n_steps: int, seed: int = 42) -> np.ndarray:
    """Self-similar sensor-like series: trend + season + noise."""
    rng = np.random.default_rng(seed)
    t = np.arange(n_points + n_steps)
    wave = 10.0 * np.sin(t / 23.0) + 3.0 * np.sin(t / 7.0 + 1.3)
    wave += np.cumsum(0.02 * rng.normal(size=t.size))
    wave += 0.1 * rng.normal(size=t.size)
    return wave


def build_engine(series, backend_name: str, cascade: bool,
                 args) -> SuffixKnnEngine:
    cfg = SuffixSearchConfig(
        item_lengths=tuple(int(d) for d in args.lengths.split(",")),
        k_max=args.k, omega=args.omega, rho=args.rho, margin=1,
        cascade=cascade,
    )
    return SuffixKnnEngine(series, cfg, backend=make_backend(backend_name))


def run_mode(engine: SuffixKnnEngine, future: np.ndarray):
    """Initial search (warm-up) then timed continuous steps."""
    engine.search()
    engine.backend.reset_time()
    stats = {
        "candidates_total": 0,
        "candidates_unfiltered": 0,
        "candidates_verified": 0,
        **{f"pruned_{tier}": 0 for tier in TIERS[:3]},
        "abandoned_early": 0,
        "verification_sim_s": 0.0,
        "selection_sim_s": 0.0,
    }
    per_step_answers = []
    t0 = time.perf_counter()
    for point in future:
        answers = engine.step(float(point))
        per_step_answers.append(answers)
    wall_s = time.perf_counter() - t0
    for answers in per_step_answers:
        for a in answers.values():
            stats["candidates_total"] += a.candidates_total
            stats["candidates_unfiltered"] += a.candidates_unfiltered
            stats["candidates_verified"] += a.candidates_verified
            stats["pruned_kim"] += a.pruned_kim
            stats["pruned_window"] += a.pruned_window
            stats["pruned_improved"] += a.pruned_improved
            stats["abandoned_early"] += a.abandoned_early
            stats["verification_sim_s"] += a.verification_sim_s
            stats["selection_sim_s"] += a.selection_sim_s
    return wall_s, stats, per_step_answers


def check_exactness(engine: SuffixKnnEngine, answers) -> bool:
    """Final-step answers vs the full-DTW reference scan, bit for bit."""
    for d, answer in answers.items():
        ref_starts, ref_dist = suffix_knn_reference(
            engine.series, engine.item_query(d), engine.config.k_max,
            engine.config.rho, margin=engine.config.margin,
        )
        if not np.array_equal(answer.starts, ref_starts):
            return False
        if not np.array_equal(answer.distances, ref_dist):
            return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--backend", default="simulated",
                        help="compute backend kind (default: simulated)")
    parser.add_argument("--points", type=int, default=40_000,
                        help="history length (default: 40000)")
    parser.add_argument("--steps", type=int, default=16,
                        help="measured continuous steps (default: 16)")
    parser.add_argument("--lengths", default="32,64,96",
                        help="item lengths (default: 32,64,96)")
    parser.add_argument("--k", type=int, default=8)
    parser.add_argument("--omega", type=int, default=16)
    parser.add_argument("--rho", type=int, default=24,
                        help="Sakoe-Chiba band half-width (default: 24 — "
                        "see the module docstring on why the bench widens "
                        "the band beyond the paper's rho=8)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--out", type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent
        / "BENCH_search.json",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized run: 4000 points, 4 steps (overrides "
        "--points/--steps); exactness checks still run in full",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.points = 4_000
        args.steps = 4

    series_full = make_workload(args.points, args.steps, seed=args.seed)
    series, future = series_full[: args.points], series_full[args.points :]

    runs = {}
    answers_by_mode = {}
    for label, cascade in (("baseline", False), ("cascade", True)):
        engine = build_engine(series, args.backend, cascade, args)
        wall_s, stats, per_step = run_mode(engine, future)
        runs[label] = {
            "wall_s": wall_s,
            "sim_s": engine.backend.elapsed_s,
            "stats": stats,
            "engine": engine,
        }
        answers_by_mode[label] = per_step

    # Both modes are the same exact search: every step, every item
    # length, starts AND distances must agree bit-for-bit.
    modes_identical = True
    for step_base, step_casc in zip(
        answers_by_mode["baseline"], answers_by_mode["cascade"]
    ):
        for d in step_base:
            if not np.array_equal(step_base[d].starts, step_casc[d].starts):
                modes_identical = False
            if not np.array_equal(
                step_base[d].distances, step_casc[d].distances
            ):
                modes_identical = False
    reference_exact = check_exactness(
        runs["cascade"]["engine"], answers_by_mode["cascade"][-1]
    )

    results = {}
    for label, run in runs.items():
        stats = run["stats"]
        total = stats["candidates_total"]
        results[label] = {
            "wall_s": float(run["wall_s"]),
            "sim_s": float(run["sim_s"]),
            "candidates_total": int(total),
            "candidates_per_s": float(total / run["wall_s"]),
            "unfiltered_rate": float(stats["candidates_unfiltered"] / total),
            "verified_rate": float(stats["candidates_verified"] / total),
            "verification_sim_s": float(stats["verification_sim_s"]),
            "selection_sim_s": float(stats["selection_sim_s"]),
        }
    casc_stats = runs["cascade"]["stats"]
    total = casc_stats["candidates_total"]
    results["cascade"]["prune_rates"] = {
        "kim": float(casc_stats["pruned_kim"] / total),
        "window": float(casc_stats["pruned_window"] / total),
        "improved": float(casc_stats["pruned_improved"] / total),
        "abandoned": float(casc_stats["abandoned_early"] / total),
    }
    speedup = (
        results["cascade"]["candidates_per_s"]
        / results["baseline"]["candidates_per_s"]
    )

    rates = results["cascade"]["prune_rates"]
    print(
        f"baseline:  {results['baseline']['candidates_per_s']:,.0f} cand/s "
        f"({results['baseline']['wall_s']:.2f}s wall)"
    )
    print(
        f"cascade:   {results['cascade']['candidates_per_s']:,.0f} cand/s "
        f"({results['cascade']['wall_s']:.2f}s wall)  "
        f"speedup={speedup:.2f}x"
    )
    print(
        "prune rates: "
        + "  ".join(f"{tier}={rates[tier]:.1%}" for tier in TIERS)
        + f"  verified={results['cascade']['verified_rate']:.2%}"
    )
    print(f"exact: modes_identical={modes_identical} "
          f"reference_exact={reference_exact}")
    if not (modes_identical and reference_exact):
        print("ERROR: cascade answers diverged — the cascade must be a "
              "pure optimisation", file=sys.stderr)
        return 1

    payload = {
        "benchmark": "search",
        "config": {
            "backend": args.backend,
            "points": args.points,
            "steps": args.steps,
            "item_lengths": [int(d) for d in args.lengths.split(",")],
            "k_max": args.k,
            "omega": args.omega,
            "rho": args.rho,
            "seed": args.seed,
            "smoke": args.smoke,
        },
        "host": {"cpu_count": os.cpu_count()},
        "results": {
            "baseline": results["baseline"],
            "cascade": results["cascade"],
            "speedup_candidates_per_s": float(speedup),
            "modes_identical": modes_identical,
            "reference_exact": reference_exact,
        },
    }
    canonical = (
        pathlib.Path(__file__).resolve().parent.parent / "BENCH_search.json"
    )
    if args.out.resolve() == canonical and args.smoke:
        print(
            f"ERROR: refusing to publish {canonical.name} from a --smoke "
            "run: the smoke workload is too small for the candidates/s "
            "numbers to mean anything.  Write elsewhere with --out.",
            file=sys.stderr,
        )
        return 1
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
