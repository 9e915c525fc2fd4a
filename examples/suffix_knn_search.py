"""Using the Suffix kNN Search engine directly (Section 4).

SMiLer's search step is a useful library on its own: given a sensor's
history, find — for several suffix lengths at once — the k most similar
historical segments under banded DTW, with exact results and index
reuse across continuous steps.  This example:

1. plants a repeating motif in a noisy stream,
2. runs the Suffix kNN Search for item lengths {32, 64, 96},
3. shows that the engine finds the planted occurrences exactly,
4. demonstrates continuous stepping and the filter statistics,
5. cross-checks against the FastCPUScan baseline.

Run with::

    python examples/suffix_knn_search.py
"""

import numpy as np

from repro.backend.base import kernel_seconds
from repro.dtw import fast_cpu_scan
from repro.harness import format_seconds, render_table
from repro.index import SuffixKnnEngine, SuffixSearchConfig


def build_stream(n=6000, seed=7) -> np.ndarray:
    """Noisy stream with a 96-point motif planted every ~800 points."""
    rng = np.random.default_rng(seed)
    stream = 0.3 * rng.normal(size=n)
    motif = np.sin(np.linspace(0, 4 * np.pi, 96)) * 1.5
    for start in range(500, n - 200, 800):
        stream[start : start + 96] += motif
    # End the stream inside a motif occurrence so the suffix matches it.
    stream[n - 96 :] += motif
    return stream


def main() -> None:
    stream = build_stream()
    config = SuffixSearchConfig(
        item_lengths=(32, 64, 96), k_max=8, omega=16, rho=8, margin=1
    )
    engine = SuffixKnnEngine(stream, config)
    # One pass serves every item length; the backend's per-kernel ledger
    # says what its verification launches (and the LB_Kim tier) cost.
    verification = ("dtw_verify", "search_lb_kim")
    before = kernel_seconds(engine.backend, verification)
    answers = engine.search()
    spent = kernel_seconds(engine.backend, verification) - before

    rows = []
    for d, answer in sorted(answers.items()):
        starts = ", ".join(str(s) for s in answer.starts[:4])
        rows.append([
            d,
            f"{answer.distances[0]:.3f}",
            starts,
            f"{answer.candidates_unfiltered}/{answer.candidates_total}",
        ])
    print(render_table(
        ["d", "best DTW", "nearest starts", "verified/total"],
        rows,
        title="Suffix kNN Search over one engine pass (motif every ~800 pts)",
    ))
    print(f"verification, every length at once: {format_seconds(spent)} "
          "of simulated device time")

    # The stream ends inside a motif occurrence, so the very best matches
    # are trivially-shifted self-neighbours near the end; the *planted
    # interior sites* (500, 1300, 2100, ...) must also surface in the top-k.
    planted = set(range(500, stream.size - 200, 800))
    interior_hits = [
        s for s in answers[96].starts
        if any(abs(int(s) - p) <= 10 for p in planted)
    ]
    print(f"\ntop-8 96-length matches: {answers[96].starts.tolist()}")
    print(f"planted interior sites recovered in top-8: {interior_hits}")
    assert interior_hits, "planted motif occurrences must be retrieved"

    # Continuous stepping: feed 5 new points; reuse keeps it cheap.
    before = engine.backend.elapsed_s
    for value in 0.3 * np.random.default_rng(1).normal(size=5):
        answers = engine.step(float(value))
    print(f"5 continuous steps took {format_seconds(engine.backend.elapsed_s - before)} "
          "of simulated device time")

    # Exactness spot-check against the CPU scan baseline.  The engine's
    # margin=1 excludes exactly the trivial self-match at t = n - d, which
    # for the overlap-based `exclude` means the zone (n - 1, n).
    d = 64
    reference = fast_cpu_scan(
        engine.item_query(d), engine.series, k=8, rho=8,
        exclude=(engine.series.size - 1, engine.series.size),
    )
    got = np.sort(answers[d].distances)
    expected = np.sort(reference.distances)
    assert np.allclose(got, expected, atol=1e-9), "engine must stay exact"
    print("cross-check vs FastCPUScan: identical kNN distances ✓")


if __name__ == "__main__":
    main()
