"""Exact kNN search over all segments — reference + CPU scan baseline.

Two entry points:

* :func:`knn_bruteforce` — vectorised exact search used as ground truth in
  tests and as the verification backend elsewhere.
* :func:`fast_cpu_scan` — the paper's **FastCPUScan** baseline
  (Section 6.2.1): a serial scan with LB_Keogh pruning and row-minimum
  early abandoning in the style of [41, 54].  It returns operation counts
  (LB positions touched, DTW cells expanded) that the GPU cost model
  converts into simulated running time.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .distance import dtw_batch, dtw_distance_early_abandon
from .envelope import compute_envelope
from .lower_bounds import lb_kim, lb_profile

__all__ = ["KnnResult", "ScanStats", "knn_bruteforce", "fast_cpu_scan"]


@dataclass
class ScanStats:
    """Operation counts for a search, consumed by the cost model."""

    lb_positions: int = 0
    dtw_cells: int = 0
    candidates_total: int = 0
    candidates_verified: int = 0


@dataclass
class KnnResult:
    """kNN answer: segment start indices with their DTW distances."""

    starts: np.ndarray
    distances: np.ndarray
    stats: ScanStats = field(default_factory=ScanStats)

    def __len__(self) -> int:
        return self.starts.size


def _candidate_starts(
    series_length: int, d: int, exclude: tuple[int, int] | None
) -> np.ndarray:
    starts = np.arange(series_length - d + 1)
    if exclude is not None:
        lo, hi = exclude
        overlap = (starts < hi) & (starts + d > lo)
        starts = starts[~overlap]
    return starts


def knn_bruteforce(
    query,
    series,
    k: int,
    rho: int | None,
    exclude: tuple[int, int] | None = None,
    backend=None,
) -> KnnResult:
    """Exact kNN by computing banded DTW on every candidate segment.

    ``exclude`` removes self-matching segments overlapping ``[lo, hi)``
    (standard practice when the query is a suffix of the series itself).
    When ``backend`` is given, the DTW batch is dispatched through it so
    its time/ops ledgers see the work; otherwise the distances are
    computed directly (pure ground truth, no accounting).
    """
    query = np.asarray(query, dtype=np.float64)
    series = np.asarray(series, dtype=np.float64)
    d = query.size
    starts = _candidate_starts(series.size, d, exclude)
    if starts.size == 0:
        raise ValueError("no candidate segments to search")
    k = min(k, starts.size)
    segments = sliding_window_view(series, d)[starts]
    if backend is not None:
        # Lazy import: ``repro.backend`` itself imports this module's
        # siblings, so a top-level import would be circular.
        from ..backend.base import as_backend

        dispatch = as_backend(backend)
        if rho is None:
            distances = dispatch.full_dtw(query, segments)
        else:
            distances = dispatch.dtw_verification(query, segments, rho)
    else:
        distances = dtw_batch(query, segments, rho)
    order = np.argsort(distances, kind="stable")[:k]
    band = d if rho is None else min(rho, d)
    stats = ScanStats(
        dtw_cells=int(starts.size * d * min(d, 2 * band + 1)),
        candidates_total=int(starts.size),
        candidates_verified=int(starts.size),
    )
    return KnnResult(starts[order], distances[order], stats)


def fast_cpu_scan(
    query,
    series,
    k: int,
    rho: int,
    exclude: tuple[int, int] | None = None,
) -> KnnResult:
    """FastCPUScan: LB_Keogh-pruned, early-abandoning serial scan.

    Maintains a max-heap of the best k distances; a candidate is verified
    only when its enhanced lower bound beats the current k-th best, and
    verification abandons as soon as a DP row exceeds it.
    """
    query = np.asarray(query, dtype=np.float64)
    series = np.asarray(series, dtype=np.float64)
    d = query.size
    starts = _candidate_starts(series.size, d, exclude)
    if starts.size == 0:
        raise ValueError("no candidate segments to search")
    k = min(k, starts.size)

    query_env = compute_envelope(query, rho)
    series_env = compute_envelope(series, rho)
    lbeq, lbec = lb_profile(
        query, series, rho, query_envelope=query_env, series_envelope=series_env
    )
    bounds = np.maximum(lbeq, lbec)[starts]
    stats = ScanStats(
        lb_positions=int(2 * d * (series.size - d + 1)),
        candidates_total=int(starts.size),
    )

    # Visit candidates in lower-bound order so the heap tightens fast
    # (the serial analogue of the paper's filtering threshold).
    order = np.argsort(bounds, kind="stable")
    heap: list[tuple[float, int]] = []  # max-heap via negated distance
    segments = sliding_window_view(series, d)
    for idx in order:
        start = int(starts[idx])
        best = -heap[0][0] if len(heap) == k else np.inf
        if bounds[idx] > best:
            break  # all remaining bounds are larger; nothing can improve
        if lb_kim(query, segments[start]) > best:
            # O(1) first/last-point bound beats the k-th best: the true
            # distance can only be larger, skip the DTW entirely.
            stats.lb_positions += 2
            continue
        stats.lb_positions += 2
        distance = dtw_distance_early_abandon(query, segments[start], rho, best)
        stats.candidates_verified += 1
        stats.dtw_cells += d * min(d, 2 * rho + 1)
        if distance < best:
            entry = (-distance, start)
            if len(heap) == k:
                heapq.heapreplace(heap, entry)
            else:
                heapq.heappush(heap, entry)

    found = sorted(((-neg, start) for neg, start in heap))
    distances = np.array([dist for dist, _ in found])
    result_starts = np.array([start for _, start in found], dtype=int)
    return KnnResult(result_starts, distances, stats)
