"""Reference oracles the optimised index/search layers are tested against.

* :func:`algorithm1_reference` — a literal transcription of the paper's
  Algorithm 1 pseudo-code (Appendix D), one "thread" per (CSG, DW) pair
  walking the posting lists in suffix order; the oracle the vectorised
  :class:`~repro.index.group_index.GroupLevelIndex` is tested against.
* :func:`suffix_knn_reference` — a full banded-DTW scan over every valid
  candidate start, no filtering of any kind; the oracle the pruning
  cascade in :class:`~repro.index.suffix_search.SuffixKnnEngine` must
  match **bit-identically** (starts and distances).  Its distances come
  from a private row-major DP, not from :mod:`repro.dtw.distance`, so
  the comparison stays differential.

Both are deliberately slow and deliberately simple.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..timeseries.windows import csg_size
from .group_index import ItemLowerBounds
from .window_index import WindowLevelIndex

__all__ = ["algorithm1_reference", "suffix_knn_reference"]


def _dtw_row_major(query: np.ndarray, candidates: np.ndarray, rho: int) -> np.ndarray:
    """Banded DTW of ``query`` against every row, one DP cell at a time.

    The textbook row-major recurrence with a rolling row, vectorised over
    candidates only, end-anchored as every DTW of the search is: DP row
    ``i`` is the query's ``i``-th point from the end.  It shares no code
    with the wavefront kernel the backends dispatch — that independence
    is the point.
    """
    n, d = candidates.shape
    query, candidates = query[::-1], candidates[:, ::-1]
    prev = np.full((n, d + 1), np.inf)
    prev[:, 0] = 0.0
    cur = np.empty((n, d + 1))
    for i in range(1, d + 1):
        cur[:] = np.inf
        for j in range(max(1, i - rho), min(d, i + rho) + 1):
            cost = (query[i - 1] - candidates[:, j - 1]) ** 2
            best = np.minimum(prev[:, j], prev[:, j - 1])
            np.minimum(best, cur[:, j - 1], out=best)
            cur[:, j] = cost + best
        prev, cur = cur, prev
    return prev[:, d].copy()


def suffix_knn_reference(
    series: np.ndarray,
    query: np.ndarray,
    k_max: int,
    rho: int,
    margin: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact kNN by full banded DTW over every valid candidate start.

    Candidate-mask semantics match the engine's exactly (a start ``t`` is
    valid when ``t + d + margin <= len(series)``, so the h-step target of
    every answer lies strictly in the past), distances apply the same
    per-cell arithmetic as the kernel the backends dispatch (through an
    independent row-major loop), and ties resolve by smallest start
    (stable sort over ascending starts) — so a correct cascade must
    reproduce this answer bit-identically, which the differential tests
    assert.
    """
    series = np.asarray(series, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64)
    d = query.size
    last_valid = series.size - d - margin
    if last_valid < 0:
        raise ValueError(
            f"no candidates for item length {d}: series too short"
        )
    starts = np.arange(last_valid + 1)
    segments = sliding_window_view(series, d)[: starts.size]
    # A thousand rows at a time: a long history is scanned through three
    # small arrays instead of three history-sized ones.
    distances = np.concatenate(
        [
            _dtw_row_major(query, segments[lo : lo + 1024], rho)
            for lo in range(0, starts.size, 1024)
        ]
    )
    k = min(k_max, starts.size)
    order = np.argsort(distances, kind="stable")[:k]
    return starts[order], distances[order]


def algorithm1_reference(
    window_index: WindowLevelIndex, item_lengths: tuple[int, ...]
) -> dict[int, ItemLowerBounds]:
    """Compute every item query's ``LB_w`` exactly as Algorithm 1 prints it."""
    lengths = tuple(sorted(set(int(d) for d in item_lengths)))
    omega = window_index.omega
    n_dw = window_index.n_dw
    series_len = window_index.series_length
    lbeq_mat, lbec_mat = window_index.posting_matrices()

    results = {
        d: ItemLowerBounds(
            item_length=d,
            lbeq=np.zeros(series_len - d + 1),
            lbec=np.zeros(series_len - d + 1),
            covered=np.zeros(series_len - d + 1, dtype=bool),
        )
        for d in lengths
    }

    # for each CSG_b of master query MQ do              (Algorithm 1, l.1)
    for b in range(omega):
        # for each disjoint window DW_r of C do                       (l.2)
        for r in range(n_dw):
            j = 0          # count window number                      (l.3)
            i = 0          # count item query number                  (l.4)
            d = b + omega  # omega is window length                   (l.5)
            sum_eq = 0.0
            sum_ec = 0.0
            # while i < n do                                          (l.6)
            while i < len(lengths):
                w = b + j * omega
                if w >= window_index.n_sw or r - j < 0:
                    break
                # access window level index                       (l.7-l.8)
                sum_eq += lbeq_mat[w, r - j]
                sum_ec += lbec_mat[w, r - j]
                # if d + omega > |IQ_i| and d <= |IQ_i| then           (l.9)
                while i < len(lengths) and d + omega > lengths[i] >= d:
                    d_i = lengths[i]
                    if csg_size(d_i, b, omega) == j + 1:
                        # t <- (r - j) * omega - (d - b) % omega      (l.10)
                        t = (r - j) * omega - (d_i - b) % omega
                        if 0 <= t <= series_len - d_i:
                            # LB_w <- max{LB_q, LB_c}; store    (l.11-l.12)
                            results[d_i].lbeq[t] = sum_eq
                            results[d_i].lbec[t] = sum_ec
                            results[d_i].covered[t] = True
                    i += 1  # for next item query                     (l.13)
                j += 1
                d += omega  # (l.14)
    return results
