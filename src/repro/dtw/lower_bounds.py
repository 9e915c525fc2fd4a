"""DTW lower bounds: LB_Kim, LB_Keogh, LB_EQ/LB_EC/LB_en, LB_Improved.

Notation follows Section 4.2:

* ``LB_EQ(Q, C) = LB_keogh(E(Q), C)`` — envelope of the *query* against the
  candidate's raw values,
* ``LB_EC(Q, C) = LB_keogh(E(C), Q)`` — envelope of the *candidate* against
  the query's raw values,
* ``LB_en(Q, C) = max(LB_EQ, LB_EC)`` — the paper's enhanced bound
  (Theorem 4.1), tighter than either side and free on a parallel device
  because both sides share the same memory scans,
* ``LB_Improved(Q, C)`` — Lemire's two-pass bound (arxiv 0811.3301):
  the first pass is plain ``LB_EQ``; the second projects the candidate
  onto the query's envelope tube (``H = clip(C, L(Q), U(Q))``) and adds
  ``LB_keogh(E(H), Q)``.  Always ``>= LB_EQ`` and still ``<= DTW``.

All bounds accumulate squared differences, matching
:mod:`repro.dtw.distance`, so ``LB <= DTW`` holds exactly (tested with
hypothesis).  The bounds are *not* mutually ordered — ``LB_Kim`` can
exceed ``LB_en`` and vice versa (e.g. ``rho=1``, ``q=[0,5]``,
``c=[5,0]``: Kim is 50 while the envelopes overlap completely) — which
is exactly why the search cascade runs them cheapest-first and each
tier prunes independently against the same threshold.

For subsequence search the candidate-side envelope is computed once over
the *whole* series: the global envelope at absolute position ``t + j``
covers every value a banded warping path could match ``q_j`` against for
the segment starting at ``t``, so one envelope serves all segments (and is
only looser near segment boundaries — still a valid bound).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..obs import hooks as obs
from .envelope import Envelope, compute_envelope, compute_envelope_batch

__all__ = [
    "lb_kim",
    "lb_kim_profile",
    "lb_keogh",
    "lb_keogh_terms",
    "lb_eq",
    "lb_ec",
    "lb_improved_profile",
    "lb_profile",
    "window_pair_lb_matrices",
    "window_pair_lbeq",
    "window_pair_lbec",
]


def lb_kim(query, candidate) -> float:
    """LB_Kim (first/last-point bound), the O(1) prefilter of [54].

    Any warping path must align the first points together and the last
    points together, so their squared distances sum to a lower bound.
    When both sequences are single points those two alignments are the
    *same* DP cell, so only one term may be counted (otherwise the
    "bound" would be twice the DTW distance).
    """
    query = np.asarray(query, dtype=np.float64)
    candidate = np.asarray(candidate, dtype=np.float64)
    if query.size == 0 or candidate.size == 0:
        raise ValueError("LB_Kim of empty sequences is undefined")
    first = (query[0] - candidate[0]) ** 2
    if query.size == 1 and candidate.size == 1:
        return float(first)
    return float(first + (query[-1] - candidate[-1]) ** 2)


def lb_kim_profile(
    query: np.ndarray, series: np.ndarray, starts: np.ndarray | int
) -> np.ndarray:
    """``LB_Kim`` of one query against many series segments, vectorised.

    Entry ``i`` bounds ``DTW(query, series[starts[i] : starts[i] + d])``
    touching only two series values per candidate — the cascade's O(1)
    tier 0.  An integer ``starts`` means the contiguous starts
    ``0 .. starts - 1`` (two slices, no gather).  Stacked form: ``query``
    ``(size, d)`` against ``series`` ``(size, capacity)`` bounds every
    row's query against the same starts of its own series — row ``i`` is
    the 1-D call on row ``i``, the per-element arithmetic is the same.
    """
    query = np.asarray(query, dtype=np.float64)
    series = np.asarray(series, dtype=np.float64)
    d = query.shape[-1]
    if d == 0:
        raise ValueError("LB_Kim of empty sequences is undefined")
    if isinstance(starts, (int, np.integer)):
        heads, tails = series[..., :starts], series[..., d - 1 : d - 1 + starts]
    else:
        starts = np.asarray(starts, dtype=np.intp)
        heads, tails = series[..., starts], series[..., starts + d - 1]
    first = (query[..., :1] - heads) ** 2
    if d == 1:
        return first
    return first + (query[..., -1:] - tails) ** 2


def lb_keogh_terms(envelope: Envelope, values: np.ndarray) -> np.ndarray:
    """Per-position LB_Keogh terms: squared distance of value to envelope."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape[-1] != len(envelope):
        raise ValueError(
            f"values of length {values.shape[-1]} do not match envelope of "
            f"length {len(envelope)}"
        )
    above = np.clip(values - envelope.upper, 0.0, None)
    below = np.clip(envelope.lower - values, 0.0, None)
    return above**2 + below**2


def lb_keogh(envelope: Envelope, values: np.ndarray) -> float:
    """``LB_keogh(E(X), Y)``: how far ``Y`` strays outside ``X``'s envelope."""
    return float(lb_keogh_terms(envelope, values).sum())


def lb_eq(query, candidate, rho: int) -> float:
    """``LB_EQ(Q, C)`` — query-envelope bound (Section 4.2)."""
    query = np.asarray(query, dtype=np.float64)
    return lb_keogh(compute_envelope(query, rho), candidate)


def lb_ec(query, candidate, rho: int) -> float:
    """``LB_EC(Q, C)`` — candidate-envelope bound (Section 4.2)."""
    candidate = np.asarray(candidate, dtype=np.float64)
    return lb_keogh(compute_envelope(candidate, rho), query)


def lb_improved_profile(
    query: np.ndarray,
    candidates: np.ndarray,
    rho: int,
    query_envelope: Envelope | None = None,
    return_terms: bool = False,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Lemire's two-pass ``LB_Improved`` of one query vs many candidates.

    ``candidates`` has shape ``(n, d)``.  Pass 1 is the ordinary
    ``LB_EQ`` terms of each candidate against the query envelope; pass 2
    projects each candidate onto the envelope tube,
    ``H = clip(C, L(Q), U(Q))``, and adds ``LB_keogh(E(H), Q)``.

    Admissibility with squared point costs: for any warping pair
    ``(q_i, c_j)`` with ``c_j`` above the tube, ``q_i <= U_j`` implies
    ``(q_i - c_j)^2 >= (c_j - U_j)^2 + (U_j - q_i)^2`` (and symmetrically
    below), so ``DTW(Q, C) >= LB_EQ(Q, C) + DTW(Q, H) >=
    LB_EQ(Q, C) + LB_keogh(E(H), Q)``.  In particular
    ``LB_Improved >= LB_EQ`` always.

    ``return_terms=True`` additionally returns the per-position pass-1
    terms (shape ``(n, d)``), whose row sums ``dtw_batch_pruned`` uses
    as an admissible pre-filter against its cutoff.
    """
    query = np.asarray(query, dtype=np.float64)
    candidates = np.atleast_2d(np.asarray(candidates, dtype=np.float64))
    d = query.size
    if candidates.shape[1] != d:
        raise ValueError(
            f"candidates of length {candidates.shape[1]} do not match query "
            f"of length {d}"
        )
    if query_envelope is None:
        query_envelope = compute_envelope(query, rho)
    n = candidates.shape[0]
    if n == 0:
        empty = np.empty(0)
        return (empty, np.empty((0, d))) if return_terms else empty
    terms1 = lb_keogh_terms(query_envelope, candidates)
    # Pass 2: project each candidate into the query tube and bound the
    # query's distance to the projection's envelope.
    projected = np.clip(
        candidates, query_envelope.lower, query_envelope.upper
    )
    h_upper, h_lower = compute_envelope_batch(projected, rho)
    above = np.clip(query[None, :] - h_upper, 0.0, None)
    below = np.clip(h_lower - query[None, :], 0.0, None)
    bound = terms1.sum(axis=1) + (above**2 + below**2).sum(axis=1)
    if return_terms:
        return bound, terms1
    return bound


def lb_profile(
    query: np.ndarray,
    series: np.ndarray,
    rho: int,
    query_envelope: Envelope | None = None,
    series_envelope: Envelope | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """LB_EQ/LB_EC of one query against *every* segment of ``series``.

    Returns ``(lbeq, lbec)`` arrays of length ``len(series) - d + 1`` where
    entry ``t`` bounds ``DTW(query, series[t:t+d])``.  This is the
    "SMiLer-Dir" direct computation the two-level index is benchmarked
    against in Fig. 8; it is also the ground truth the group-level index's
    partial sums are validated under (index bound <= profile bound).
    """
    query = np.asarray(query, dtype=np.float64)
    series = np.asarray(series, dtype=np.float64)
    d = query.size
    if d > series.size:
        raise ValueError(
            f"query of length {d} longer than series of length {series.size}"
        )
    if query_envelope is None:
        query_envelope = compute_envelope(query, rho)
    if series_envelope is None:
        series_envelope = compute_envelope(series, rho)

    segments = sliding_window_view(series, d)
    lbeq = lb_keogh_terms(query_envelope, segments).sum(axis=1)

    # LB_EC: per-position terms of q_j against the global series envelope at
    # absolute position t + j, summed along each diagonal t.
    upper = sliding_window_view(series_envelope.upper, d)
    lower = sliding_window_view(series_envelope.lower, d)
    above = np.clip(query[None, :] - upper, 0.0, None)
    below = np.clip(lower - query[None, :], 0.0, None)
    lbec = (above**2 + below**2).sum(axis=1)
    return lbeq, lbec


def _tube_excess(
    values: np.ndarray, upper: np.ndarray, lower: np.ndarray
) -> np.ndarray:
    """Squared distance of ``values`` to the tube ``[lower, upper]``,
    summed over the last axis (operands broadcast).  Needs
    ``lower <= upper`` (an envelope): then at most one side is outside
    the tube, and the larger of the two excesses, floored at 0, squared
    is the two-sided ``above**2 + below**2`` bit for bit.  NumPy sums a
    last axis shorter than 8 left to right, and a leading axis too, so
    below 8 the sum runs over operands laid out omega-major: the same
    bits in whole-array adds.  From 8 up the last-axis sum is pairwise."""
    with obs.span("_tube_excess"):
        axis = -1
        if values.shape[-1] < 8:
            nd = max(values.ndim, upper.ndim, lower.ndim)
            values, upper, lower = (
                operand.reshape((1,) * (nd - operand.ndim) + operand.shape)
                .transpose(nd - 1, *range(nd - 1))
                .copy()
                for operand in (values, upper, lower)
            )
            axis = 0
        excess = values - upper
        np.maximum(excess, lower - values, out=excess)
        np.maximum(excess, 0.0, out=excess)
        excess *= excess
        return excess.sum(axis=axis)


def window_pair_lbeq(
    sw_upper: np.ndarray, sw_lower: np.ndarray, dw_values: np.ndarray
) -> np.ndarray:
    """``LB_EQ`` between all (SW, DW) pairs: DW values against the
    query-window envelope.  ``(n_sw, omega)`` x ``(n_dw, omega)`` in,
    ``(n_sw, n_dw)`` out; equal leading axes (a stack of sensors) pair
    up and are kept."""
    return _tube_excess(
        dw_values[..., None, :, :],
        sw_upper[..., :, None, :],
        sw_lower[..., :, None, :],
    )


def window_pair_lbec(
    sw_values: np.ndarray, dw_upper: np.ndarray, dw_lower: np.ndarray
) -> np.ndarray:
    """``LB_EC`` between all (SW, DW) pairs: query-window values against
    the series envelope at the DW.  Shapes as :func:`window_pair_lbeq`."""
    return _tube_excess(
        sw_values[..., :, None, :],
        dw_upper[..., None, :, :],
        dw_lower[..., None, :, :],
    )


def window_pair_lb_matrices(
    sw_values: np.ndarray,
    sw_upper: np.ndarray,
    sw_lower: np.ndarray,
    dw_values: np.ndarray,
    dw_upper: np.ndarray,
    dw_lower: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Window-level posting lists: LB_EQ/LB_EC between all (SW, DW) pairs.

    Inputs are ``(n_sw, omega)`` sliding-window slices (raw values plus the
    master-query envelope restricted to the window) and ``(n_dw, omega)``
    disjoint-window slices (raw values plus the *global* series envelope).
    Output matrices have shape ``(n_sw, n_dw)``; entry ``(b, r)`` is the
    omega-point partial bound the group level later shift-sums (Eqn. 5).

    This is exactly the computation the paper assigns one GPU block per
    sliding window; here it is one broadcast expression per side, and a
    leading sensor axis on every input stacks it.
    """
    sw_values = np.asarray(sw_values, dtype=np.float64)
    if sw_values.size == 0 or dw_values.size == 0:
        n_sw = sw_values.shape[0] if sw_values.ndim == 2 else 0
        n_dw = dw_values.shape[0] if np.asarray(dw_values).ndim == 2 else 0
        return np.zeros((n_sw, n_dw)), np.zeros((n_sw, n_dw))
    return (
        window_pair_lbeq(sw_upper, sw_lower, dw_values),
        window_pair_lbec(sw_values, dw_upper, dw_lower),
    )
