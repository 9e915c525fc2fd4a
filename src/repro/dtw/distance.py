"""Dynamic Time Warping under the Sakoe-Chiba band (Appendix B.1).

Conventions (shared by every lower bound in :mod:`repro.dtw.lower_bounds`
so that ``LB <= DTW`` holds exactly):

* point distance is the squared difference ``(q_i - c_j)**2``, computed
  as a product (a NumPy scalar's ``** 2`` goes through ``pow`` and can
  differ from the array ``square`` in the last bit),
* the DTW distance is the raw accumulated sum ``gamma(d, d)`` — no square
  root, matching the paper's Eqns. (21)-(24),
* the warping path is restricted to ``|i - j| <= rho`` (warping width),
* the DTW distance is **end-anchored**: the DP starts at the last points
  and walks back, so the cell that closes ``e`` rows and columns is the
  DTW of the ``e``-suffixes.  The set of warping paths is the one a
  forward DP sums over; only the order each path's costs are added in
  differs (the last bits of a distance).  Every DTW the search relies on
  — :func:`dtw_distance`, the batched kernel and the reference scan —
  runs in this order, so they agree bit for bit.

Implementations:

* :func:`dtw_distance` — reference banded DP with a rolling row,
* :func:`dtw_distance_compressed` — the paper's Algorithm 2 verbatim: the
  ``2 x (2*rho + 2)`` compressed warping matrix designed for GPU shared
  memory, walked forward as printed (it agrees with the reference to
  rounding),
* :func:`dtw_distance_early_abandon` — row-minimum early abandoning used
  by the FastCPUScan baseline (forward too),
* :func:`dtw_batch_pruned` — the one batched kernel: the band DP walked
  anti-diagonal by anti-diagonal, each diagonal evaluated for a block of
  candidates at once (the shape a GPU block would compute in parallel),
  with cumulative-bound early abandoning: candidates whose partial path
  cost plus an admissible tail bound exceeds the cutoff are dropped
  mid-DP and report ``inf``.  Survivors' distances are bit-identical to
  :func:`dtw_distance`,
* :func:`dtw_batch` — the same kernel with no cutoff; given suffix
  ``lengths`` it reads every one of a row's suffix DTWs out of the one
  wavefront over its longest.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "dtw_distance",
    "dtw_distance_compressed",
    "dtw_distance_early_abandon",
    "dtw_batch",
    "dtw_batch_pruned",
    "band_cells",
]

_INF = np.inf

#: Absolute slack added to the abandon cutoff so float rounding in the
#: partial-cost + tail-bound sum can never abandon a candidate whose true
#: distance is exactly at the threshold (extra slack only costs a little
#: wasted verification, never exactness).
ABANDON_SLACK = 1e-9

#: Candidates per DP block of the batched kernel (the CUDA block's role):
#: the wavefront state is ``4 x (d + 2) x BLOCK_ROWS`` floats however many
#: candidates one call verifies.
BLOCK_ROWS = 1024


def _check_inputs(query: np.ndarray, candidate: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    query = np.asarray(query, dtype=np.float64)
    candidate = np.asarray(candidate, dtype=np.float64)
    if query.ndim != 1 or candidate.ndim != 1:
        raise ValueError("DTW expects 1-D sequences")
    if query.size != candidate.size:
        raise ValueError(
            f"equal-length DTW expected, got {query.size} vs {candidate.size}"
        )
    if query.size == 0:
        raise ValueError("DTW of empty sequences is undefined")
    return query, candidate


def dtw_distance(query, candidate, rho: int | None = None) -> float:
    """Banded DTW distance between equal-length sequences.

    ``rho=None`` removes the band (full DTW, the paper's GPUScan setting).
    The DP is end-anchored: it starts at the last points and walks back,
    so row ``i`` of the rolling recurrence holds the DTWs against the
    query's ``i``-suffix — the order every batched kernel uses, and the
    one that lets a DP over the longest suffix answer the shorter ones.
    """
    query, candidate = _check_inputs(query, candidate)
    query, candidate = query[::-1], candidate[::-1]
    d = query.size
    band = d if rho is None else int(rho)
    if band < 0:
        raise ValueError(f"warping width must be non-negative, got {rho}")

    prev = np.full(d + 1, _INF)
    prev[0] = 0.0
    cur = np.empty(d + 1)
    for i in range(1, d + 1):
        cur[:] = _INF
        lo = max(1, i - band)
        hi = min(d, i + band)
        qi = query[i - 1]
        for j in range(lo, hi + 1):
            diff = qi - candidate[j - 1]
            cur[j] = diff * diff + min(prev[j], prev[j - 1], cur[j - 1])
        prev, cur = cur, prev
    return float(prev[d])


def dtw_distance_compressed(query, candidate, rho: int) -> float:
    """Algorithm 2: banded DTW with the ``2 x (2*rho + 2)`` rolling buffer.

    This mirrors the paper's GPU shared-memory kernel: the warping matrix
    is stored modulo ``m = 2*rho + 2`` along the band and modulo 2 across
    rows, reusing memory along the warp path.

    One boundary correction over the printed pseudo-code: Algorithm 2
    clears ``gamma[(j - rho - 1) % m, j % 2]`` each column, but for
    ``2 <= j <= rho + 1`` the cell actually read below the band is
    ``gamma[0, j % 2]`` (the boundary ``gamma(0, j) = inf`` of Eqn. 22),
    which still holds the stale ``gamma(0, 0) = 0`` and lets warping paths
    teleport.  Clamping the cleared index at 0 restores Eqn. 22 (and
    subsumes the pseudo-code's line 5 at ``j = 1``).
    """
    query, candidate = _check_inputs(query, candidate)
    if rho < 0:
        raise ValueError(f"warping width must be non-negative, got {rho}")
    d = query.size
    m = 2 * rho + 2
    # gamma[i % m][j % 2] stores the DP cell (i, j); the modulus reuses the
    # buffer exactly as Algorithm 2 does in shared memory.
    gamma = np.full((m, 2), _INF)
    gamma[0, 0] = 0.0

    for j in range(1, d + 1):
        gamma[max(0, j - rho - 1) % m, j % 2] = _INF
        gamma[(j + rho) % m, (j - 1) % 2] = _INF
        cj = candidate[j - 1]
        for i in range(max(1, j - rho), min(d, j + rho) + 1):
            diff = query[i - 1] - cj
            gamma[i % m, j % 2] = diff * diff + min(
                gamma[(i - 1) % m, j % 2],
                gamma[i % m, (j - 1) % 2],
                gamma[(i - 1) % m, (j - 1) % 2],
            )
    return float(gamma[d % m, d % 2])


def dtw_distance_early_abandon(
    query, candidate, rho: int, best_so_far: float
) -> float:
    """Banded DTW that abandons once every band cell exceeds ``best_so_far``.

    Returns ``inf`` when abandoned — the candidate cannot be a kNN.  This is
    the pruning used by the FastCPUScan baseline (Section 6.2.1, [41, 54]).
    """
    query, candidate = _check_inputs(query, candidate)
    if rho < 0:
        raise ValueError(f"warping width must be non-negative, got {rho}")
    d = query.size
    prev = np.full(d + 1, _INF)
    prev[0] = 0.0
    cur = np.empty(d + 1)
    for i in range(1, d + 1):
        cur[:] = _INF
        lo = max(1, i - rho)
        hi = min(d, i + rho)
        qi = query[i - 1]
        row_min = _INF
        for j in range(lo, hi + 1):
            diff = qi - candidate[j - 1]
            value = diff * diff + min(prev[j], prev[j - 1], cur[j - 1])
            cur[j] = value
            if value < row_min:
                row_min = value
        if row_min > best_so_far:
            return _INF
        prev, cur = cur, prev
    return float(prev[d])


def dtw_batch(
    query, candidates, rho: int | None = None, lengths=None, need=None
) -> np.ndarray:
    """Banded DTW between one query and many candidates, vectorised.

    ``candidates`` has shape ``(n, d)``; ``query`` is ``(d,)`` (every
    candidate against the one query) or ``(n, d)`` (row ``i`` against
    candidate ``i``).  This is :func:`dtw_batch_pruned` with no cutoff:
    nothing is abandoned, every candidate gets a distance.

    ``lengths`` (strictly ascending; those a row needs at most ``d``)
    asks for suffixes: the result is ``(n, len(lengths))`` and entry
    ``[r, l]`` is the banded DTW of the ``lengths[l]``-suffixes of query
    row ``r`` and candidate ``r`` — for ``l < need[r]`` (``need``
    defaults to every length); the entries past a row's ``need`` are
    ``inf``, never computed.  The DP is end-anchored, so one wavefront over a row's
    longest needed suffix answers every shorter one: cell ``(e, e)`` is
    the DTW of the ``e``-suffixes, bit for bit what a call at length
    ``e`` returns.  A row's leading ``d - lengths[need[r] - 1]`` points
    are never read.
    """
    if lengths is None:
        return dtw_batch_pruned(query, candidates, rho)
    return _run(query, candidates, rho, _INF, None, lengths, need)[0]


def dtw_batch_pruned(
    query,
    candidates,
    rho: int | None,
    cutoff: float = _INF,
    lb_terms: np.ndarray | None = None,
    return_cells: bool = False,
) -> np.ndarray | tuple[np.ndarray, int]:
    """Batched banded DTW with cumulative-bound early abandoning.

    The DP is end-anchored — it starts at the last points and walks
    back — and runs anti-diagonal by anti-diagonal (see
    :func:`_wavefront_block`), evaluating every cell of a diagonal for
    all candidates of a block at once — the data-parallel shape a GPU
    block computes with one candidate per thread.  Counted from the end,
    each time a DP row ``i < d`` (the query's last ``i`` points)
    completes, the per-candidate abandon criterion

        ``min(band cells of row i)  +  sum(lb_terms[: d - i - rho])``

    is tested against ``cutoff``.  The first addend lower-bounds the cost
    any warping path has accumulated through row ``i``; the second is an
    admissible tail: candidate position ``j < d - i - rho`` (0-based) can
    only be matched by a query point not yet reached under the band, so
    its LB_Keogh term (squared distance to the query envelope, as
    produced by :func:`~repro.dtw.lower_bounds.lb_improved_profile` pass
    1) is still entirely in the future.  A candidate is abandoned only
    when the criterion *strictly* exceeds ``cutoff + ABANDON_SLACK``, so
    every candidate whose true distance is ``<= cutoff`` survives and its
    distance is **bit-identical** to the scalar recurrence (the
    per-candidate arithmetic never depends on the batch or the cutoff).
    Abandoned candidates report ``inf`` — their true distance is
    guaranteed ``> cutoff``.

    ``query`` is ``(d,)``, broadcast over the candidates, or ``(n, d)``,
    one query per candidate — the shape a launch fused across sensors
    hands over; the per-candidate arithmetic is the same either way.
    ``rho=None`` removes the band; ``lb_terms=None`` disables the tail
    (row minima still abandon).  ``return_cells=True`` additionally
    returns the number of DP cells expanded *in row-major terms* — every
    cell of rows ``1..f`` where ``f`` is the candidate's first failing
    row — which is what the cost model charges, whatever order the host
    kernel visits cells in.
    """
    out, cells = _run(query, candidates, rho, cutoff, lb_terms, None, None)
    return (out[:, 0], cells) if return_cells else out[:, 0]


def band_cells(d: int, rho: int | None) -> int:
    """Cells of the Sakoe-Chiba band of a ``d x d`` warping matrix:
    ``d * (2 * rho + 1) - rho * (rho + 1)`` once ``d > rho``, ``d * d``
    otherwise — what one thread computes for one length-``d`` DTW."""
    return _band_geometry(d, d if rho is None else int(rho))[1][d]


def _run(query, candidates, rho, cutoff, lb_terms, lengths, need):
    """Validate, then run :func:`_wavefront_block` a block of rows at a
    time: ``((n, len(lengths)) distances, row-major cells)``."""
    query = np.asarray(query, dtype=np.float64)
    candidates = np.atleast_2d(np.asarray(candidates, dtype=np.float64))
    n, d = candidates.shape
    if query.shape not in ((d,), (n, d)):
        raise ValueError(
            f"query of shape {query.shape} matches neither one query of "
            f"length {d} nor one per candidate ({n}, {d})"
        )
    lengths = (d,) if lengths is None else tuple(int(e) for e in lengths)
    if not lengths or lengths[0] < 1 or any(
        a >= b for a, b in zip(lengths, lengths[1:])
    ):
        raise ValueError(f"lengths must rise strictly from 1, got {lengths}")
    if need is None:
        need = np.full(n, len(lengths))
    need = np.asarray(need)
    if need.shape != (n,) or (n and not 1 <= need.min() <= need.max() <= len(lengths)):
        raise ValueError(
            f"need must hold one count in 1..{len(lengths)} per candidate"
        )
    if n and lengths[need.max() - 1] > d:
        raise ValueError(
            f"lengths a row needs must be at most its {d} points, got {lengths}"
        )
    if n == 0:
        return np.empty((0, len(lengths))), 0
    band = d if rho is None else int(rho)
    if band < 0:
        raise ValueError(f"warping width must be non-negative, got {rho}")
    if lb_terms is not None:
        lb_terms = np.asarray(lb_terms, dtype=np.float64)
        if lb_terms.shape != (n, d):
            raise ValueError(
                f"lb_terms of shape {lb_terms.shape} do not match "
                f"{n} candidates of length {d}"
            )
    order = None
    if (need[1:] > need[:-1]).any():
        # Rows longest first, so a block drops its finished rows as a
        # tail; callers that hand them over sorted skip this gather.
        order = np.argsort(-need, kind="stable")
        need, candidates = need[order], candidates[order]
        if query.ndim == 2:
            query = query[order]
    threshold = cutoff + ABANDON_SLACK
    out = np.empty((n, len(lengths)))
    cells = 0
    for start in range(0, n, BLOCK_ROWS):
        block = slice(start, start + BLOCK_ROWS)
        out[block], block_cells = _wavefront_block(
            query if query.ndim == 1 else query[block],
            candidates[block],
            band,
            threshold,
            None if lb_terms is None else lb_terms[block],
            lengths,
            need[block],
        )
        cells += block_cells
    if order is not None:
        out[order] = out.copy()
    return out, cells


@functools.lru_cache(maxsize=64)
def _band_geometry(d: int, band: int) -> tuple[tuple, tuple]:
    """Shape of a banded ``d x d`` warping matrix, walked by anti-diagonals.

    Returns ``(diagonals, cells_through)``: one ``(s, lo, hi, row_done)``
    per diagonal ``i + j = s`` whose band cells are rows ``lo..hi``
    (``row_done``: row ``lo < d`` gets its last cell here), and the number
    of band cells in rows ``1..i`` for every ``i``.
    """
    diagonals = []
    for s in range(2, 2 * d + 1):
        lo = max(1, s - d, (s - band + 1) // 2)
        hi = min(d, s - 1, (s + band) // 2)
        diagonals.append((s, lo, hi, lo < d and s - lo == min(d, lo + band)))
    cells_through = [0]
    for i in range(1, d + 1):
        width = min(d, i + band) - max(1, i - band) + 1
        cells_through.append(cells_through[-1] + width)
    return tuple(diagonals), tuple(cells_through)


def _wavefront_block(
    query: np.ndarray,
    candidates: np.ndarray,
    band: int,
    threshold: float,
    lb_terms: np.ndarray | None,
    lengths: tuple[int, ...],
    need: np.ndarray,
) -> tuple[np.ndarray, int]:
    """One block of the batched DP: ``(distances, row-major cells)``.

    The DP is end-anchored: DP row ``i`` is the query's ``i``-th point
    from the end, column ``j`` the candidate's, so cell ``(e, e)`` is the
    banded DTW of the ``e``-suffixes.  Cells on an anti-diagonal
    ``i + j = s`` depend only on diagonals ``s - 1`` (``gamma(i-1, j)``,
    ``gamma(i, j-1)``) and ``s - 2`` (``gamma(i-1, j-1)``), so a diagonal
    is a handful of NumPy calls over one contiguous ``(band cells,
    candidates)`` slab and the DP state is three diagonals — the role
    Algorithm 2's compressed warping matrix plays for columns.  Diagonal
    ``s`` lives in plane ``s % 3``, indexed by row ``i``; the two cells
    flanking its band range are set to ``inf`` when it is written, which
    is all a later diagonal can read outside the range.  Per cell the
    arithmetic is the scalar recurrence's: ``(q_i - c_j)**2 + min`` of
    the three predecessors.  The query plane is ``(d, 1)`` (one query,
    broadcast over the slab) or ``(d, n)`` (column ``c`` is candidate
    ``c``'s own query).

    Rows arrive sorted by ``need``, longest first.  Diagonal
    ``2 * lengths[l]`` holds cell ``(lengths[l], lengths[l])``: it is
    read for every row still in the state, then the rows that need no
    longer suffix — the state's tail — are dropped by one compaction.
    The wavefront spans only the block's longest needed suffix.

    Rows finish in increasing order (row ``i`` on diagonal
    ``i + min(d, i + band)``, always as the diagonal's first cell), so
    testing the abandon criterion when a row completes drops each
    candidate at the same row the row-major order would.  Abandoned
    candidates keep their state columns (nothing reads across columns)
    until half the columns are dead, then the state is compacted.
    """
    n = candidates.shape[0]
    d = lengths[need[0] - 1]  # the block's longest suffix
    diagonals, cells_through = _band_geometry(d, band)
    prune = threshold < _INF
    # cand[k] = the candidates' k-th point of their d-suffix: the cells
    # (i, s - i) of diagonal s, i ascending, read the contiguous rows
    # d - s + i.
    cand = np.ascontiguousarray(candidates[:, candidates.shape[1] - d :].T)
    suffix = query[..., query.shape[-1] - d :]
    query_plane = np.ascontiguousarray(
        suffix[::-1, None] if suffix.ndim == 1 else suffix[:, ::-1].T
    )
    # Planes 0-2: the rotating diagonals; plane 3: running row minima.
    state = np.full((4 if prune else 3, d + 2, n), _INF)
    state[0, 0] = 0.0  # gamma(0, 0)
    cost = np.empty((min(d, band + 1), n))
    tails = None
    if prune and lb_terms is not None:
        # tails[:, j] = lb_terms[:, : d - j].sum() — the admissible tail
        # when the candidate's last j positions are matched.
        tails = np.zeros((n, d + 1))
        tails[:, :d] = np.cumsum(lb_terms, axis=1)[:, ::-1]
    # State column c holds candidate columns[c]; abandoned candidates
    # stay in the state (live[c] False) until compaction drops them.
    columns = np.arange(n)
    live = np.ones(n, dtype=bool)
    n_live = n
    out = np.full((n, len(lengths)), _INF)
    reads = {2 * e: at for at, e in enumerate(lengths[: need[0]])}
    cells = 0

    for s, lo, hi, row_done in diagonals:
        diagonal = state[s % 3]
        diagonal[lo - 1] = _INF
        diagonal[hi + 1] = _INF
        if lo > hi:  # odd diagonal of a zero-width band
            continue
        one_back = state[(s - 1) % 3]
        slab = diagonal[lo : hi + 1]
        np.minimum(one_back[lo - 1 : hi], one_back[lo : hi + 1], out=slab)
        np.minimum(slab, state[(s - 2) % 3][lo - 1 : hi], out=slab)
        step = cost[: hi - lo + 1]
        np.subtract(
            query_plane[lo - 1 : hi], cand[d - s + lo : d - s + hi + 1], out=step
        )
        np.square(step, out=step)
        np.add(step, slab, out=slab)
        if prune:
            row_min = state[3, lo : hi + 1]
            np.minimum(row_min, slab, out=row_min)
            if row_done:
                # Row `lo` is complete: abandon on its minimum plus the tail.
                bound = row_min[0]
                if tails is not None:
                    bound = bound + tails[columns, min(lo + band, d)]
                failed = ~(bound <= threshold) & live
                n_failed = int(np.count_nonzero(failed))
                cells += n_failed * cells_through[lo]
                n_live -= n_failed
                if n_live == 0:
                    return out, cells
                live &= ~failed
                if n_failed and 2 * n_live <= live.size:
                    # Drop the dead columns once they are half the state:
                    # each compaction at least halves it, so copying stays
                    # amortised O(1) per candidate while dead columns cost
                    # at most 2x work.
                    survivors = np.flatnonzero(live)
                    state = state.take(survivors, axis=2)
                    cand = cand.take(survivors, axis=1)
                    if query_plane.shape[1] > 1:
                        query_plane = query_plane.take(survivors, axis=1)
                    cost = np.empty((cost.shape[0], n_live))
                    columns = columns[survivors]
                    live = np.ones(n_live, dtype=bool)
        if s in reads:
            # Cell (e, e): the DTW of every live row's e-suffixes.
            at, e = reads[s], s // 2
            out[columns[live], at] = state[s % 3][e, live]
            keep = int(np.count_nonzero(need[columns] > at + 1))
            cells += int(np.count_nonzero(live[keep:])) * band_cells(e, band)
            if 0 < keep < columns.size:
                # The rows that need no longer suffix are the tail: one
                # copy drops them.
                state = state[:, :, :keep].copy()
                cand = cand[:, :keep].copy()
                if query_plane.shape[1] > 1:
                    query_plane = query_plane[:, :keep].copy()
                cost = np.empty((cost.shape[0], keep))
                columns, live = columns[:keep], live[:keep]
                n_live = int(np.count_nonzero(live))
    return out, cells
