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
* :func:`dtw_batch` — the one batched kernel: the band DP walked
  anti-diagonal by anti-diagonal, each diagonal evaluated for a block of
  candidates at once (the shape a GPU block would compute in parallel)
  in Algorithm 2's compressed band, indexed by band offset and updated
  in place.  Distances are bit-identical to :func:`dtw_distance`; given
  suffix ``lengths`` it reads every one of a row's suffix DTWs out of
  the one wavefront over its longest; given a ``cutoff`` per row and
  length it stops a row once every read the row has left is sure to
  exceed its cutoff,
* :func:`dtw_batch_pruned` — :func:`dtw_batch` under a cutoff: rows
  whose LB_Keogh terms already exceed it are not computed, the rest stop
  at the cutoff, and every distance above it reports ``inf``.
"""

from __future__ import annotations

import functools

import numpy as np

from ..tolerances import ABANDON_SLACK

__all__ = [
    "dtw_distance",
    "dtw_distance_compressed",
    "dtw_distance_early_abandon",
    "dtw_batch",
    "dtw_batch_pruned",
    "band_cells",
    "launch_work",
]

_INF = np.inf

#: Candidates per DP block of the batched kernel (the CUDA block's role):
#: the wavefront state is ``(2 rho + 4) x BLOCK_ROWS`` floats however many
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
    query,
    candidates,
    rho: int | None = None,
    lengths=None,
    need=None,
    cutoff=None,
    work: dict | None = None,
) -> np.ndarray:
    """Banded DTW between one query and many candidates, vectorised.

    ``candidates`` has shape ``(n, d)``; ``query`` is ``(d,)`` (every
    candidate against the one query) or ``(n, d)`` (row ``i`` against
    candidate ``i``, the shape a launch fused across sensors hands over).
    The DP runs anti-diagonal by anti-diagonal (see
    :func:`_wavefront_block`), every cell of a diagonal for all
    candidates of a block at once — the data-parallel shape a GPU block
    computes with one candidate per thread.  Every distance is
    bit-identical to :func:`dtw_distance`.  ``rho=None`` removes the band.

    ``lengths`` (strictly ascending; those a row needs at most ``d``)
    asks for suffixes: the result is ``(n, len(lengths))`` and entry
    ``[r, l]`` is the banded DTW of the ``lengths[l]``-suffixes of query
    row ``r`` and candidate ``r`` — for ``l < need[r]`` (``need``
    defaults to every length); the entries past a row's ``need`` are
    ``inf``, never computed.  The DP is end-anchored, so one wavefront
    over a row's longest needed suffix answers every shorter one: cell
    ``(e, e)`` is the DTW of the ``e``-suffixes, bit for bit what a call
    at length ``e`` returns.  A row's leading ``d - lengths[need[r] -
    1]`` points are never read.

    ``cutoff`` (the result's shape, or one that broadcasts to it) lets
    the kernel stop rows that cannot come within it: an entry whose
    distance is ``<=`` its cutoff is returned bit-identical to the call
    without one, any other is that same distance or ``inf``.  A NaN
    cutoff never stops its row (see :func:`_wavefront_block`).  ``work``,
    a dict, gets the launch's ``abandoned`` rows (stopped before their
    last needed length) and ``cells_computed`` (band cells, each row's
    own through the last length it read) added to its counts.
    """
    out = _run(query, candidates, rho, lengths, need, cutoff, work)
    return out[:, 0] if lengths is None else out


def dtw_batch_pruned(
    query, candidates, rho: int | None, cutoff: float = _INF, lb_terms=None
) -> np.ndarray:
    """:func:`dtw_batch` under a cutoff: every distance ``<= cutoff`` is
    returned bit-identical to :func:`dtw_batch`, every other row reports
    ``inf``.

    ``lb_terms`` (``(n, d)``, the pass-1 LB_Keogh terms
    :func:`~repro.dtw.lower_bounds.lb_improved_profile` returns) is an
    admissible pre-filter: a row whose terms sum to more than ``cutoff +
    ABANDON_SLACK`` cannot be within the cutoff and is not computed.
    The rows that pass run with ``cutoff`` as their own, so the kernel
    stops those that leave it.
    """
    query, candidates = _checked_rows(query, candidates)
    rows = slice(None)
    if lb_terms is not None:
        lb_terms = np.asarray(lb_terms, dtype=np.float64)
        if lb_terms.shape != candidates.shape:
            raise ValueError(
                f"lb_terms of shape {lb_terms.shape} do not match "
                f"candidates of shape {candidates.shape}"
            )
        rows = ~(lb_terms.sum(axis=1) > cutoff + ABANDON_SLACK)
    distances = dtw_batch(
        query if query.ndim == 1 else query[rows], candidates[rows], rho,
        cutoff=cutoff,
    )
    out = np.full(candidates.shape[0], _INF)
    out[rows] = np.where(distances <= cutoff, distances, _INF)
    return out


def band_cells(d: int, rho: int | None) -> int:
    """Cells of the Sakoe-Chiba band of a ``d x d`` warping matrix:
    ``d * (2 * rho + 1) - rho * (rho + 1)`` once ``d > rho``, ``d * d``
    otherwise — what one thread computes for one length-``d`` DTW."""
    band = d if rho is None else int(rho)
    return d * (2 * band + 1) - band * (band + 1) if d > band else d * d


def launch_work(shape, rho: int | None, lengths=None, need=None) -> dict:
    """The work of a :func:`dtw_batch` launch over ``(n, d)`` candidates
    (``lengths`` / ``need`` as there): its ``rows``, the band ``cells``
    they compute (each row's through its longest needed suffix) and the
    anti-``diagonals`` its blocks walk, ``2 x longest - 1`` per
    :data:`BLOCK_ROWS` block of rows taken longest first."""
    n, d = shape
    if lengths is None:
        cells = n * band_cells(d, rho)
        longest = np.full(-(-n // BLOCK_ROWS), d)
    else:
        needs = np.bincount(need, minlength=len(lengths) + 1)[1:]
        cells = int(np.dot(needs, [band_cells(e, rho) for e in lengths]))
        longest = np.asarray(lengths)[np.sort(need)[::-1][::BLOCK_ROWS] - 1]
    return {"rows": n, "cells": cells, "diagonals": int((2 * longest - 1).sum())}


def _checked_rows(query, candidates) -> tuple[np.ndarray, np.ndarray]:
    """Float64 ``(n, d)`` candidates and a ``(d,)`` or ``(n, d)`` query."""
    query = np.asarray(query, dtype=np.float64)
    candidates = np.atleast_2d(np.asarray(candidates, dtype=np.float64))
    n, d = candidates.shape
    if query.shape not in ((d,), (n, d)):
        raise ValueError(
            f"query of shape {query.shape} matches neither one query of "
            f"length {d} nor one per candidate ({n}, {d})"
        )
    return query, candidates


def _run(query, candidates, rho, lengths, need, cutoff, work) -> np.ndarray:
    """Validate, then run :func:`_wavefront_block` a block of rows at a
    time: the ``(n, len(lengths))`` distances."""
    query, candidates = _checked_rows(query, candidates)
    n, d = candidates.shape
    plain = lengths is None
    lengths = (d,) if plain else tuple(int(e) for e in lengths)
    if not lengths or lengths[0] < 1 or any(
        a >= b for a, b in zip(lengths, lengths[1:])
    ):
        raise ValueError(f"lengths must rise strictly from 1, got {lengths}")
    need = np.full(n, len(lengths)) if need is None else np.asarray(need)
    if need.shape != (n,) or (n and not 1 <= need.min() <= need.max() <= len(lengths)):
        raise ValueError(
            f"need must hold one count in 1..{len(lengths)} per candidate"
        )
    if n and lengths[need.max() - 1] > d:
        raise ValueError(
            f"lengths a row needs must be at most its {d} points, got {lengths}"
        )
    if cutoff is not None:
        cutoff = np.asarray(cutoff, dtype=np.float64)
    if cutoff is not None and cutoff.shape != (n, len(lengths)):
        try:
            cutoff = np.broadcast_to(
                cutoff[:, None] if plain and cutoff.ndim == 1 else cutoff,
                (n, len(lengths)),
            )
        except ValueError:
            raise ValueError(
                f"cutoff of shape {cutoff.shape} does not match the "
                f"{(n,) if plain else (n, len(lengths))} distances"
            ) from None
    if n == 0:
        return np.empty((0, len(lengths)))
    band = d if rho is None else int(rho)
    if band < 0:
        raise ValueError(f"warping width must be non-negative, got {rho}")
    order = None
    if (need[1:] > need[:-1]).any():
        # Rows longest first, so a block drops its finished rows as a
        # tail; callers that hand them over sorted skip this gather.
        order = np.argsort(-need, kind="stable")
        need, candidates = need[order], candidates[order]
        if query.ndim == 2:
            query = query[order]
        if cutoff is not None:
            cutoff = cutoff[order]
    out = np.empty((n, len(lengths)))
    done = np.empty(n, dtype=np.intp)
    for start in range(0, n, BLOCK_ROWS):
        block = slice(start, start + BLOCK_ROWS)
        queries = query if query.ndim == 1 else query[block]
        out[block], done[block] = _wavefront_block(
            queries, candidates[block], band, lengths, need[block],
            None if cutoff is None else cutoff[block],
        )
    if order is not None:
        out[order] = out.copy()
    if work is not None:
        # A row that left after reading length l computed its own band
        # through l; one stopped at the early check, the cells before it.
        at_exit = [_cells_through(lengths[0], band)[lengths[0]]]
        at_exit += [band_cells(e, band) for e in lengths]
        gone = np.bincount(done, minlength=len(lengths) + 1)
        work["abandoned"] = work.get("abandoned", 0) + int(
            np.count_nonzero(done < need)
        )
        work["cells_computed"] = work.get("cells_computed", 0) + int(
            np.dot(gone, at_exit)
        )
    return out


@functools.lru_cache(maxsize=64)
def _band_geometry(d: int, band: int) -> tuple[tuple, ...]:
    """Shape of a banded ``d x d`` warping matrix, walked by anti-diagonals.

    Per diagonal ``i + j = s`` with band cells (rows ``lo..hi``), the
    plan :func:`_wavefront_block` walks: ``(s, target, left, up, rows,
    columns, span)`` — the state keys of the cells and of their
    ``gamma(i, j-1)`` / ``gamma(i-1, j)``, then the query, candidate and
    cost rows, all ``i`` descending.
    """
    w = min(band, d - 1)  # W: band offsets k = j - i run over -W..W
    diagonals = []
    for s in range(2, 2 * d + 1):
        lo = max(1, s - d, (s - band + 1) // 2)
        hi = min(d, s - 1, (s + band) // 2)
        if lo > hi:  # odd diagonal of a zero-width band
            continue
        # Slot p = k + W + 1 of the cell (i, s - i) is buf[p % 2, p // 2];
        # every cell of the diagonal shares the parity of s + W + 1.
        p = s - 2 * hi + w + 1
        plane, row = p % 2, p // 2
        cells = hi - lo + 1
        left = row - 1 + plane  # slot p - 1 in the other plane
        diagonals.append((
            s,
            (plane, slice(row, row + cells)),
            (1 - plane, slice(left, left + cells)),
            (1 - plane, slice(left + 1, left + 1 + cells)),
            slice(d - hi, d - lo + 1), slice(s - hi - 1, s - lo), slice(0, cells),
        ))
    return tuple(diagonals)


@functools.lru_cache(maxsize=64)
def _cells_through(d: int, band: int) -> np.ndarray:
    """``[s]``: the band cells :func:`_wavefront_block` computes per row
    on the anti-diagonals ``2 .. s`` of a ``d x d`` wavefront."""
    through = np.zeros(2 * d + 1, dtype=np.int64)
    for s, *_, span in _band_geometry(d, band):
        through[s] = span.stop
    return np.cumsum(through)


#: What dropping rows costs and saves, in nanoseconds on one x86 core
#: (NumPy, float64): one band cell of one row (the recurrence's five
#: passes over it), one float of a kept row's state copied by ``take``,
#: and a drop's gathers and bookkeeping whatever their size.
_CELL_NS, _COPY_NS, _DROP_NS = 1.5, 1.0, 8000.0
#: What the band cells a check puts at stake must be worth for it to be
#: made.  A check (one reduction and its compares) costs about a drop's
#: fixed price, so a check and the drop it leads to pay for themselves
#: when an eighth of the cells at stake is saved: ``stake / 8 > 2 x
#: _DROP_NS``.  A narrow launch (rho = 2, d <= 16) stakes under this
#: even at ``BLOCK_ROWS`` rows and is never checked.
_CHECK_NS = 16 * _DROP_NS


def _checks(d, band, lengths, need) -> tuple[int, ...]:
    """The diagonals at which :func:`_wavefront_block` checks a block of
    rows needing ``need`` against their cutoffs: diagonal ``lengths[0]``
    and the read points of the lengths some row reads past, each only if
    the band cells its rows have left to compute there
    (:func:`_cells_through`) are worth more than :data:`_CHECK_NS`."""
    through = _cells_through(d, band)
    if need.size * int(through[-1] - through[lengths[0]]) * _CELL_NS <= _CHECK_NS:
        return ()  # not even with every row computing through the block
    reads = 2 * np.asarray(lengths[: need[0]])
    last, rows = through[reads], np.bincount(need, minlength=need[0] + 1)
    checks = []
    for at, s in enumerate([lengths[0], *reads[:-1].tolist()], start=-1):
        # The rows past the check need more than at + 1 lengths.
        stake = np.dot(rows[at + 2 :], last[at + 1 :] - through[s])
        if stake * _CELL_NS > _CHECK_NS:
            checks.append(s)
    return tuple(checks)


def _drop_pays(d, band, s, lengths, need, dead, dropped, copied) -> bool:
    """Whether the ``dropped`` rows ``dead`` marks among rows needing
    ``need``, dropped after diagonal ``s``, would still compute more band
    cells (:func:`_cells_through`) than a drop costs with ``copied``
    floats of kept state to copy.  Bounded first by every one computing
    through the block's last diagonal, so a few dead rows are refused
    without a gather."""
    through = _cells_through(d, band)
    price = copied * _COPY_NS + _DROP_NS
    if dropped * int(through[-1] - through[s]) * _CELL_NS <= price:
        return False
    last = through[2 * np.asarray(lengths)[need[dead] - 1]]
    return (int(last.sum()) - dropped * int(through[s])) * _CELL_NS > price


def _wavefront_block(
    query: np.ndarray,
    candidates: np.ndarray,
    band: int,
    lengths: tuple[int, ...],
    need: np.ndarray,
    cutoff: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One block of the batched DP: the ``(n, len(lengths))`` distances
    and, per row, how many lengths it read before it left the state.

    The DP is end-anchored: DP row ``i`` is the query's ``i``-th point
    from the end, column ``j`` the candidate's, so cell ``(e, e)`` is the
    banded DTW of the ``e``-suffixes.  Cells on an anti-diagonal
    ``i + j = s`` depend only on diagonals ``s - 1`` (``gamma(i-1, j)``,
    ``gamma(i, j-1)``) and ``s - 2`` (``gamma(i-1, j-1)``), so a diagonal
    is a handful of NumPy calls over one contiguous ``(band cells,
    candidates)`` slab.

    The state is Algorithm 2's compressed warping matrix turned to the
    anti-diagonals: one ``(2, W + 2, n)`` buffer, ``W = min(band, d -
    1)``, indexed by band offset ``k = j - i``.  Slot ``p = k + W + 1``
    lives at ``buf[p % 2, p // 2]``, so a diagonal's cells are one
    contiguous slab of one plane (``i`` descending), and it is written in
    place: the slab first holds ``gamma(i-1, j-1)`` (same offset, two
    diagonals back), and ``gamma(i, j-1)`` / ``gamma(i-1, j)`` (offsets
    ``k -/+ 1``, the last diagonal) are two adjacent slabs of the other
    plane.  Slots ``k = +/-(W + 1)`` and every slot whose cells have not
    started are never written: they stay ``inf``, the DP's boundary
    (``gamma(0, 0) = 0`` is slot ``W + 1``'s first value).  Per cell the
    arithmetic is the scalar recurrence's: ``(q_i - c_j)**2 + min`` of
    the three predecessors.  The query rows are ``(d, 1)`` (one query,
    broadcast) or ``(d, n)`` (candidate ``c``'s own in column ``c``).

    Rows arrive sorted by ``need``, longest first, so the rows still in
    the state stay in that order.  Diagonal ``2 * lengths[l]`` holds cell
    ``(lengths[l], lengths[l])``: it is read for those rows, then the
    rows that need no longer suffix — the state's tail — are dropped by
    one copy.  The wavefront spans only the block's longest needed
    suffix.

    With ``cutoff`` (``(n, len(lengths))``) every row is also checked at
    those read points, after its read, and once before the first, at
    diagonal ``lengths[0]`` — at each only if the band cells the rows
    have left there are worth a check (:func:`_checks`).  The least value of the state (both planes:
    the last two diagonals, and older slots, which only lower it) bounds
    every cell a row has yet to compute from below, since ``gamma``
    never decreases along a warping path: a cell is a predecessor plus a
    square, and a float sum with a non-negative term is never below the
    other term.  A row whose bound exceeds ``ahead`` — the largest cutoff
    among the lengths it still reads — comes within none of them and may
    leave.  The test is ``~(bound > cut)``, so a NaN keeps the row.
    Leaving is a ``take`` of the live columns of each state array (it
    stays C-contiguous; a boolean index on the last axis does not), so
    dead rows go only when the slab cells they would still compute cost
    more than the drop: its gathers, and copying the rest unless the
    finished tail is copied out anyway (:func:`_drop_pays`).  Until then
    they compute on and read their exact distances.  A narrow launch, a
    few cells a diagonal, stakes too little to be checked: it reads its
    cutoffs and copies nothing.
    """
    n = candidates.shape[0]
    d = lengths[need[0] - 1]  # the block's longest suffix
    # cand[j - 1] = the candidates' j-th point from the end, qrows[d - i]
    # the query's i-th: a diagonal reads contiguous rows of both.
    cand = np.ascontiguousarray(candidates[:, : -d - 1 : -1].T)
    suffix = query[..., query.shape[-1] - d :]
    qrows = np.ascontiguousarray(suffix[:, None] if suffix.ndim == 1 else suffix.T)
    w = min(band, d - 1)
    zero = ((w + 1) % 2, (w + 1) // 2)  # slot of k = 0: cells (e, e)
    buf = np.full((2, w + 2, n), _INF)
    buf[zero] = 0.0  # gamma(0, 0)
    cost = np.empty((min(d, band + 1), n))
    out = np.full((n, len(lengths)), _INF)
    points = {2 * e: at for at, e in enumerate(lengths[: need[0]])}
    m, rows, done = n, slice(n), need  # rows: the state's, in block order
    checks = () if cutoff is None else _checks(d, band, lengths, need)
    if checks:
        # ahead[l, r]: the largest cutoff among the lengths l.. that row r
        # reads; the rows reading length l + 1 are a prefix.
        ahead = np.array(cutoff.T)
        for l in range(need[0] - 2, -1, -1):
            on = ahead[:, : int(np.count_nonzero(need > l + 1))]
            np.maximum(on[l], on[l + 1], out=on[l])
        per_row = buf[..., 0].size + cand.shape[0] + (
            qrows.shape[0] if qrows.shape[1] > 1 else 0
        )
        if checks[0] == lengths[0]:
            points[lengths[0]] = -1  # the early check

    for s, target, left, up, qs, cs, span in _band_geometry(d, band):
        slab = buf[target]
        np.minimum(slab, buf[left], out=slab)
        np.minimum(slab, buf[up], out=slab)
        step = cost[span]
        np.subtract(qrows[qs], cand[cs], out=step)
        np.square(step, out=step)
        np.add(step, slab, out=slab)
        if s in points:
            at = points[s]
            if at >= 0:  # cell (e, e): the DTW of every remaining row's e-suffixes
                out[rows, at] = buf[zero]
            keep = m if at < 0 else int(np.count_nonzero(need[rows] > at + 1))
            if not keep:  # every row is done
                break
            dead = None
            if s in checks:
                bound = np.minimum.reduce(buf.reshape(-1, m)[:, :keep], axis=0)
                dead = bound > ahead[at + 1, rows][:keep]
                dropped = int(np.count_nonzero(dead))
                if not dropped or dropped < keep and not _drop_pays(
                    d, band, s, lengths, need[rows][:keep], dead, dropped,
                    0 if keep < m else (keep - dropped) * per_row,
                ):
                    dead = None
            if dead is not None:
                ids = np.arange(m) if isinstance(rows, slice) else rows
                if done is need:
                    done = need.copy()
                done[ids[:keep][dead]] = at + 1
                taken = np.flatnonzero(~dead)
                rows, m = ids[taken], taken.size
                if not m:  # every row is dead
                    break
                buf = np.take(buf, taken, axis=2)
                cand = np.take(cand, taken, axis=1)
                if qrows.shape[1] > 1:
                    qrows = np.take(qrows, taken, axis=1)
                cost = np.empty((cost.shape[0], m))
            elif keep < m:
                buf = buf[:, :, :keep].copy()
                cand = cand[:, :keep].copy()
                if qrows.shape[1] > 1:
                    qrows = qrows[:, :keep].copy()
                cost = np.empty((cost.shape[0], keep))
                rows = slice(keep) if isinstance(rows, slice) else rows[:keep]
                m = keep
    return out, done
