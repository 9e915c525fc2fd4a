"""Bit-identity battery for the wavefront DTW kernel and log-step envelopes.

The batched kernel walks anti-diagonals in candidate blocks; everything
above ``repro.dtw`` (cost model, prune counts, forecast digests) relies on
it returning exactly what the row-major order returns: every distance,
every abandoned (``inf``) position and the row-major cell count.  Every
DTW is end-anchored (the DP starts at the last points), so one launch
reads each row's shorter suffixes out of the wavefront over its longest
— :class:`TestSuffixReadOut` pins those reads against a call per length
and the oracle.  The oracles here are written out cell by cell and share
no code with the kernel.

:class:`TestBandOffsetLayout` replays every path against the previous
kernel — three rotating ``(d + 2, n)`` diagonals indexed by row — kept
below verbatim with its geometry and swapped in for the band-offset one:
distances, ``inf`` and NaN positions and ``return_cells`` must be the
same bytes.
"""

import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dtw import (
    compute_envelope,
    compute_envelope_batch,
    dtw_batch,
    dtw_batch_pruned,
    dtw_distance,
    envelope_shift,
)
from repro.backend import make_backend
from repro.dtw import distance as distance_module
from repro.dtw.distance import ABANDON_SLACK, band_cells
from repro.gpu.kernels import OPS_PER_DTW_CELL

BLOCK = 5


@pytest.fixture(autouse=True, scope="module")
def small_blocks():
    """Shrink the candidate block so a few rows straddle block edges."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(distance_module, "BLOCK_ROWS", BLOCK)
        yield


def row_major_oracle(query, candidates, rho, cutoff=np.inf, lb_terms=None):
    """``(distances, cells)`` by the end-anchored row-major scalar
    recurrence: DP row ``i`` (column ``j``) is the query's (candidate's)
    ``i``-th (``j``-th) point from the end.

    One candidate at a time, one cell at a time; the abandon criterion is
    tested after every row but the last, as the kernel documents it.
    """
    d = len(query)
    band = d if rho is None else rho
    threshold = cutoff + ABANDON_SLACK
    distances, cells = [], 0
    for c, candidate in enumerate(candidates):
        prev = np.full(d + 1, np.inf)
        prev[0] = 0.0
        abandoned = False
        for i in range(1, d + 1):
            cur = np.full(d + 1, np.inf)
            lo, hi = max(1, i - band), min(d, i + band)
            for j in range(lo, hi + 1):
                diff = query[d - i] - candidate[d - j]
                cur[j] = diff * diff + min(prev[j], prev[j - 1], cur[j - 1])
            cells += hi - lo + 1
            prev = cur
            if i < d and threshold < np.inf:
                bound = cur[lo : hi + 1].min()
                if lb_terms is not None:
                    # The positions no query point matched so far can
                    # reach, summed as the kernel's cumsum does.
                    tail = 0.0
                    for term in lb_terms[c, : d - min(i + band, d)]:
                        tail = tail + term
                    bound = bound + tail
                if not bound <= threshold:
                    abandoned = True
                    break
        distances.append(np.inf if abandoned else prev[d])
    return np.array(distances), cells


def assert_kernel_equals_oracle(query, candidates, rho, cutoff, lb_terms):
    expected, expected_cells = row_major_oracle(
        query, candidates, rho, cutoff, lb_terms
    )
    got, cells = dtw_batch_pruned(
        query, candidates, rho, cutoff=cutoff, lb_terms=lb_terms,
        return_cells=True,
    )
    np.testing.assert_array_equal(got, expected)
    assert cells == expected_cells
    assert type(cells) is int


class TestKernelProperty:
    @settings(max_examples=120, deadline=None)
    @given(
        data=st.data(),
        d=st.integers(1, 40),
        n=st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_row_major_oracle(self, data, d, n, seed):
        rho = data.draw(st.one_of(st.none(), st.integers(0, d + 2)))
        rng = np.random.default_rng(seed)
        query = rng.normal(size=d).cumsum()
        candidates = query + rng.normal(size=(n, d)) * rng.choice([0.05, 1.0])
        exact = dtw_batch(query, candidates, rho)
        np.testing.assert_array_equal(
            exact, row_major_oracle(query, candidates, rho)[0]
        )
        np.testing.assert_array_equal(
            exact, [dtw_distance(query, c, rho) for c in candidates]
        )
        cutoff = data.draw(
            st.sampled_from(
                [np.inf, float(np.median(exact)), float(exact.min()) / 2]
            )
        )
        lb_terms = None
        if data.draw(st.booleans()):
            lb_terms = rng.random((n, d)) * exact.min() / d
        assert_kernel_equals_oracle(query, candidates, rho, cutoff, lb_terms)


class TestKernelAdversarial:
    def test_large_offset(self):
        rng = np.random.default_rng(3)
        query = 1e6 + rng.normal(size=24).cumsum()
        candidates = 1e6 + rng.normal(size=(2 * BLOCK + 1, 24)).cumsum(axis=1)
        exact = dtw_batch(query, candidates, 4)
        assert_kernel_equals_oracle(
            query, candidates, 4, float(np.median(exact)), None
        )

    def test_constant_series(self):
        query = np.full(12, 2.5)
        candidates = np.repeat([[2.5], [2.5], [7.0]], 12, axis=1)
        np.testing.assert_array_equal(
            dtw_batch(query, candidates, 3), [0.0, 0.0, 12 * 4.5**2]
        )
        assert_kernel_equals_oracle(query, candidates, 3, 0.0, None)

    def test_duplicated_rows_tie(self):
        rng = np.random.default_rng(4)
        query = rng.normal(size=16)
        row = rng.normal(size=16)
        candidates = np.tile(row, (BLOCK + 2, 1))
        distances = dtw_batch(query, candidates, 2)
        assert np.unique(distances).size == 1
        assert_kernel_equals_oracle(
            query, candidates, 2, float(distances[0]), None
        )

    def test_cutoff_equal_to_exact_distance_survives(self):
        rng = np.random.default_rng(5)
        query = rng.normal(size=20).cumsum()
        candidates = query + rng.normal(size=(BLOCK + 3, 20))
        exact = dtw_batch(query, candidates, 3)
        lb_terms = np.zeros_like(candidates)
        for cutoff in exact:
            pruned = dtw_batch_pruned(
                query, candidates, 3, cutoff=float(cutoff), lb_terms=lb_terms
            )
            at_most = exact <= cutoff
            np.testing.assert_array_equal(pruned[at_most], exact[at_most])
            assert_kernel_equals_oracle(
                query, candidates, 3, float(cutoff), lb_terms
            )

    def test_every_candidate_abandoned(self):
        rng = np.random.default_rng(6)
        query = rng.normal(size=10)
        candidates = 50.0 + rng.normal(size=(BLOCK + 1, 10))
        distances, cells = dtw_batch_pruned(
            query, candidates, 2, cutoff=1.0, return_cells=True
        )
        assert np.isinf(distances).all()
        # Row 1 has rho + 1 band cells; everything fails right after it.
        assert cells == (BLOCK + 1) * 3

    def test_batch_is_the_pruned_kernel_without_cutoff(self):
        rng = np.random.default_rng(7)
        query = rng.normal(size=9)
        candidates = rng.normal(size=(3, 9))
        distances, cells = dtw_batch_pruned(
            query, candidates, None, return_cells=True
        )
        np.testing.assert_array_equal(distances, dtw_batch(query, candidates))
        assert cells == 3 * 9 * 9


class TestPairedQueries:
    """``query`` of shape ``(n, d)``: row ``i`` against candidate ``i`` —
    the shape a launch fused across sensors hands the kernel."""

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        d=st.integers(1, 24),
        n=st.sampled_from([1, BLOCK, 2 * BLOCK + 3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_each_row_equals_the_scalar_recurrence(self, data, d, n, seed):
        rho = data.draw(st.one_of(st.none(), st.integers(0, d + 2)))
        rng = np.random.default_rng(seed)
        queries = rng.normal(size=(n, d)).cumsum(axis=1)
        candidates = queries + rng.normal(size=(n, d)) * rng.choice([0.05, 1.0])
        expected = [
            dtw_distance(q, c, rho) for q, c in zip(queries, candidates)
        ]
        np.testing.assert_array_equal(
            dtw_batch(queries, candidates, rho), expected
        )

    def test_cutoff_compaction_takes_the_query_columns_too(self):
        """Far rows are abandoned and compacted away mid-DP; the near
        rows, scattered among them, must keep their own queries."""
        rng = np.random.default_rng(11)
        n, d, rho = 4 * BLOCK, 18, 3
        queries = rng.normal(size=(n, d)).cumsum(axis=1)
        candidates = queries + rng.normal(size=(n, d)) * 0.05
        far = rng.permutation(n)[: 3 * n // 4]
        candidates[far] += 40.0
        exact = np.array(
            [dtw_distance(q, c, rho) for q, c in zip(queries, candidates)]
        )
        near = np.setdiff1d(np.arange(n), far)
        cutoff = float(exact[near].max())
        pruned, cells = dtw_batch_pruned(
            queries, candidates, rho, cutoff=cutoff, return_cells=True
        )
        assert np.isinf(pruned[far]).all()
        np.testing.assert_array_equal(pruned[near], exact[near])
        # Cell for cell what one scalar-query call per row reports.
        assert cells == sum(
            dtw_batch_pruned(q, c[None], rho, cutoff=cutoff, return_cells=True)[1]
            for q, c in zip(queries, candidates)
        )

    def test_query_count_must_match_candidate_count(self):
        rng = np.random.default_rng(12)
        candidates = rng.normal(size=(4, 6))
        with pytest.raises(ValueError, match="query of shape"):
            dtw_batch(rng.normal(size=(3, 6)), candidates, 2)
        with pytest.raises(ValueError, match="query of shape"):
            dtw_batch(rng.normal(size=(4, 5)), candidates, 2)
        with pytest.raises(ValueError, match="query of shape"):
            dtw_batch(rng.normal(size=5), candidates, 2)


class TestSuffixReadOut:
    """``lengths`` / ``need``: row ``r``'s DTW of its ``lengths[l]``-
    suffixes for every ``l < need[r]``, read at diagonal ``2 * lengths[l]``
    of the one wavefront over its longest, rows regrouped longest first
    and dropped a length at a time."""

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        d=st.integers(1, 30),
        n=st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_read_is_the_call_at_that_length(self, data, d, n, seed):
        rho = data.draw(
            st.one_of(st.none(), st.just(0), st.integers(0, d + 2), st.just(d))
        )
        lengths = sorted(data.draw(
            st.sets(st.integers(1, d), min_size=1, max_size=4)
        ))
        rng = np.random.default_rng(seed)
        need = rng.integers(1, len(lengths) + 1, size=n)
        queries = rng.normal(size=(n, d)).cumsum(axis=1)
        candidates = queries + rng.normal(size=(n, d)) * rng.choice([0.05, 1.0])
        for r, count in enumerate(need):
            # A row's points before its longest suffix are never read —
            # an end nearer the series start than the launch's longest.
            candidates[r, : d - lengths[count - 1]] = np.nan
        one_query = data.draw(st.booleans())
        query = queries[0] if one_query else queries
        got = dtw_batch(query, candidates, rho, lengths=lengths, need=need)
        assert got.shape == (n, len(lengths))
        for at, e in enumerate(lengths):
            rows = np.flatnonzero(need > at)
            assert np.isinf(got[need <= at, at]).all()
            suffix = query[..., d - e :]
            alone = dtw_batch(
                suffix if one_query else suffix[rows],
                candidates[rows, d - e :], rho,
            )
            np.testing.assert_array_equal(got[rows, at], alone)
            for r, distance in zip(rows, alone):
                q = suffix if one_query else suffix[r]
                (expected,), _ = row_major_oracle(
                    q, candidates[r : r + 1, d - e :], rho
                )
                assert distance == expected
                assert distance == dtw_distance(q, candidates[r, d - e :], rho)

    def test_rows_in_any_order_answer_in_their_own_order(self):
        rng = np.random.default_rng(21)
        n, d, lengths = 3 * BLOCK + 2, 16, (4, 9, 16)
        queries = rng.normal(size=(n, d)).cumsum(axis=1)
        candidates = queries + rng.normal(size=(n, d))
        need = rng.integers(1, 4, size=n)
        got = dtw_batch(queries, candidates, 3, lengths=lengths, need=need)
        order = np.argsort(-need, kind="stable")
        np.testing.assert_array_equal(
            dtw_batch(
                queries[order], candidates[order], 3,
                lengths=lengths, need=need[order],
            ),
            got[order],
        )

    @pytest.mark.parametrize("backend_name", ["simulated", "native"])
    def test_backends_read_the_kernel_and_charge_the_longest_band(
        self, backend_name
    ):
        rng = np.random.default_rng(22)
        n, d, rho, lengths = 2 * BLOCK + 1, 20, 3, (5, 12, 20)
        queries = rng.normal(size=(n, d)).cumsum(axis=1)
        candidates = queries + rng.normal(size=(n, d))
        need = np.sort(rng.integers(1, 3, size=n))[::-1]  # longest is 12
        backend = make_backend(backend_name)
        got = backend.dtw_verification(
            queries, candidates, rho, lengths=lengths, need=need
        )
        np.testing.assert_array_equal(
            got, dtw_batch(queries, candidates, rho, lengths=lengths, need=need)
        )
        if backend_name == "simulated":
            kernel = backend.cost.per_kernel_s["dtw_verify"]
            twin = make_backend("simulated")
            twin.launch("dtw_verify", 1, band_cells(12, rho) * OPS_PER_DTW_CELL)
            assert kernel == twin.cost.per_kernel_s["dtw_verify"]
        empty = backend.dtw_verification(
            queries[:0], candidates[:0], rho, lengths=lengths, need=need[:0]
        )
        assert empty.shape == (0, 3)

    def test_band_cells_counts_the_band(self):
        for d in range(1, 30):
            for rho in (0, 1, 2, 5, d, d + 3, None):
                band = d if rho is None else rho
                assert band_cells(d, rho) == sum(
                    1 for i in range(d) for j in range(d) if abs(i - j) <= band
                )
        assert band_cells(96, 24) == 96 * 49 - 24 * 25

    def test_malformed_lengths_and_needs_are_refused(self):
        query, candidates = np.zeros(6), np.zeros((2, 6))
        for lengths in ((), (0, 3), (3, 3), (4, 2), (7,), (3, 7)):
            with pytest.raises(ValueError, match="lengths"):
                dtw_batch(query, candidates, 2, lengths=lengths)
        for need in ([0, 1], [1, 3], [1]):
            with pytest.raises(ValueError, match="need"):
                dtw_batch(query, candidates, 2, lengths=(3, 6), need=need)



# ------------------------------------------------------------------ oracle
# The previous kernel and its geometry, verbatim: state in three rotating
# (d + 2, n) diagonals indexed by row, flanks written to inf per diagonal.
_INF = np.inf


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


def previous_call(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with the previous kernel in the current
    one's place (the same blocks, the same row order)."""
    with mock.patch.object(distance_module, "_wavefront_block", _wavefront_block):
        return fn(*args, **kwargs)


def same_bits(got, expected) -> bool:
    """Equal shape and dtype, NaN at the same positions, every other
    value the same bytes."""
    got, expected = np.asarray(got), np.asarray(expected)
    if got.shape != expected.shape or got.dtype != expected.dtype:
        return False
    nan = np.isnan(expected)
    return bool((np.isnan(got) == nan).all()) and (
        got[~nan].tobytes() == expected[~nan].tobytes()
    )


def draw_rows(data, rng, n, d):
    """``(query, candidates)``: one query or one per row, at a drawn
    magnitude (up to +/-1e300, whose squares overflow to inf), often
    rounded into ties, sometimes with a NaN (as an injected fault)."""
    scale = data.draw(st.sampled_from([1.0, 1e-3, 1e300, -1e300]))
    queries = rng.normal(size=(n, d)).cumsum(axis=1)
    candidates = queries + rng.normal(size=(n, d)) * rng.choice([0.05, 1.0])
    decimals = data.draw(st.sampled_from([None, 0, 1]))
    if decimals is not None:
        queries, candidates = queries.round(decimals), candidates.round(decimals)
    if data.draw(st.booleans()):
        candidates[rng.integers(n), rng.integers(d)] = np.nan
    queries, candidates = queries * scale, candidates * scale
    return (queries[0] if data.draw(st.booleans()) else queries), candidates


def draw_rho(data, d):
    return data.draw(
        st.one_of(
            st.none(), st.just(0), st.integers(0, d + 2), st.just(d),
            st.just(d + 5),
        )
    )


def assert_paths_equal_the_previous_kernel(query, candidates, rho, lengths, need):
    exact = dtw_batch(query, candidates, rho)
    assert same_bits(exact, previous_call(dtw_batch, query, candidates, rho))
    got = dtw_batch(query, candidates, rho, lengths=lengths, need=need)
    expected = previous_call(
        dtw_batch, query, candidates, rho, lengths=lengths, need=need
    )
    assert same_bits(got, expected)
    finite = exact[np.isfinite(exact)]
    for cutoff in (
        [np.inf, 0.0] if finite.size == 0
        else [np.inf, 0.0, float(np.median(finite)), float(finite.min()) / 2]
    ):
        for lb_terms in (None, np.abs(candidates - candidates.mean()) / 64):
            got, cells = dtw_batch_pruned(
                query, candidates, rho, cutoff=cutoff, lb_terms=lb_terms,
                return_cells=True,
            )
            expected, expected_cells = previous_call(
                dtw_batch_pruned, query, candidates, rho, cutoff=cutoff,
                lb_terms=lb_terms, return_cells=True,
            )
            assert same_bits(got, expected)
            assert cells == expected_cells and type(cells) is int


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestBandOffsetLayout:
    """The band-offset state (one ``(2, W + 2, n)`` buffer written in
    place) against the kept row-indexed kernel, by bytes."""

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        d=st.integers(1, 30),
        n=st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_read_out_path(self, data, d, n, seed):
        rng = np.random.default_rng(seed)
        rho = draw_rho(data, d)
        query, candidates = draw_rows(data, rng, n, d)
        lengths = sorted(data.draw(
            st.sets(st.integers(1, d), min_size=1, max_size=4)
        ))
        need = rng.integers(1, len(lengths) + 1, size=n)
        got = dtw_batch(query, candidates, rho, lengths=lengths, need=need)
        expected = previous_call(
            dtw_batch, query, candidates, rho, lengths=lengths, need=need
        )
        assert same_bits(got, expected)

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        d=st.integers(1, 30),
        n=st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_cutoff_path(self, data, d, n, seed):
        rng = np.random.default_rng(seed)
        rho = draw_rho(data, d)
        query, candidates = draw_rows(data, rng, n, d)
        exact = dtw_batch(query, candidates, rho)
        assert same_bits(exact, previous_call(dtw_batch, query, candidates, rho))
        finite = exact[np.isfinite(exact)]
        cutoff = data.draw(st.sampled_from(
            [np.inf, 0.0] if finite.size == 0
            else [np.inf, 0.0, float(np.median(finite)), float(finite.min()) / 2]
        ))
        lb_terms = None
        if data.draw(st.booleans()):
            lb_terms = rng.random((n, d)) * (finite.min() / d if finite.size else 1.0)
        got, cells = dtw_batch_pruned(
            query, candidates, rho, cutoff=cutoff, lb_terms=lb_terms,
            return_cells=True,
        )
        expected, expected_cells = previous_call(
            dtw_batch_pruned, query, candidates, rho, cutoff=cutoff,
            lb_terms=lb_terms, return_cells=True,
        )
        assert same_bits(got, expected)
        assert cells == expected_cells

    @pytest.mark.parametrize(
        "d, rho",
        [(1, 0), (1, 4), (1, None), (6, 0), (6, 5), (6, 6), (6, 40), (6, None),
         (13, 0), (13, 3)],
    )
    @pytest.mark.parametrize("n", [1, BLOCK, BLOCK + 1, 3 * BLOCK - 1])
    def test_edge_shapes(self, d, rho, n):
        """Band 0 (every odd diagonal empty), band >= d (W = d - 1), d = 1
        and row counts on both sides of the block edges."""
        rng = np.random.default_rng(d * 100 + n)
        queries = rng.normal(size=(n, d)).cumsum(axis=1)
        candidates = queries + rng.normal(size=(n, d))
        lengths = sorted({1, max(1, d // 2), d})
        need = rng.integers(1, len(lengths) + 1, size=n)
        for query in (queries[0], queries):
            assert_paths_equal_the_previous_kernel(
                query, candidates, rho, lengths, need
            )

    def test_extreme_magnitudes_and_ties(self):
        """+/-1e300 (squares overflow to inf), constant and duplicated
        rows (every predecessor ties), a NaN row among them."""
        rng = np.random.default_rng(41)
        d, n = 11, 2 * BLOCK + 1
        queries = np.where(rng.random((n, d)) < 0.5, 1e300, -1e300)
        candidates = queries.copy()
        candidates[::3] = -candidates[::3]
        candidates[1] = 0.0
        candidates[2] = candidates[4]
        candidates[5, 3] = np.nan
        lengths = (2, 5, 11)
        need = rng.integers(1, 4, size=n)
        for rho in (0, 2, 10, None):
            for query in (queries[0], queries, np.full(d, 1e300)):
                assert_paths_equal_the_previous_kernel(
                    query, candidates, rho, lengths, need
                )
            assert_paths_equal_the_previous_kernel(
                np.zeros(d), np.zeros((n, d)), rho, lengths, need
            )

    def test_one_ulp_fails_the_comparison(self):
        """Negative control: the comparison sees a one-ulp change, and a
        NaN moved to another position."""
        rng = np.random.default_rng(42)
        queries = rng.normal(size=(BLOCK + 2, 9)).cumsum(axis=1)
        candidates = queries + rng.normal(size=queries.shape)
        got = dtw_batch(queries, candidates, 2, lengths=(4, 9))
        assert same_bits(got, previous_call(
            dtw_batch, queries, candidates, 2, lengths=(4, 9)
        ))
        bumped = got.copy()
        bumped[3, 1] = np.nextafter(bumped[3, 1], np.inf)
        assert not same_bits(got, bumped)
        with_nan, moved = got.copy(), got.copy()
        with_nan[0, 0], moved[1, 0] = np.nan, np.nan
        assert not same_bits(with_nan, moved)
        assert not same_bits(got, got[:, :1])

def naive_envelope(values, rho):
    n = len(values)
    upper = np.array(
        [max(values[max(0, i - rho) : i + rho + 1]) for i in range(n)]
    )
    lower = np.array(
        [min(values[max(0, i - rho) : i + rho + 1]) for i in range(n)]
    )
    return upper, lower


class TestEnvelopeIdentity:
    @settings(max_examples=100, deadline=None)
    @given(
        d=st.integers(1, 40),
        rho=st.integers(0, 45),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_envelopes_match_naive_loop(self, d, rho, seed):
        rng = np.random.default_rng(seed)
        # Rounded values make ties inside a window common.
        values = rng.normal(size=d + 1).round(1)
        upper, lower = naive_envelope(values[:d], rho)
        env = compute_envelope(values[:d], rho)
        np.testing.assert_array_equal(env.upper, upper)
        np.testing.assert_array_equal(env.lower, lower)

        batch = np.stack([values[:d], values[:d][::-1], values[1:]])
        batch_upper, batch_lower = compute_envelope_batch(batch, rho)
        for r, row in enumerate(batch):
            row_upper, row_lower = naive_envelope(row, rho)
            np.testing.assert_array_equal(batch_upper[r], row_upper)
            np.testing.assert_array_equal(batch_lower[r], row_lower)

        # Slide by one point, reusing the old envelope.
        slid_upper, slid_lower = naive_envelope(values[1:], rho)
        slid = envelope_shift(values[1:], env)
        np.testing.assert_array_equal(slid.upper, slid_upper)
        np.testing.assert_array_equal(slid.lower, slid_lower)

    @pytest.mark.parametrize("d, rho", [(1, 0), (1, 3), (5, 0), (5, 5), (5, 9)])
    def test_edge_shapes(self, d, rho):
        values = np.arange(d, dtype=float)[::-1].copy()
        upper, lower = naive_envelope(values, rho)
        env = compute_envelope(values, rho)
        np.testing.assert_array_equal(env.upper, upper)
        np.testing.assert_array_equal(env.lower, lower)
        assert env.upper is not values and env.lower is not values
        batch_upper, batch_lower = compute_envelope_batch(values[None, :], rho)
        np.testing.assert_array_equal(batch_upper[0], upper)
        np.testing.assert_array_equal(batch_lower[0], lower)
