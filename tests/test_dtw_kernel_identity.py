"""Bit-identity battery for the wavefront DTW kernel and log-step envelopes.

The batched kernel walks anti-diagonals in candidate blocks; everything
above ``repro.dtw`` (cost model, prune counts, forecast digests) relies on
it returning exactly what the row-major order returns.  Every DTW is
end-anchored (the DP starts at the last points), so one launch reads each
row's shorter suffixes out of the wavefront over its longest —
:class:`TestSuffixReadOut` pins those reads against a call per length and
the oracle.  The oracles here are written out cell by cell and share no
code with the kernel.

``dtw_batch``'s ``cutoff`` (one per row and length) lets the kernel stop
rows that cannot come within it: an entry within its cutoff is the uncut
call's to the bit, any other ``inf`` or the same (:class:`TestRowCutoffs`,
where the compaction prices are patched so every dead row is dropped).
``dtw_batch_pruned`` runs the rows its ``lb_terms`` do not rule out under
its cutoff: every distance at or below it is ``dtw_batch``'s to the byte,
every other row ``inf``, and a row whose ``lb_terms`` already exceed the
cutoff never reaches the kernel (:class:`TestPrunedContract`).

:class:`TestBandOffsetLayout` replays every path against the previous
kernel — three rotating ``(d + 2, n)`` diagonals indexed by row — kept
below with its geometry and driven through its own blocks: distances and
NaN positions must be the same bytes.
"""

import contextlib
import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
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
from repro.dtw.distance import band_cells
from repro.gpu.kernels import OPS_PER_DTW_CELL
from repro.tolerances import ABANDON_SLACK

BLOCK = 5


@pytest.fixture(autouse=True, scope="module")
def small_blocks():
    """Shrink the candidate block so a few rows straddle block edges."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(distance_module, "BLOCK_ROWS", BLOCK)
        yield


def row_major_oracle(query, candidates, rho):
    """Distances by the end-anchored row-major scalar recurrence: DP row
    ``i`` (column ``j``) is the query's (candidate's) ``i``-th (``j``-th)
    point from the end.  One candidate at a time, one cell at a time."""
    d = len(query)
    band = d if rho is None else rho
    distances = []
    for candidate in candidates:
        prev = np.full(d + 1, np.inf)
        prev[0] = 0.0
        for i in range(1, d + 1):
            cur = np.full(d + 1, np.inf)
            for j in range(max(1, i - band), min(d, i + band) + 1):
                diff = query[d - i] - candidate[d - j]
                cur[j] = diff * diff + min(prev[j], prev[j - 1], cur[j - 1])
            prev = cur
        distances.append(prev[d])
    return np.array(distances)


def admissible_terms(rng, exact, d):
    """Random ``lb_terms`` whose row sums stay at or below half the
    row's DTW (zero where that is not finite): a valid lower bound."""
    scale = np.where(np.isfinite(exact), exact, 0.0) / (2 * d)
    return rng.random((exact.size, d)) * scale[:, None]


def assert_pruned_contract(query, candidates, rho, cutoff, lb_terms=None):
    """Rows within ``cutoff`` are ``dtw_batch``'s bytes, the rest ``inf``
    (``lb_terms`` must be admissible)."""
    exact = dtw_batch(query, candidates, rho)
    got = dtw_batch_pruned(
        query, candidates, rho, cutoff=cutoff, lb_terms=lb_terms
    )
    within = exact <= cutoff
    assert same_bits(got[within], exact[within])
    assert (got[~within] == np.inf).all()


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
            exact, row_major_oracle(query, candidates, rho)
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
            lb_terms = admissible_terms(rng, exact, d)
        assert_pruned_contract(query, candidates, rho, cutoff, lb_terms)


class TestKernelAdversarial:
    def test_large_offset(self):
        rng = np.random.default_rng(3)
        query = 1e6 + rng.normal(size=24).cumsum()
        candidates = 1e6 + rng.normal(size=(2 * BLOCK + 1, 24)).cumsum(axis=1)
        exact = dtw_batch(query, candidates, 4)
        np.testing.assert_array_equal(
            exact, row_major_oracle(query, candidates, 4)
        )
        assert_pruned_contract(query, candidates, 4, float(np.median(exact)))

    def test_constant_series(self):
        query = np.full(12, 2.5)
        candidates = np.repeat([[2.5], [2.5], [7.0]], 12, axis=1)
        np.testing.assert_array_equal(
            dtw_batch(query, candidates, 3), [0.0, 0.0, 12 * 4.5**2]
        )
        assert_pruned_contract(query, candidates, 3, 0.0)

    def test_duplicated_rows_tie(self):
        rng = np.random.default_rng(4)
        query = rng.normal(size=16)
        row = rng.normal(size=16)
        candidates = np.tile(row, (BLOCK + 2, 1))
        distances = dtw_batch(query, candidates, 2)
        assert np.unique(distances).size == 1
        assert_pruned_contract(query, candidates, 2, float(distances[0]))

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
            assert_pruned_contract(query, candidates, 3, float(cutoff), lb_terms)

    def test_every_candidate_abandoned(self):
        rng = np.random.default_rng(6)
        query = rng.normal(size=10)
        candidates = 50.0 + rng.normal(size=(BLOCK + 1, 10))
        distances = dtw_batch_pruned(query, candidates, 2, cutoff=1.0)
        assert (distances == np.inf).all()

    def test_batch_is_the_pruned_kernel_without_cutoff(self):
        rng = np.random.default_rng(7)
        query = rng.normal(size=9)
        candidates = rng.normal(size=(3, 9))
        np.testing.assert_array_equal(
            dtw_batch_pruned(query, candidates, None),
            dtw_batch(query, candidates),
        )


def received(query, candidates, rho, **kwargs):
    """``dtw_batch_pruned``'s ``(result, [(query, candidates)] dtw_batch
    was handed)``."""
    calls = []

    def spy(q, c, *args, **kw):
        calls.append((np.array(q), np.array(c)))
        return dtw_batch(q, c, *args, **kw)

    with mock.patch.object(distance_module, "dtw_batch", spy):
        got = dtw_batch_pruned(query, candidates, rho, **kwargs)
    return got, calls


class TestPrunedContract:
    """``dtw_batch_pruned`` computes the rows its ``lb_terms`` cannot rule
    out with one ``dtw_batch`` call, and only those."""

    def test_rows_whose_terms_exceed_the_cutoff_never_reach_the_kernel(self):
        rng = np.random.default_rng(8)
        n, d, cutoff = 3 * BLOCK + 1, 12, 4.0
        query = rng.normal(size=d)
        candidates = query + rng.normal(size=(n, d)) * 0.2
        sums = rng.choice([0.0, cutoff, cutoff + ABANDON_SLACK, 9.0], size=n)
        sums[:4] = [0.0, cutoff, cutoff + ABANDON_SLACK, 9.0]
        lb_terms = np.zeros((n, d))
        lb_terms[:, 0] = sums  # a one-term row sums to its term exactly
        got, calls = received(
            query, candidates, 3, cutoff=cutoff, lb_terms=lb_terms
        )
        computed = sums <= cutoff + ABANDON_SLACK  # only "exceeds" is skipped
        assert len(calls) == 1
        sent_query, sent = calls[0]
        assert sent.shape[0] == np.count_nonzero(computed)
        assert sent.tobytes() == candidates[computed].tobytes()
        assert sent_query.tobytes() == query.tobytes()
        assert (got[~computed] == np.inf).all()
        exact = dtw_batch(query, candidates, 3)
        within = computed & (exact <= cutoff)
        assert same_bits(got[within], exact[within])
        assert (got[computed & ~within] == np.inf).all()

    def test_the_rows_that_pass_run_under_the_cutoff(self):
        """One abandon mechanism: the rows the terms let through reach
        the kernel with the scalar cutoff as their own, and far rows
        among them are stopped there (``work``) — the answer unchanged."""
        rng = np.random.default_rng(10)
        n, d, cutoff = 2 * BLOCK + 1, 14, 6.0
        query = rng.normal(size=d)
        candidates = query + rng.normal(size=(n, d)) * 0.3
        candidates[::2, -1] += 9.0  # past the cutoff in every path's first cell
        seen = []

        def spy(q, c, *args, **kw):
            seen.append(kw.get("cutoff"))
            return dtw_batch(q, c, *args, **kw)

        with mock.patch.object(distance_module, "dtw_batch", spy):
            got = dtw_batch_pruned(query, candidates, 2, cutoff=cutoff)
        assert seen == [cutoff]
        exact = dtw_batch(query, candidates, 2)
        within = exact <= cutoff
        assert within[1::2].all() and not within[::2].any()
        assert same_bits(got[within], exact[within])
        assert (got[~within] == np.inf).all()
        work = {}
        with prices("always"):
            again = dtw_batch_pruned(query, candidates, 2, cutoff=cutoff)
            dtw_batch(query, candidates, 2, cutoff=cutoff, work=work)
        assert same_bits(again, got) and work["abandoned"] == (n + 1) // 2

    def test_every_row_ruled_out_computes_none(self):
        rng = np.random.default_rng(9)
        query, candidates = rng.normal(size=6), rng.normal(size=(BLOCK, 6))
        got, calls = received(
            query, candidates, 2, cutoff=0.5, lb_terms=np.ones((BLOCK, 6))
        )
        assert [c.shape[0] for _, c in calls] == [0]
        assert (got == np.inf).all()

    def test_malformed_terms_are_refused(self):
        query, candidates = np.zeros(6), np.zeros((3, 6))
        with pytest.raises(ValueError, match="lb_terms"):
            dtw_batch_pruned(
                query, candidates, 2, cutoff=1.0, lb_terms=np.zeros((2, 6))
            )
        with pytest.raises(ValueError, match="query of shape"):
            dtw_batch_pruned(np.zeros((2, 6)), candidates, 2, cutoff=1.0)


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
        """Far rows are ruled out by their terms and compacted away before
        the kernel; the near rows, scattered among them, must keep their
        own queries."""
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
        lb_terms = admissible_terms(rng, exact, d)
        lb_terms[far] = exact[far, None] / d * 0.9  # above the cutoff
        pruned, calls = received(
            queries, candidates, rho, cutoff=cutoff, lb_terms=lb_terms
        )
        (sent_queries, sent), = calls
        assert sent_queries.tobytes() == queries[near].tobytes()
        assert sent.tobytes() == candidates[near].tobytes()
        assert np.isinf(pruned[far]).all()
        np.testing.assert_array_equal(pruned[near], exact[near])
        # Row for row what one scalar-query call per row computes.
        assert sent.shape[0] == sum(
            received(q, c[None], rho, cutoff=cutoff, lb_terms=t[None])[1][0][1]
            .shape[0]
            for q, c, t in zip(queries, candidates, lb_terms)
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
                (expected,) = row_major_oracle(
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



#: Prices under which every block is checked and every row found dead is
#: dropped at once, so the property below runs the take path on shapes
#: too small to pay for it.
ALWAYS_DROP = {"_CELL_NS": 1.0, "_COPY_NS": 0.0, "_DROP_NS": 0.0, "_CHECK_NS": 0.0}


def prices(kind):
    """The compaction rule's prices: as shipped, or always dropping."""
    if kind == "shipped":
        return contextlib.nullcontext()
    return mock.patch.multiple(distance_module, **ALWAYS_DROP)


def draw_cutoffs(data, uncut):
    """One cutoff per entry of ``uncut``: NaN, the entry's own distance
    (kept: it is ``<=`` itself), 0, a subnormal, +inf, one ulp below the
    entry, half of it, or the launch's median finite distance."""
    finite = uncut[np.isfinite(uncut)]
    median = float(np.median(finite)) if finite.size else 1.0
    picks = np.array(data.draw(st.lists(
        st.integers(0, 7), min_size=uncut.size, max_size=uncut.size
    ))).reshape(uncut.shape)
    with np.errstate(invalid="ignore"):
        palette = [
            np.full_like(uncut, np.nan), uncut, np.zeros_like(uncut),
            np.full_like(uncut, 5e-324), np.full_like(uncut, np.inf),
            np.nextafter(uncut, -np.inf), uncut / 2, np.full_like(uncut, median),
        ]
    return np.choose(picks, palette)


def assert_cutoff_contract(got, uncut, cutoff, need):
    """Within its cutoff an entry is the uncut call's, to the bit; any
    other is ``inf`` or that same value; past a row's need, ``inf``."""
    within = uncut <= cutoff
    assert [x.hex() for x in got[within].tolist()] == [
        x.hex() for x in uncut[within].tolist()
    ]
    same = got.view(np.int64) == uncut.view(np.int64)
    assert ((got == np.inf) | same)[~within].all()
    past = np.arange(uncut.shape[1]) >= need[:, None]
    assert (got[past] == np.inf).all()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestRowCutoffs:
    """``cutoff``: one per row and length; the kernel may stop a row once
    every read it has left is sure to lie above its cutoff, at the read
    points and one early diagonal (``_wavefront_block``)."""

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        d=st.integers(1, 30),
        n=st.sampled_from([1, BLOCK - 1, BLOCK + 1, 2 * BLOCK + 3]),
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["shipped", "always"]),
    )
    def test_an_entry_within_its_cutoff_is_the_uncut_bits(
        self, data, d, n, seed, kind
    ):
        rng = np.random.default_rng(seed)
        rho = draw_rho(data, d)
        query, candidates = draw_rows(data, rng, n, d)
        lengths = sorted(data.draw(
            st.sets(st.integers(1, d), min_size=1, max_size=4)
        ))
        need = rng.integers(1, len(lengths) + 1, size=n)
        uncut = dtw_batch(query, candidates, rho, lengths=lengths, need=need)
        cutoff = draw_cutoffs(data, uncut)
        work = {}
        with prices(kind):
            got = dtw_batch(
                query, candidates, rho, lengths=lengths, need=need,
                cutoff=cutoff, work=work,
            )
        assert_cutoff_contract(got, uncut, cutoff, need)
        assert 0 <= work["abandoned"] <= n
        event(f"{kind}: rows abandoned {work['abandoned'] > 0}")

    def test_rows_are_stopped_at_the_early_check_and_the_read_points(self):
        """Rows far in their last points leave at the early check, before
        any read; rows far only inside the 12-suffix leave after their
        12 read; every kept read is exact — in blocks of ``BLOCK`` rows.
        As shipped, a launch this small puts too few cells at stake to be
        checked at all: it answers the uncut call's bits."""
        rng = np.random.default_rng(31)
        n, d, rho, lengths = 3 * BLOCK + 2, 24, 3, (6, 12, 24)
        queries = rng.normal(size=(n, d)).cumsum(axis=1)
        candidates = queries + rng.normal(size=(n, d)) * 0.1
        candidates[::3, -2:] += 30.0  # in every path's first cell
        candidates[1::3, 13:17] += 30.0  # points 8..11 from the end
        need = np.full(n, 3)
        uncut = dtw_batch(queries, candidates, rho, lengths=lengths, need=need)
        cutoff = np.full_like(uncut, float(np.median(uncut[2::3])) * 4)
        assert (uncut[::3] > cutoff[::3]).all() and (uncut[2::3] <= cutoff[2::3]).all()
        assert (uncut[1::3, 0] <= cutoff[1::3, 0]).all()
        assert (uncut[1::3, 1:] > cutoff[1::3, 1:]).all()
        whole = n * band_cells(d, rho)
        for kind in ("always", "shipped"):
            work = {}
            with prices(kind):
                got = dtw_batch(
                    queries, candidates, rho, lengths=lengths, need=need,
                    cutoff=cutoff, work=work,
                )
            assert_cutoff_contract(got, uncut, cutoff, need)
            if kind == "shipped":
                assert same_bits(got, uncut)
                assert work == {"abandoned": 0, "cells_computed": whole}
                continue
            assert np.isinf(got[::3]).all()
            assert same_bits(got[1::3, :2], uncut[1::3, :2])
            assert np.isinf(got[1::3, 2]).all()
            assert same_bits(got[2::3], uncut[2::3])
            early = int(distance_module._cells_through(6, rho)[6])
            assert work == {
                "abandoned": 12,
                "cells_computed": 6 * early + 6 * band_cells(12, rho)
                + 5 * band_cells(24, rho),
            }

    def test_only_blocks_with_enough_cells_at_stake_are_checked(self):
        """A check is made where the band cells its rows have left are
        worth ``_CHECK_NS``: never on a narrow block (rho = 2, d = 16,
        even at 1024 rows), at the early check and both inner read
        points of a block shaped like ``deep-search``'s survivor launch,
        and only before the one read when every row needs one length."""
        checks = distance_module._checks
        assert checks(16, 2, (8, 16), np.full(1024, 2)) == ()
        assert checks(96, 24, (32, 64, 96), np.full(300, 3)) == (32, 64, 128)
        assert checks(32, 24, (32, 64, 96), np.full(300, 1)) == (32,)
        assert checks(96, 24, (32, 64, 96), np.full(2, 3)) == ()

    def test_all_rows_stopped_ends_the_block(self):
        """Every row of a block dead at a check: the block stops there,
        whatever a copy would cost (every block checked, drops priced as
        shipped)."""
        rng = np.random.default_rng(32)
        query = rng.normal(size=20)
        candidates = 40.0 + rng.normal(size=(2 * BLOCK, 20))
        work = {}
        with mock.patch.object(distance_module, "_CHECK_NS", 0.0):
            got = dtw_batch(query, candidates, 2, cutoff=1.0, work=work)
        assert (got == np.inf).all()
        # Stopped at the early check, diagonal 20 of 40.
        early = int(distance_module._cells_through(20, 2)[20])
        assert work == {"abandoned": 2 * BLOCK, "cells_computed": 2 * BLOCK * early}

    def test_a_nan_cutoff_keeps_its_row(self):
        """``~(bound > cut)``: a NaN cutoff never stops its row, beside
        cutoffs that stop every other, and a row whose state is NaN is
        never stopped either."""
        rng = np.random.default_rng(33)
        n, d = BLOCK + 2, 16
        queries = rng.normal(size=(n, d))
        candidates = queries + 20.0
        candidates[3, -1] = np.nan
        uncut = dtw_batch(queries, candidates, 2, lengths=(8, 16))
        cutoff = np.zeros_like(uncut)
        cutoff[1, 1] = np.nan
        with prices("always"):
            got = dtw_batch(queries, candidates, 2, lengths=(8, 16), cutoff=cutoff)
        assert same_bits(got[[1, 3]], uncut[[1, 3]]) and np.isnan(got[3]).all()
        rest = np.setdiff1d(np.arange(n), [1, 3])
        assert (got[rest] == np.inf).all()

    def test_a_cutoff_equal_to_the_distance_keeps_every_read(self):
        rng = np.random.default_rng(34)
        n, d = 2 * BLOCK + 1, 18
        queries = rng.normal(size=(n, d)).cumsum(axis=1)
        candidates = queries + rng.normal(size=(n, d))
        need = rng.integers(1, 4, size=n)
        uncut = dtw_batch(queries, candidates, 4, lengths=(5, 11, 18), need=need)
        for cutoff in (uncut, np.nextafter(uncut, -np.inf)):
            with prices("always"):
                got = dtw_batch(
                    queries, candidates, 4, lengths=(5, 11, 18), need=need,
                    cutoff=cutoff,
                )
            assert_cutoff_contract(got, uncut, cutoff, need)
        assert same_bits(
            dtw_batch(
                queries, candidates, 4, lengths=(5, 11, 18), need=need,
                cutoff=uncut,
            ),
            uncut,
        )

    def test_a_cutoff_of_another_shape_is_refused(self):
        query, candidates = np.zeros(6), np.zeros((3, 6))
        with pytest.raises(ValueError, match="cutoff"):
            dtw_batch(query, candidates, 2, lengths=(3, 6), cutoff=np.zeros((3, 3)))
        with pytest.raises(ValueError, match="cutoff"):
            dtw_batch(query, candidates, 2, cutoff=np.zeros(2))
        np.testing.assert_array_equal(
            dtw_batch(query, candidates, 2, cutoff=np.zeros(3)),
            dtw_batch(query, candidates, 2, cutoff=0.0),
        )
        # Nested lists of the full shape are taken like an array.
        np.testing.assert_array_equal(
            dtw_batch(
                query, candidates, 2, lengths=(3, 6), need=[1, 2, 1],
                cutoff=[[0.0, 0.0]] * 3,
            ),
            dtw_batch(
                query, candidates, 2, lengths=(3, 6), need=[1, 2, 1],
                cutoff=np.zeros((3, 2)),
            ),
        )


# ------------------------------------------------------------------ oracle
# The previous kernel and its geometry, verbatim but for the cutoff path
# they no longer serve: state in three rotating (d + 2, n) diagonals
# indexed by row, flanks written to inf per diagonal.
_INF = np.inf


@functools.lru_cache(maxsize=64)
def _band_geometry(d: int, band: int) -> tuple[tuple, ...]:
    """Shape of a banded ``d x d`` warping matrix, walked by anti-diagonals:
    one ``(s, lo, hi)`` per diagonal ``i + j = s`` whose band cells are
    rows ``lo..hi``."""
    diagonals = []
    for s in range(2, 2 * d + 1):
        lo = max(1, s - d, (s - band + 1) // 2)
        hi = min(d, s - 1, (s + band) // 2)
        diagonals.append((s, lo, hi))
    return tuple(diagonals)


def _wavefront_block(
    query: np.ndarray,
    candidates: np.ndarray,
    band: int,
    lengths: tuple[int, ...],
    need: np.ndarray,
) -> np.ndarray:
    """One block of the batched DP: the ``(n, len(lengths))`` distances.

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
    """
    n = candidates.shape[0]
    d = lengths[need[0] - 1]  # the block's longest suffix
    diagonals = _band_geometry(d, band)
    # cand[k] = the candidates' k-th point of their d-suffix: the cells
    # (i, s - i) of diagonal s, i ascending, read the contiguous rows
    # d - s + i.
    cand = np.ascontiguousarray(candidates[:, candidates.shape[1] - d :].T)
    suffix = query[..., query.shape[-1] - d :]
    query_plane = np.ascontiguousarray(
        suffix[::-1, None] if suffix.ndim == 1 else suffix[:, ::-1].T
    )
    # Planes 0-2: the rotating diagonals.
    state = np.full((3, d + 2, n), _INF)
    state[0, 0] = 0.0  # gamma(0, 0)
    cost = np.empty((min(d, band + 1), n))
    out = np.full((n, len(lengths)), _INF)
    reads = {2 * e: at for at, e in enumerate(lengths[: need[0]])}
    m = n  # rows still in the state

    for s, lo, hi in diagonals:
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
        if s in reads:
            # Cell (e, e): the DTW of every remaining row's e-suffixes.
            at, e = reads[s], s // 2
            out[:m, at] = state[s % 3][e]
            keep = int(np.count_nonzero(need[:m] > at + 1))
            if 0 < keep < m:
                # The rows that need no longer suffix are the tail: one
                # copy drops them.
                state = state[:, :, :keep].copy()
                cand = cand[:, :keep].copy()
                if query_plane.shape[1] > 1:
                    query_plane = query_plane[:, :keep].copy()
                cost = np.empty((cost.shape[0], keep))
                m = keep
    return out


def previous_batch(query, candidates, rho=None, lengths=None, need=None):
    """``dtw_batch`` by the previous kernel, driven as the current one is:
    rows longest-need first, ``BLOCK`` rows at a time."""
    query = np.asarray(query, dtype=np.float64)
    candidates = np.atleast_2d(np.asarray(candidates, dtype=np.float64))
    n, d = candidates.shape
    plain = lengths is None
    lengths = (d,) if plain else tuple(lengths)
    need = np.full(n, len(lengths)) if need is None else np.asarray(need)
    band = d if rho is None else rho
    order = np.argsort(-need, kind="stable")
    out = np.empty((n, len(lengths)))
    for start in range(0, n, BLOCK):
        rows = order[start : start + BLOCK]
        out[rows] = _wavefront_block(
            query if query.ndim == 1 else query[rows],
            candidates[rows], band, lengths, need[rows],
        )
    return out[:, 0] if plain else out


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
    assert same_bits(exact, previous_batch(query, candidates, rho))
    got = dtw_batch(query, candidates, rho, lengths=lengths, need=need)
    expected = previous_batch(query, candidates, rho, lengths, need)
    assert same_bits(got, expected)
    finite = exact[np.isfinite(exact)]
    terms = admissible_terms(np.random.default_rng(0), exact, candidates.shape[1])
    for cutoff in (
        [np.inf, 0.0] if finite.size == 0
        else [np.inf, 0.0, float(np.median(finite)), float(finite.min()) / 2]
    ):
        for lb_terms in (None, terms):
            assert_pruned_contract(query, candidates, rho, cutoff, lb_terms)


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
        expected = previous_batch(query, candidates, rho, lengths, need)
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
        assert same_bits(exact, previous_batch(query, candidates, rho))
        finite = exact[np.isfinite(exact)]
        cutoff = data.draw(st.sampled_from(
            [np.inf, 0.0] if finite.size == 0
            else [np.inf, 0.0, float(np.median(finite)), float(finite.min()) / 2]
        ))
        lb_terms = None
        if data.draw(st.booleans()):
            lb_terms = admissible_terms(rng, exact, d)
        assert_pruned_contract(query, candidates, rho, cutoff, lb_terms)

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
        assert same_bits(got, previous_batch(queries, candidates, 2, (4, 9)))
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
