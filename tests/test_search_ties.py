"""Ties at the filter threshold: candidates whose true DTW equals the
k-th distance ``tau`` exactly, or sits one ulp either side of it.

The search promises answers bit-identical to the full scan
(:func:`~repro.index.reference.suffix_knn_reference`), ties resolved by
the smallest start.  A candidate tied at ``tau`` is in or out of the
answer on its start alone, so a lower bound that rounds a few ulps above
its true distance must not prune it: the filter keeps ``lb <= tau * (1 +
FILTER_REL_SLACK)`` (:mod:`repro.tolerances`).  An absolute slack of
1e-12 is below one ulp of ``tau`` once ``tau`` passes about 4e3; the
pinned example (walk x 1e8, ``tau`` ~ 3e17) fails without the relative
one.  At ``tau == 0`` (copies of the query itself) and at a subnormal
``tau`` (a walk x 1e-160: squared differences are subnormal, and ``tau
* (1 + FILTER_REL_SLACK)`` rounds back to ``tau``) the relative slack
adds nothing, and the answers still equal the full scan's — no bound
there rounds above ``tau``, so the filter has no absolute slack.

Each history here is a random walk with planted copies of its query's nearest neighbour in front — exact copies
(true DTW == ``tau``, the smallest starts, more of them than the seed
pool holds) and copies nudged until their DTW is ``tau``'s ulp neighbour
— searched on both backends, with the LB_Kim tier on and off, in fused
groups of one to three sensors, cold and then warm.  The same gate is
the survivor launch's cutoff: copies tied at ``tau`` that only that
launch reads must be answered while it stops other rows at its early
check.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from repro.backend import make_backend
from repro.dtw import dtw_batch
from repro.index import SuffixKnnEngine, SuffixSearchConfig
from repro.index.reference import suffix_knn_reference
from repro.index.suffix_search import search_many
from repro.tolerances import FILTER_REL_SLACK

from .test_dtw_kernel_identity import ALWAYS_DROP
from .test_search_cascade import assert_matches_reference, make_series

CFG = SuffixSearchConfig(item_lengths=(8, 16), k_max=4, omega=4, rho=0, margin=2)

#: Points of random walk behind the planted copies; the query is its
#: 16-point suffix, which planting never touches.
WALK = 120
#: Readings each group absorbs after the cold search, searched warm.
FUTURE = 2


def nudged(segment, query, rho, want):
    """``segment`` with one value moved a few ulps so its DTW to
    ``query`` is exactly ``want``, or ``None`` if no such move exists."""
    d = segment.size
    steps = np.concatenate([np.arange(1, 9), -np.arange(1, 9)])
    tries = np.repeat(segment[None, :], d * steps.size, axis=0)
    rows = np.arange(tries.shape[0])
    column = rows // steps.size
    tries[rows, column] += steps[rows % steps.size] * np.spacing(segment[column])
    hits = np.flatnonzero(dtw_batch(query, tries, rho) == want)
    return tries[hits[0]] if hits.size else None


def tied_history(seed, scale, d, rho, exact, below, above, layout=None):
    """A walk behind planted copies of its query's nearest neighbour at
    length ``d``, and whether its ulp neighbours were found: ``exact``
    copies at the NN's distance ``tau``, ``below`` / ``above`` copies at
    ``tau``'s lower / upper ulp neighbour (exact ones if not found),
    shuffled by ``layout`` (a seed; ``None`` keeps that order), each
    followed by a far spacer so no straddling candidate comes near."""
    walk = make_series(WALK, seed=seed) * scale
    query = walk[walk.size - d :]
    [start], [tau] = suffix_knn_reference(walk, query, 1, rho, CFG.margin)
    segment = walk[start : start + d]
    plants, found = [segment] * exact, True
    for count, want in ((below, np.nextafter(tau, -np.inf)),
                        (above, np.nextafter(tau, np.inf))):
        copy = nudged(segment, query, rho, want)
        found &= copy is not None
        plants += [segment if copy is None else copy] * count
    if layout is not None:
        shuffled = np.random.default_rng(layout).permutation(len(plants))
        plants = [plants[at] for at in shuffled]
    far = np.full(1, 50.0 * scale + np.abs(walk).max())
    laid = [piece for plant in plants for piece in (plant, far)]
    return np.concatenate(laid + [walk]), found


sensors = st.tuples(
    st.integers(0, 10_000),                          # seed
    st.sampled_from([1.0, 1e-6, 1e6, 1e8, 1e-160]),  # scale
    st.sampled_from(CFG.item_lengths),               # tied length d
    st.integers(0, 80),                              # exact copies
    st.integers(0, 3),                               # one ulp below
    st.integers(0, 3),                               # one ulp above
    st.integers(0, 10_000),                          # layout
)


def check_group(streams, cfg, backend):
    """``streams`` less their last ``FUTURE`` readings searched as one
    group, then stepped through those readings, every answer the full
    scan's."""
    engines = [
        SuffixKnnEngine(stream[: stream.size - FUTURE], cfg, backend=backend)
        for stream in streams
    ]
    for step in range(FUTURE + 1):
        if step:
            for engine, stream in zip(engines, streams):
                engine.advance(stream[stream.size - FUTURE + step - 1])
        answered = search_many(engines)
        for i, (engine, answers) in enumerate(zip(engines, answered)):
            assert_matches_reference(engine, answers, cfg.margin, f"#{i}@{step}")


@pytest.mark.parametrize("lb_kim", [True, False], ids=["kim", "no_kim"])
@pytest.mark.parametrize("backend_name", ["simulated", "native"])
@settings(max_examples=25, deadline=None)
@given(group=st.lists(sensors, min_size=1, max_size=3), rho=st.integers(0, 2))
@example(group=[(141, 1e8, 16, 0, 3, 1, 2)], rho=0)
@example(group=[(7, 1e-160, 8, 3, 1, 1, 0), (8, 1e-160, 16, 5, 0, 2, 1)], rho=1)
def test_ties_at_tau_match_the_full_scan(backend_name, lb_kim, group, rho):
    cfg = dataclasses.replace(CFG, rho=rho, lb_kim=lb_kim)
    streams = []
    for seed, scale, d, exact, below, above, layout in group:
        history, found = tied_history(
            seed, scale, d, rho, exact, below, above, layout
        )
        event(f"ulp neighbours found: {found}")
        future = make_series(FUTURE, seed=seed + 1) * scale
        streams.append(np.concatenate([history, future]))
    check_group(streams, cfg, make_backend(backend_name))


def test_the_planted_copies_sit_at_tau_and_its_ulp_neighbours():
    """The construction does what the battery relies on: the reference
    answer's k-th distance is the copies' ``tau``, exact copies tie there
    and beat the walk's own neighbour on start, and the nudged copies
    sit one ulp either side."""
    d, rho, spaced = 8, 0, 9
    history, found = tied_history(3, 1.0, d, rho, 6, 1, 1)
    assert found
    query = history[history.size - d :]
    starts, distances = suffix_knn_reference(
        history, query, CFG.k_max, rho, CFG.margin
    )
    tau = distances[-1]
    below, above = np.nextafter(tau, -np.inf), np.nextafter(tau, np.inf)
    assert distances[0] == below and (distances[1:] == tau).all()
    np.testing.assert_array_equal(starts, np.array([6, 0, 1, 2]) * spaced)
    copies = np.stack([history[i * spaced : i * spaced + d] for i in range(8)])
    planted = dtw_batch(query, copies, rho)
    np.testing.assert_array_equal(planted, [tau] * 6 + [below, above])


def zero_tau_history(seed, d, rho, extra):
    """A walk behind ``k_max`` exact copies of its length-``d`` query and
    one more candidate at DTW 0 (``extra``: an exact copy, or — with a
    band — the query warped, a plateau moved one step), so ``tau == 0``
    and the extra ties it, losing on start; the walk's query is given a
    plateau to warp."""
    walk = make_series(WALK, seed=seed)
    walk[-d + 2] = walk[-d + 1]  # q1 == q2: a plateau
    query = walk[walk.size - d :]
    if extra == "warped" and rho:
        # q0 q1 q1 q3 ... -> q0 q0 q1 q3 ...: DTW 0 under any band >= 1.
        copy = np.concatenate([query[:1], query[:2], query[3:]])
    else:
        copy = query
    far = np.full(1, 50.0 + np.abs(walk).max())
    plants = [query] * CFG.k_max + [copy]
    laid = [piece for plant in plants for piece in (plant, far)]
    return np.concatenate(laid + [walk])


@pytest.mark.parametrize("lb_kim", [True, False], ids=["kim", "no_kim"])
@pytest.mark.parametrize("backend_name", ["simulated", "native"])
@pytest.mark.parametrize("extra", ["exact", "warped"])
@settings(max_examples=10, deadline=None)
@given(
    seeds=st.lists(st.integers(0, 10_000), min_size=1, max_size=3),
    d=st.sampled_from(CFG.item_lengths), rho=st.integers(0, 2),
)
def test_ties_at_a_zero_tau_match_the_full_scan(
    backend_name, lb_kim, extra, seeds, d, rho
):
    """``tau == 0``: the relative slack adds nothing, so the ties are
    kept only if no bound of a DTW-0 candidate rounds above 0."""
    cfg = dataclasses.replace(CFG, rho=rho, lb_kim=lb_kim)
    streams = [
        np.concatenate([
            zero_tau_history(seed, d, rho, extra),
            make_series(FUTURE, seed=seed + 1),
        ])
        for seed in seeds
    ]
    check_group(streams, cfg, make_backend(backend_name))


@pytest.mark.parametrize("extra", ["exact", "warped"])
def test_the_zero_and_subnormal_taus_are_what_the_cases_say(extra):
    """The ``tau == 0`` history ties ``k_max + 1`` candidates at 0, the
    last of them the extra (warped with a band); the 1e-160 walk's
    ``tau`` is subnormal and absorbs the relative slack."""
    d, rho = 8, 1
    history = zero_tau_history(5, d, rho, extra)
    query = history[history.size - d :]
    starts, distances = suffix_knn_reference(
        history, query, CFG.k_max + 1, rho, CFG.margin
    )
    np.testing.assert_array_equal(starts, np.arange(CFG.k_max + 1) * (d + 1))
    assert (distances == 0.0).all()
    extra_copy = history[CFG.k_max * (d + 1) :][:d]
    assert np.array_equal(extra_copy, query) == (extra == "exact")

    history, _ = tied_history(7, 1e-160, d, rho, 3, 1, 1)
    query = history[history.size - d :]
    _, distances = suffix_knn_reference(history, query, CFG.k_max, rho, CFG.margin)
    tau = distances[-1]
    assert 0.0 < tau < np.finfo(np.float64).tiny
    assert tau * (1.0 + FILTER_REL_SLACK) == tau


@pytest.mark.parametrize("lb_kim", [True, False], ids=["kim", "no_kim"])
@pytest.mark.parametrize("backend_name", ["simulated", "native"])
@pytest.mark.parametrize("scale", [1.0, 1e8, 1e-160])
@pytest.mark.parametrize("seed, d, rho", [(0, 16, 0), (1, 8, 0), (3, 8, 2)])
def test_a_tie_at_tau_survives_a_launch_that_drops_rows_early(
    backend_name, lb_kim, scale, seed, d, rho
):
    """80 exact copies of the query's nearest neighbour (more than the 64
    seeds a cold search verifies): the seeds' k-th distance ``tau`` is
    the copies' DTW, so the copies left to the survivor launch sit
    exactly at ``tau`` — at its cutoff when ``tau`` is subnormal.  That
    launch stops rows at its early check (diagonal ``lengths[0]``), and
    the copies with the smallest starts must still be answered from it,
    as the full scan answers them.  The prices are patched so that launch
    drops every row it finds dead, however few (``ALWAYS_DROP``)."""
    from repro.dtw import distance

    from .test_search_lane import seeds_of_every_length

    cfg = dataclasses.replace(CFG, rho=rho, lb_kim=lb_kim)
    history, _ = tied_history(seed, scale, d, rho, 80, 0, 0)
    engine = SuffixKnnEngine(history, cfg, backend=make_backend(backend_name))
    stacked, _, _ = seeds_of_every_length([engine])
    seeds = set(stacked[d][0])
    block, stopped_early = distance._wavefront_block, []

    def spy(query, candidates, band, lengths, need, cutoff=None):
        out, done = block(query, candidates, band, lengths, need, cutoff)
        if cutoff is not None:  # the survivor launch
            stopped_early.append(int(np.count_nonzero(done == 0)))
        return out, done

    with mock.patch.multiple(distance, _wavefront_block=spy, **ALWAYS_DROP):
        answers = engine.search()
    assert_matches_reference(engine, answers, cfg.margin)
    assert sum(stopped_early) > 0
    answer = answers[d]
    tau = answer.distances[-1]
    assert (answer.distances == tau).all()  # four copies, tied at tau
    assert set(answer.starts.tolist()) - seeds  # some from the survivors
