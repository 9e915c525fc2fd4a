"""Differential identity battery for the stacked search lane.

``_search_item`` used to walk the lane one ``_Member`` at a time between
its fused launches; it is now stacked computations over the lane.  The
per-member body is kept here verbatim as the oracle (``_Member``,
``_verify_fused``, ``_apportion``, ``_search_item`` and the
``search_many`` loop that drove them): answers, counts, simulated
seconds and the seeds remembered for the next tick must equal it bit
for bit, whatever shares the lane.

The oracle chooses its threshold seeds itself (``_seed_starts`` below,
start by start): the previous kNN *and their successors*, and ``tau_i``
over the finite seed distances only — the rules the stacked union and
the padded row-wise partition of ``suffix_search`` must reproduce.
"""

import dataclasses
import hashlib
import importlib.util
import pathlib
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import make_backend
from repro.backend.base import ComputeBackend
from repro.dtw.lower_bounds import lb_kim_profile
from repro.faults import FaultInjectingBackend, FaultProfile
from repro.gpu.kernels import OPS_PER_LB_TERM, THREADS_PER_BLOCK
from repro.index import SuffixKnnEngine, SuffixSearchConfig
from repro.index.group_index import ItemLowerBounds, lower_bounds_many
from repro.index.reference import suffix_knn_reference
from repro.index.suffix_search import (
    _FILTER_SLACK,
    SuffixKnnAnswer,
    _lane_seeds,
    search_many,
)
from repro.index.window_index import step_many
from repro.obs import hooks as obs

from .test_forecast_lane import fold
from .test_search_cascade import (
    SMALL_CFG,
    adversarial_streams,
    assert_matches_reference,
    make_series,
)

BACKENDS = ["simulated", "native"]


# --------------------------------------------------------------- the oracle
def oracle_search_many(engines):
    """The ``search_many`` loop as it drove the per-member body."""
    cfg = engines[0].config
    bounds = list(lower_bounds_many([engine.group_index for engine in engines]))
    answers = [{} for _ in engines]
    for d in cfg.item_lengths:
        fused = _search_item(engines, d, [lbs[d] for lbs in bounds])
        for per_engine, answer in zip(answers, fused):
            per_engine[d] = answer
    return answers


@dataclass
class _Member:
    """One engine's slice of a fused item-length search."""

    series: np.ndarray
    query: np.ndarray
    #: One lower bound per valid start ``0 .. bound.size - 1``.
    bound: np.ndarray
    #: Starts verified to seed ``tau_i``.
    seeds: np.ndarray
    #: Starts that passed both bounds, seeds excluded (set by phase C).
    survivors: np.ndarray | None = None
    unfiltered: int = 0
    pruned_kim: int = 0
    pruned_window: int = 0


def _verify_fused(
    backend: ComputeBackend,
    rho: int,
    members: list[_Member],
    starts: list[np.ndarray],
) -> list[np.ndarray]:
    """One ``dtw_verification`` launch over every member's ``starts``,
    each row against its own member's query; distances per member."""
    counts = [picked.size for picked in starts]
    span = np.arange(members[0].query.size)
    rows = np.concatenate([
        member.series[picked[:, None] + span]
        for member, picked in zip(members, starts)
    ])
    queries = np.repeat(
        np.stack([member.query for member in members]), counts, axis=0
    )
    distances = backend.dtw_verification(queries, rows, rho)
    ends = np.cumsum(counts).tolist()
    return [distances[lo:hi] for lo, hi in zip([0] + ends, ends)]


def _seed_starts(engine: SuffixKnnEngine, d: int, bound: np.ndarray) -> np.ndarray:
    """One member's threshold seeds, start by start: the previous kNN
    and their successors (the query slid one point), ascending, padded
    from the smallest bounds when fewer than ``k`` are in range; cold,
    the smallest-bound pool."""
    cfg = engine.config
    k = min(cfg.k_max, bound.size)
    prev = engine._previous_knn.get(d)
    if cfg.reuse_threshold and prev is not None:
        wanted = {int(s) for s in prev} | {int(s) + 1 for s in prev}
        seeds = {s for s in wanted if s < bound.size}
        if len(seeds) < k:
            seeds |= set(np.argsort(bound, kind="stable")[:k].tolist())
        return np.array(sorted(seeds), dtype=prev.dtype)
    pool = min(max(4 * k, 64), bound.size)
    return np.argpartition(bound, pool - 1)[:pool]


def _apportion(total: float, weights: Sequence[float]) -> list[float]:
    """``total`` split in proportion to ``weights``: the parts tile it,
    and a group of one gets all of it, bit for bit."""
    whole = fold(weights)
    return [total * (weight / whole) if whole else 0.0 for weight in weights]


def _search_item(
    engines: Sequence[SuffixKnnEngine],
    d: int,
    item_bounds: list[ItemLowerBounds],
) -> list[SuffixKnnAnswer]:
    """One item length for the whole group (phases A-E of the module
    docstring); one answer per engine, in order."""
    cfg, backend = engines[0].config, engines[0].backend
    t_start = backend.elapsed_s

    with obs.span("dtw_refine", backend) as sp:
        # (A) Valid starts are 0..n-1: the h-step target of a candidate
        # must already be observed.
        members = []
        for engine, lbs in zip(engines, item_bounds):
            series = engine.series
            n = series.size - d - cfg.margin + 1
            if n <= 0:
                raise ValueError(
                    f"no candidates for item length {d}: series too short"
                )
            bound = lbs.bound(cfg.lb_mode)[:n]
            seeds = _seed_starts(engine, d, bound)
            members.append(_Member(series, engine.item_query(d), bound, seeds))

        # (B) One launch verifies every engine's seeds.
        seed_distances = _verify_fused(
            backend, cfg.rho, members, [member.seeds for member in members]
        )
        t_seeded = backend.elapsed_s

        # (C) tau_i is the k-th smallest finite seed DTW; both tiers
        # prune against it.  Seeds are already verified: they leave the
        # survivors through the same mask over starts.
        for member, seed_d in zip(members, seed_distances):
            n = member.bound.size
            k = min(cfg.k_max, n)
            trusted = seed_d[np.isfinite(seed_d)]
            if trusted.size < k:
                raise ValueError(f"fewer than k finite seed distances (d={d})")
            gate = float(np.partition(trusted, k - 1)[k - 1]) + _FILTER_SLACK
            # Tier 1: the precomputed window/group envelope bound.
            alive = member.bound <= gate
            after_kim = n
            if cfg.lb_kim:
                # Tier 0: LB_Kim — two series touches per candidate.
                kim = lb_kim_profile(
                    member.query, member.series, np.arange(n)
                ) <= gate
                after_kim = int(np.count_nonzero(kim))
                alive &= kim
            member.unfiltered = int(np.count_nonzero(alive))
            member.pruned_kim = n - after_kim
            member.pruned_window = after_kim - member.unfiltered
            alive[member.seeds] = False
            member.survivors = alive.nonzero()[0]
        if cfg.lb_kim:
            backend.launch(
                "search_lb_kim",
                n_blocks=sum(
                    -(-member.bound.size // THREADS_PER_BLOCK)
                    for member in members
                ),
                ops_per_thread=2 * OPS_PER_LB_TERM,
                threads_per_block=THREADS_PER_BLOCK,
            )
        t_filtered = backend.elapsed_s

        # (D) One launch verifies every engine's survivors.
        distances = _verify_fused(
            backend, cfg.rho, members, [member.survivors for member in members]
        )
        if sp is not None:
            sp.attrs["item_length"] = d
            sp.attrs["verified"] = sum(
                member.seeds.size + member.survivors.size for member in members
            )
    # Snapshot the ledger at the span boundary: everything after this
    # point is selection work, not verification work.
    t_verified = backend.elapsed_s

    # (E) A faulty kernel can return a NaN distance; drop non-finite
    # entries so one never reaches an answer.  Order each verified pool
    # by start so k-selection's stable tie-breaking resolves equal
    # distances by smallest start — exactly how the reference full scan
    # breaks ties.  Then one segmented k-selection, one block per engine.
    pools = []
    for member, seed_d, survivor_d in zip(members, seed_distances, distances):
        starts = np.concatenate([member.seeds, member.survivors])
        pool = np.concatenate([seed_d, survivor_d])
        finite = np.isfinite(pool)
        starts, pool = starts[finite], pool[finite]
        order = np.argsort(starts, kind="stable")
        pools.append((starts[order], pool[order]))
    with obs.span("k_select", backend):
        tops = backend.k_select(
            np.concatenate([pool for _, pool in pools]),
            cfg.k_max,
            np.cumsum([0] + [pool.size for _, pool in pools]),
        )
    t_selected = backend.elapsed_s

    # Each answer carries its row-share of each fused launch, normalised
    # so that a group's answers tile the ledger delta.
    launches = (
        (t_seeded - t_start, [m.seeds.size for m in members]),
        (t_filtered - t_seeded, [m.bound.size for m in members]),
        (t_verified - t_filtered, [m.survivors.size for m in members]),
    )
    verification_s = _apportion(t_verified - t_start, [
        fold(parts)
        for parts in zip(*(_apportion(spent, rows) for spent, rows in launches))
    ])
    selection_s = _apportion(
        t_selected - t_verified, [pool.size for _, pool in pools]
    )

    answers = []
    for i, (engine, member, (starts, pool), top) in enumerate(
        zip(engines, members, pools, tops)
    ):
        verified = int(member.seeds.size + member.survivors.size)
        engine._previous_knn[d] = starts[top]
        answers.append(SuffixKnnAnswer(
            item_length=d,
            starts=starts[top],
            distances=pool[top],
            candidates_total=member.bound.size,
            candidates_unfiltered=member.unfiltered,
            candidates_verified=verified,
            pruned_kim=member.pruned_kim,
            pruned_window=member.pruned_window,
            verification_sim_s=verification_s[i],
            selection_sim_s=selection_s[i],
        ))
    if obs.is_enabled():  # one emission per lane, the sensors' counts summed
        obs.observe_search(
            d,
            sum(answer.candidates_total for answer in answers),
            sum(answer.candidates_unfiltered for answer in answers),
            candidates_verified=sum(a.candidates_verified for a in answers),
            pruned_kim=sum(answer.pruned_kim for answer in answers),
            pruned_window=sum(answer.pruned_window for answer in answers),
            queries=len(answers),
        )
    return answers


# ---------------------------------------------------------------- the twins
COUNTS = (
    "candidates_total", "candidates_unfiltered", "candidates_verified",
    "pruned_kim", "pruned_window",
)


def assert_answers_equal(ours, theirs, label=""):
    assert len(ours) == len(theirs)
    for i, (mine, oracle) in enumerate(zip(ours, theirs)):
        assert list(mine) == list(oracle)
        for d, answer in mine.items():
            where, expected = f"{label} engine {i} d={d}", oracle[d]
            assert answer.item_length == expected.item_length == d
            assert answer.starts.dtype == expected.starts.dtype, where
            assert answer.starts.tolist() == expected.starts.tolist(), where
            assert [x.hex() for x in answer.distances.tolist()] == [
                x.hex() for x in expected.distances.tolist()
            ], where
            for field in COUNTS:
                assert type(getattr(answer, field)) is int, (where, field)
                assert getattr(answer, field) == getattr(expected, field), (
                    where, field,
                )
            for field in ("verification_sim_s", "selection_sim_s"):
                assert type(getattr(answer, field)) is float, (where, field)
                assert getattr(answer, field).hex() == getattr(
                    expected, field
                ).hex(), (where, field)


class TwinLanes:
    """The same engines twice, each set on one backend of its own: one
    searched by ``search_many``, the other by the oracle."""

    def __init__(self, histories, cfg, make):
        self.cfg = cfg
        self.backends = (make(), make())
        self.ours, self.theirs = (
            [SuffixKnnEngine(history, cfg, backend=backend) for history in histories]
            for backend in self.backends
        )

    def tick(self, points):
        for engines in (self.ours, self.theirs):
            step_many([engine.window_index for engine in engines], points)

    def search(self, pick=None, label=""):
        """Search the picked engines (default: all, in order) both ways
        and compare everything a search leaves behind."""
        pick = range(len(self.ours)) if pick is None else pick
        ours = [self.ours[i] for i in pick]
        theirs = [self.theirs[i] for i in pick]
        found = search_many(ours)
        assert_answers_equal(found, oracle_search_many(theirs), label)
        for i, (mine, oracle) in enumerate(zip(ours, theirs)):
            assert list(mine._previous_knn) == list(oracle._previous_knn)
            for d, seeds in mine._previous_knn.items():
                np.testing.assert_array_equal(
                    seeds, oracle._previous_knn[d], err_msg=f"{label} #{i} d={d}"
                )
        self.assert_ledgers_equal(label)
        return found

    def assert_ledgers_equal(self, label=""):
        mine, oracle = self.backends
        if isinstance(mine, FaultInjectingBackend):
            assert mine.tick == oracle.tick, label
            assert mine.injected == oracle.injected, label
            mine, oracle = mine.inner, oracle.inner
        if mine.name == "simulated":
            assert mine.cost.launches == oracle.cost.launches, label
            assert mine.cost.elapsed_s.hex() == oracle.cost.elapsed_s.hex(), label
            assert mine.cost.per_kernel_s == oracle.cost.per_kernel_s, label


def ragged_lane(ticks):
    """Nine sensors, nine series lengths: the adversarial shapes cut to
    different lengths (each fed a replay of its own past, so scale and
    ties persist) and one with fewer than ``k_max`` candidates at d=24
    (24 + margin + 3 points: 4 candidates, ``k_max`` is 6).  Returns
    ``(histories, feeds[tick][sensor])``."""
    shapes = list(adversarial_streams().values())
    histories = [stream[5 * i : 260] for i, stream in enumerate(shapes)]
    feeds = [stream[50 : 50 + ticks] for stream in shapes]
    short = make_series(29 + ticks, seed=41)
    histories.append(short[:29])
    feeds.append(short[29:])
    return histories, np.stack(feeds, axis=1)


VARIANTS = {
    "default": {},
    "no_reuse": {"reuse_threshold": False},
    "no_kim": {"lb_kim": False},
    "eq": {"lb_mode": "eq"},
    "ec": {"lb_mode": "ec"},
}


@pytest.mark.parametrize("backend_name", BACKENDS)
class TestStackedEqualsPerMember:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_forty_tick_ragged_lane(self, backend_name, variant):
        """Cold first search, then forty warm ticks; along the way a
        member whose remembered seeds went stale (out-of-range starts:
        the union path) and one that forgot them (a cold row sends the
        whole lane through the per-row seed choice)."""
        cfg = dataclasses.replace(SMALL_CFG, **VARIANTS[variant])
        histories, feeds = ragged_lane(40)
        assert len({history.size for history in histories}) == 9
        lanes = TwinLanes(histories, cfg, lambda: make_backend(backend_name))
        first = lanes.search(label="cold")
        assert first[-1][24].starts.size == 4 < cfg.k_max
        for tick, points in enumerate(feeds):
            lanes.tick(points)
            if tick == 7:
                for engines in (lanes.ours, lanes.theirs):
                    engines[2]._previous_knn[16] = np.array([10**6, 3, 10**6 + 1, 5])
            if tick == 11:
                for engines in (lanes.ours, lanes.theirs):
                    del engines[4]._previous_knn[8]
            lanes.search(label=f"tick {tick}")
        lane = lanes.ours[0].window_index._stack
        assert all(engine.window_index._stack is lane for engine in lanes.ours)

    def test_subsets_and_other_orders_read_the_lane_in_place(self, backend_name):
        histories, feeds = ragged_lane(8)
        lanes = TwinLanes(histories, SMALL_CFG, lambda: make_backend(backend_name))
        lanes.search()
        for tick, points in enumerate(feeds):
            lanes.tick(points)
            pick = (None, range(8, -1, -1), range(2, 5), (4, 1, 7), (8,))[tick % 5]
            lanes.search(pick, label=f"tick {tick}")
        lane = lanes.ours[0].window_index._stack
        assert lane.size == 9
        assert all(engine.window_index._stack is lane for engine in lanes.ours)

    def test_a_member_living_in_another_stack(self, backend_name):
        """Stepped alone, a member leaves the lane's stack; searched with
        its old neighbours it is packed beside them first."""
        histories, feeds = ragged_lane(6)
        lanes = TwinLanes(histories, SMALL_CFG, lambda: make_backend(backend_name))
        lanes.search()
        lanes.tick(feeds[0])
        for engines in (lanes.ours, lanes.theirs):
            engines[3].advance(0.25)
        assert (
            lanes.ours[3].window_index._stack
            is not lanes.ours[0].window_index._stack
        )
        lanes.search((0, 3, 5), label="apart")
        lanes.search(label="together again")

    def test_a_lane_of_one(self, backend_name):
        series, feed = make_series(400, seed=21), make_series(12, seed=22)
        lanes = TwinLanes([series], SMALL_CFG, lambda: make_backend(backend_name))
        lanes.search(label="cold")
        for tick, point in enumerate(feed):
            lanes.tick([point])
            lanes.search(label=f"tick {tick}")

    def test_nan_distances_are_dropped(self, backend_name):
        """Every ``dtw_verification`` output carries one NaN, at the
        position the seeded fault stream picks — the same position only
        if the launch has the same rows in the same order."""
        histories, feeds = ragged_lane(10)
        lanes = TwinLanes(
            histories, SMALL_CFG,
            lambda: FaultInjectingBackend(
                make_backend(backend_name),
                FaultProfile(seed=3, kernel_nan_rate=1.0),
            ),
        )
        for tick, points in enumerate(feeds):
            lanes.tick(points)
            for answers in lanes.search(label=f"tick {tick}"):
                for answer in answers.values():
                    assert np.isfinite(answer.distances).all()
        # Every seed launch at least (a survivor launch can be empty).
        assert lanes.backends[0].injected["kernel_nan"] >= 3 * 10

    def test_duplicated_distances_resolve_by_smallest_start(self, backend_name):
        """Exactly periodic integer series: every period repeats its
        distances bit for bit, and the answer keeps the earliest."""
        rng = np.random.default_rng(5)
        histories = [
            np.tile(rng.integers(-4, 5, size=period).astype(float), 40)[: 300 + i]
            for i, period in enumerate((5, 7, 12, 25))
        ]
        lanes = TwinLanes(histories, SMALL_CFG, lambda: make_backend(backend_name))
        for tick in range(4):
            found = lanes.search(label=f"tick {tick}")
            for engine, answers in zip(lanes.ours, found):
                assert_matches_reference(engine, answers, SMALL_CFG.margin)
                for answer in answers.values():
                    assert np.unique(answer.distances).size < answer.distances.size
            lanes.tick([history[tick] for history in histories])

    def test_adversarial_lane_matches_the_reference_scan(self, backend_name):
        """44 warm ticks (successor seeds on every one), 0 mismatches."""
        streams = list(adversarial_streams().values())
        backend = make_backend(backend_name)
        engines = [
            SuffixKnnEngine(stream[:220], SMALL_CFG, backend=backend)
            for stream in streams
        ]
        for tick in range(45):
            for i, (engine, answers) in enumerate(
                zip(engines, search_many(engines))
            ):
                assert_matches_reference(
                    engine, answers, SMALL_CFG.margin, f"tick {tick} #{i}"
                )
            if tick < 44:
                step_many(
                    [engine.window_index for engine in engines],
                    [stream[220 + tick] for stream in streams],
                )

    def test_a_lane_of_one_equals_the_engine_inside_a_lane_of_five(
        self, backend_name
    ):
        histories, feeds = ragged_lane(12)
        backend = make_backend(backend_name)
        five = [
            SuffixKnnEngine(history, SMALL_CFG, backend=backend)
            for history in histories[:5]
        ]
        alone = SuffixKnnEngine(
            histories[3], SMALL_CFG, backend=make_backend(backend_name)
        )
        for tick in range(13):
            together, (single,) = search_many(five)[3], search_many([alone])
            for d, answer in single.items():
                assert answer.starts.tolist() == together[d].starts.tolist()
                assert answer.distances.tobytes() == together[d].distances.tobytes()
                for field in COUNTS:
                    assert getattr(answer, field) == getattr(together[d], field)
            if tick < 12:
                step_many([e.window_index for e in five], feeds[tick][:5])
                alone.advance(feeds[tick][3])


def seeds_both_ways(engines, d):
    """Each engine's threshold seeds from the stacked ``_lane_seeds``
    and from the oracle's per-member rule, on the bounds a search of
    ``engines`` would be handed."""
    cfg = engines[0].config
    bounds = lower_bounds_many([engine.group_index for engine in engines])
    n = bounds.series_len - (d + cfg.margin - 1)
    bound = bounds.stacked[d].bound(cfg.lb_mode)[:, : int(n.max())]
    starts, counts = _lane_seeds(engines, d, bound, n)
    ends = np.cumsum(counts)
    stacked = [starts[lo:hi].tolist() for lo, hi in zip(ends - counts, ends)]
    alone = [
        _seed_starts(engine, d, row[:valid]).tolist()
        for engine, row, valid in zip(engines, bound, n.tolist())
    ]
    return stacked, alone, n.tolist()


@pytest.mark.parametrize("backend_name", BACKENDS)
class TestSuccessorSeeds:
    """What ``prev ∪ (prev + 1)`` does at its edges; every case is also
    searched both ways, so the answers and counts agree too."""

    def lanes(self, backend_name, lengths=(150, 150, 150)):
        lanes = TwinLanes(
            [make_series(n, seed=n + i) for i, n in enumerate(lengths)],
            SMALL_CFG, lambda: make_backend(backend_name),
        )
        lanes.search(label="cold")
        lanes.tick([0.1 * i for i in range(len(lengths))])
        return lanes

    def remember(self, lanes, d, per_engine):
        for engines in (lanes.ours, lanes.theirs):
            for engine, prev in zip(engines, per_engine):
                engine._previous_knn[d] = np.array(prev)

    def seeds(self, lanes, d, pick=slice(None)):
        """Asked of both twins: the bounds cost a launch, and the twins'
        ledgers must stay level for the searches that follow."""
        found = seeds_both_ways(lanes.ours[pick], d)
        assert seeds_both_ways(lanes.theirs[pick], d) == found
        return found

    def test_the_newest_valid_start_and_the_one_beyond_it(self, backend_name):
        """``prev + 1 == n - 1`` is the newest valid start and a seed;
        ``prev + 1 == n`` has no target yet and is dropped."""
        lanes = self.lanes(backend_name)
        n = lanes.ours[0].series.size - (16 + SMALL_CFG.margin - 1)
        prev = [n - 2, 5, 40, 9, 90, 60]
        self.remember(lanes, 16, [prev, [n - 1] + prev[1:], prev])
        stacked, alone, valid = self.seeds(lanes, 16)
        assert valid == [n, n, n] and stacked == alone
        assert stacked[0] == [5, 6, 9, 10, 40, 41, 60, 61, 90, 91, n - 2, n - 1]
        assert stacked[1] == [5, 6, 9, 10, 40, 41, 60, 61, 90, 91, n - 1]
        lanes.search(label="edges")

    def test_a_run_of_adjacent_starts_is_a_union_of_k_plus_one(self, backend_name):
        lanes = self.lanes(backend_name)
        self.remember(lanes, 8, [[12, 10, 11, 15, 13, 14]] * 3)
        stacked, alone, _ = self.seeds(lanes, 8)
        assert stacked == alone == [list(range(10, 17))] * 3
        found = lanes.search(label="run")
        assert all(answers[8].starts.size == 6 for answers in found)

    def test_a_row_with_fewer_than_k_valid_starts(self, backend_name):
        """Four candidates at d=24 (``k_max`` is 6): its union fills the
        row, alone (stacked) and beside longer rows (their answers are
        longer, so the lane takes the per-row choice)."""
        lanes = self.lanes(backend_name, lengths=(28, 150))
        for pick in ((0,), None):
            stacked, alone, valid = self.seeds(
                lanes, 24, slice(1) if pick else slice(None)
            )
            assert valid[0] == 4 and stacked == alone
            assert stacked[0] == [0, 1, 2, 3]
            found = lanes.search(pick, label=f"short {pick}")
            assert found[0][24].starts.size == 4

    def test_out_of_range_leftovers_are_padded_from_the_bounds(self, backend_name):
        """Fewer than ``k`` seeds left in range: the whole lane goes
        through the per-row choice, which pads from the smallest bounds."""
        lanes = self.lanes(backend_name)
        self.remember(lanes, 16, [[10**6, 3, 10**6 + 1, 5, 10**6 + 2, 10**6 + 3]] * 3)
        stacked, alone, _ = self.seeds(lanes, 16)
        assert stacked == alone
        assert {3, 4, 5, 6} <= set(stacked[0]) and 6 <= len(stacked[0]) <= 10
        assert max(stacked[0]) < 10**6
        lanes.search(label="padded")


def poisoned_backend(backend_name):
    """A backend whose next ``dtw_verification`` launch returns NaN at
    the positions in ``.poison`` (then forgets them)."""

    class Poisoned(type(make_backend(backend_name))):
        poison = ()

        def _run_dtw_verification(self, query, candidates, rho):
            out = np.array(super()._run_dtw_verification(query, candidates, rho))
            out[list(self.poison)] = np.nan
            self.poison = ()
            return out

    return Poisoned()


@pytest.mark.parametrize("backend_name", BACKENDS)
class TestNanAmongTheSeeds:
    """A NaN seed distance may cost its own candidate, never the
    threshold: ``tau_i`` is taken over the finite seeds."""

    CFG = dataclasses.replace(SMALL_CFG, item_lengths=(16,))

    def warm_engine(self, backend_name):
        engine = SuffixKnnEngine(
            make_series(300, seed=77), self.CFG,
            backend=poisoned_backend(backend_name),
        )
        engine.search()
        engine.advance(0.3)
        return engine

    def test_one_nan_among_two_k_seeds_leaves_the_answer_exact(self, backend_name):
        engine = self.warm_engine(backend_name)
        engine._previous_knn[16] = np.array([20, 50, 80, 110, 140, 170])
        (seeds,), _, _ = seeds_both_ways([engine], 16)
        assert len(seeds) == 12
        truth, _ = suffix_knn_reference(
            engine.series, engine.item_query(16), 6, self.CFG.rho,
            margin=self.CFG.margin,
        )
        # Poison a seed the true answer does not hold: the finite filter
        # drops that candidate, and nothing else may change.
        victim = next(i for i, s in enumerate(seeds) if s not in set(truth.tolist()))
        engine.backend.poison = (victim,)
        answers = engine.search()
        assert engine.backend.poison == ()
        assert answers[16].candidates_unfiltered > 0
        assert_matches_reference(engine, answers, self.CFG.margin)

    def test_fewer_than_k_finite_seeds_is_refused(self, backend_name):
        """The parent took the k-th of k seeds with a NaN among them:
        ``tau`` NaN, every survivor killed, a ``k - 1``-long answer
        installed.  Now the search raises and the caller retries."""
        engine = self.warm_engine(backend_name)
        engine._previous_knn[16] = np.array([20, 21, 22, 23, 24, 25])  # 7 seeds
        before = dict(engine._previous_knn)
        engine.backend.poison = (0, 3)
        with pytest.raises(ValueError, match="finite seed distances"):
            engine.search()
        assert engine._previous_knn == before
        retried = engine.search()  # the poison is spent
        assert_matches_reference(engine, retried, self.CFG.margin)


def _deep_search_streams(seed, history, ticks):
    """roundbench's ``deep-search`` signal (its generator, loaded from
    its file: ``benchmarks`` is not a package), z-normalised on the
    history as the service does."""
    path = pathlib.Path(__file__).resolve().parents[1] / (
        "benchmarks/roundbench/workloads.py"
    )
    spec = importlib.util.spec_from_file_location("_roundbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up
    spec.loader.exec_module(workloads)
    streams = workloads.generate(workloads.WORKLOADS["deep-search"], seed)
    streams = streams[:, : history + ticks]
    head = streams[:, :history]
    return (streams - head.mean(axis=1, keepdims=True)) / head.std(
        axis=1, keepdims=True
    )


class TestVerifiedRowsCounter:
    def test_a_third_fewer_rows_reach_the_kernel_for_the_same_answers(self):
        """The deterministic count behind the successor seeds: two
        ``deep-search``-shaped engines (rho=24, omega=16, paper item
        lengths and k), the first 4 000 points of the seed-2015 streams,
        a cold search and 59 ticks.  The literals are the parent
        commit's, which verified the previous kNN unshifted."""
        parent_verified = 63_926
        parent_answers = (
            "22747d15cd3fb79a3203c231d428374f0c976213a77a83ac4d0c2eb143257be1"
        )
        streams = _deep_search_streams(2015, history=4000, ticks=59)
        cfg = SuffixSearchConfig(rho=24, omega=16)
        backend = make_backend("native")
        engines = [
            SuffixKnnEngine(stream[:4000], cfg, backend=backend)
            for stream in streams
        ]
        verified, digest = 0, hashlib.sha256()
        for tick in range(60):
            if tick:
                step_many(
                    [engine.window_index for engine in engines],
                    streams[:, 3999 + tick],
                )
            for answers in search_many(engines):
                for answer in answers.values():
                    verified += answer.candidates_verified
                    digest.update(answer.starts.astype("<i8").tobytes())
                    digest.update(answer.distances.astype("<f8").tobytes())
        assert digest.hexdigest() == parent_answers
        assert verified <= 0.75 * parent_verified, verified


class _AllNanBackend(type(make_backend("native"))):
    """Every verified distance comes back NaN."""

    def _run_dtw_verification(self, query, candidates, rho):
        return np.full(candidates.shape[0], np.nan)


class TestRefusals:
    @pytest.mark.parametrize("n_engines", [1, 3])
    def test_an_all_nan_pool_still_raises(self, n_engines):
        """Nothing finite to take a threshold from: the group search
        fails, to be retried by the caller — as the per-member body
        did (there it was ``k_select`` refusing the empty pool)."""
        for search in (search_many, oracle_search_many):
            backend = _AllNanBackend()
            engines = [
                SuffixKnnEngine(make_series(200 + 9 * i, seed=i), SMALL_CFG,
                                backend=backend)
                for i in range(n_engines)
            ]
            with pytest.raises(ValueError, match="finite seed distances"):
                search(engines)

    def test_series_too_short_for_an_item_length(self):
        cfg = dataclasses.replace(SMALL_CFG, margin=30)
        backend = make_backend("native")
        engines = [
            SuffixKnnEngine(make_series(n, seed=n), cfg, backend=backend)
            for n in (200, 40)
        ]
        with pytest.raises(ValueError, match="series too short"):
            search_many(engines)

    def test_the_config_is_compared_by_identity_first(self, monkeypatch):
        """A lane's engines share one config object, so the group check
        costs no dataclass ``__eq__``; equal-but-distinct configs still
        pass and a mixed group is still refused."""
        backend = make_backend("native")
        series = make_series(150, seed=7)
        engines = [
            SuffixKnnEngine(series[i:], SMALL_CFG, backend=backend)
            for i in range(3)
        ]
        compared = []
        monkeypatch.setattr(
            SuffixSearchConfig, "__eq__",
            lambda self, other: compared.append(1) or vars(self) == vars(other),
        )
        search_many(engines)
        assert compared == []
        twin = SuffixKnnEngine(
            series, dataclasses.replace(SMALL_CFG), backend=backend
        )
        assert len(search_many(engines + [twin])) == 4
        assert compared
        stranger = SuffixKnnEngine(
            series, dataclasses.replace(SMALL_CFG, k_max=5), backend=backend
        )
        with pytest.raises(ValueError, match="share one backend"):
            search_many(engines + [stranger])


class TestStackedBounds:
    def test_rows_of_the_lane_bounds_are_the_per_sensor_views(self):
        backend = make_backend("native")
        engines = [
            SuffixKnnEngine(make_series(n, seed=n), SMALL_CFG, backend=backend)
            for n in (90, 140, 111)
        ]
        bounds = lower_bounds_many([engine.group_index for engine in engines])
        assert len(bounds) == 3 and bounds.series_len.tolist() == [90, 140, 111]
        for i, engine in enumerate(engines):
            alone = engine.group_index.compute()
            for d in SMALL_CFG.item_lengths:
                assert bounds.stacked[d].lbeq.shape == (3, 140 - d + 1)
                row = bounds[i][d]
                assert row.lbeq.shape == (engine.series.size - d + 1,)
                for field in ("lbeq", "lbec", "covered"):
                    np.testing.assert_array_equal(
                        getattr(row, field), getattr(alone[d], field)
                    )


# ------------------------------------------------- the kernels' host halves
finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestStackedLbKim:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 5), st.integers(1, 9), st.integers(0, 12),
        st.randoms(use_true_random=False),
    )
    def test_row_i_is_the_one_dimensional_call_on_row_i(self, size, d, extra, rnd):
        rng = np.random.default_rng(rnd.randrange(2**32))
        capacity = d + extra
        series = rng.normal(size=(size, capacity)) * 10.0 ** rng.integers(-3, 6)
        queries = rng.normal(size=(size, d))
        n = capacity - d + 1
        stacked = lb_kim_profile(queries, series, n)
        assert stacked.shape == (size, n)
        for i in range(size):
            starts = np.arange(n)
            # The per-element arithmetic, spelled out.
            expected = (queries[i, 0] - series[i, starts]) ** 2
            if d > 1:
                expected = expected + (
                    queries[i, -1] - series[i, starts + d - 1]
                ) ** 2
            alone = lb_kim_profile(queries[i], series[i], starts)
            assert [x.hex() for x in alone] == [x.hex() for x in expected]
            assert [x.hex() for x in stacked[i]] == [x.hex() for x in expected]
            assert [x.hex() for x in lb_kim_profile(queries[i], series[i], n)] == [
                x.hex() for x in expected
            ]

    def test_empty_query_is_refused(self):
        with pytest.raises(ValueError):
            lb_kim_profile(np.empty((2, 0)), np.zeros((2, 5)), 3)


class TestNativeSegmentedSelect:
    @settings(max_examples=80, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_one_sort_equals_a_stable_argsort_per_segment(self, rnd):
        """Ties, infinities, signed zeros, segments shorter than k, on
        both backends (one selection serves them); a NaN is refused
        (``tests/test_backend_parity.py``)."""
        rng = np.random.default_rng(rnd.randrange(2**32))
        sizes = rng.integers(1, 40, size=rng.integers(1, 30))
        values = rng.integers(0, 6, size=sizes.sum()).astype(float)
        for value in (-np.inf, -0.0, np.inf):
            values[rng.random(values.size) < 0.08] = value
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        k = int(rng.integers(1, 45))
        expected = [
            np.argsort(values[lo:hi], kind="stable")[:k]
            for lo, hi in zip(offsets[:-1], offsets[1:])
        ]
        for name in ("native", "simulated"):
            found = make_backend(name).k_select(values, k, offsets)
            assert len(found) == len(expected)
            for mine, oracle in zip(found, expected):
                assert mine.tolist() == oracle.tolist()
