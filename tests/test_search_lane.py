"""Differential identity battery for the stacked search lane.

``_search_lane`` serves every item length of a lane in one pass of
stacked computations: one end-anchored verification launch over every
length's seeds as distinct ``(engine, end)`` rows, per-length
thresholds and tiers, one launch over the survivors, one segmented
selection.  The oracle here writes the same pass per member and per
length with Python sets and dicts (``oracle_search_many``,
``_verify_rows``): answers, counts, simulated seconds, launches and the
seeds remembered for the next tick must equal it bit for bit, whatever
shares the lane.  The oracle verifies without cutoffs and pools only the
reads within each row's gate ``tau_i * (1 + FILTER_REL_SLACK)``: the
reads the survivor launch's cutoff must leave exact.

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

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import make_backend
from repro.core import SMiLerConfig
from repro.core.smiler import SMiLer, _LaneKnn, absorb_many
from repro.dtw import dtw_batch
from repro.dtw.lower_bounds import lb_kim_profile
from repro.faults import FaultInjectingBackend, FaultProfile
from repro.gpu.kernels import OPS_PER_LB_TERM, THREADS_PER_BLOCK
from repro.index import SuffixKnnEngine, SuffixSearchConfig
from repro.index.group_index import lower_bounds_many
from repro.index.reference import suffix_knn_reference
from repro.index.suffix_search import (
    SuffixKnnAnswer,
    _lane_seeds,
    lane_behind,
    search_many,
)
from repro.index.window_index import lane_of, step_many
from repro.obs import hooks as obs
from repro.tolerances import FILTER_REL_SLACK

from .test_search_cascade import (
    SMALL_CFG,
    adversarial_streams,
    assert_matches_reference,
    make_series,
)

BACKENDS = ["simulated", "native"]


# --------------------------------------------------------------- the oracle
def oracle_search_many(engines):
    """The lane pass written per member and per item length, with Python
    sets and dicts: the answers, counts, simulated seconds and launches
    ``search_many`` must produce, bit for bit (phases as in the module
    docstring of ``repro.index.suffix_search``)."""
    cfg, backend = engines[0].config, engines[0].backend
    lengths = sorted(cfg.item_lengths)
    bounds = list(lower_bounds_many([engine.group_index for engine in engines]))
    members = []
    for engine, lbs in zip(engines, bounds):
        items = []
        for d in lengths:
            n = engine.series.size - d - cfg.margin + 1
            if n <= 0:
                raise ValueError(
                    f"no candidates for item length {d}: series too short"
                )
            items.append(_Item(d, n, lbs[d].bound(cfg.lb_mode)[:n]))
        members.append(items)

    with obs.span("dtw_refine", backend):
        # (B) Every length's seeds, one row per (member, end), read at
        # every length up to the longest that seeded it.
        for engine, items in zip(engines, members):
            for item in items:
                item.seeds = {int(s) for s in _seed_starts(engine, item.d, item.bound)}
        first = _verify_rows(backend, cfg, engines, lengths, [
            {s + item.d: at + 1 for at, item in enumerate(items) for s in item.seeds}
            for items in members
        ])

        # (C) tau_i over the finite distances read at this length, the
        # two tiers, survivors not yet read at this length.
        survivors = [{} for _ in engines]
        for at, d in enumerate(lengths):
            for i, items in enumerate(members):
                item = items[at]
                item.first = {
                    end - d: read[at]
                    for end, read in first[i].items() if len(read) > at
                }
                trusted = sorted(
                    distance for distance in item.first.values()
                    if np.isfinite(distance)
                )
                k = min(cfg.k_max, item.n)
                if len(trusted) < k:
                    raise ValueError(
                        f"fewer than k finite seed distances (d={d})"
                    )
                gate = item.gate = trusted[k - 1] * (1.0 + FILTER_REL_SLACK)
                # Tier 1: the precomputed window/group envelope bound.
                alive = item.bound <= gate
                after_kim = item.n
                if cfg.lb_kim:
                    # Tier 0: LB_Kim — two series touches per candidate.
                    kim = lb_kim_profile(
                        engines[i].item_query(d), engines[i].series,
                        np.arange(item.n),
                    ) <= gate
                    after_kim = int(np.count_nonzero(kim))
                    alive &= kim
                passed = {int(s) for s in np.flatnonzero(alive)}
                item.unfiltered = len(passed)
                item.pruned_kim = item.n - after_kim
                item.pruned_window = after_kim - item.unfiltered
                item.wanted = passed | item.seeds
                for start in passed - set(item.first):
                    survivors[i][start + d] = at + 1
            if cfg.lb_kim:
                backend.launch(
                    "search_lb_kim",
                    n_blocks=sum(
                        -(-items[at].n // THREADS_PER_BLOCK) for items in members
                    ),
                    ops_per_thread=2 * OPS_PER_LB_TERM,
                    threads_per_block=THREADS_PER_BLOCK,
                )

        # (D) Every length's survivors, one row per (member, end).
        second = _verify_rows(backend, cfg, engines, lengths, survivors)

    # (E) Per (length, member): every finite distance read at the
    # length within the gate, by start; one segmented k-selection.
    pools = []
    for at, d in enumerate(lengths):
        for i, items in enumerate(members):
            item = items[at]
            again = {
                end - d: read[at]
                for end, read in second[i].items()
                if len(read) > at and end - d not in item.first
            }
            pool = {
                start: distance
                for start, distance in {**item.first, **again}.items()
                if np.isfinite(distance) and distance <= item.gate
            }
            starts = np.array(sorted(pool), dtype=np.intp)
            pools.append((starts, np.array([pool[s] for s in starts.tolist()])))
    with obs.span("k_select", backend):
        offsets = np.cumsum([0] + [pool.size for _, pool in pools])
        flat = backend.k_select(
            np.concatenate([pool for _, pool in pools]), cfg.k_max, offsets
        )
    # The selection answers one flat array of indices into the pools;
    # this body read one segment-relative array per pool.
    ends = np.cumsum([min(cfg.k_max, pool.size) for _, pool in pools])
    tops = [
        top - lo for top, lo in zip(np.split(flat, ends[:-1]), offsets.tolist())
    ]

    answers = [{} for _ in engines]
    by_length = {}
    for at, d in enumerate(lengths):
        by_length[d] = []
        for i, (engine, items) in enumerate(zip(engines, members)):
            item, segment = items[at], at * len(engines) + i
            starts, pool = pools[segment]
            top = tops[segment]
            engine._previous_knn[d] = starts[top]
            by_length[d].append(SuffixKnnAnswer(
                item_length=d,
                starts=starts[top],
                distances=pool[top],
                candidates_total=item.n,
                candidates_unfiltered=item.unfiltered,
                candidates_verified=len(item.wanted),
                pruned_kim=item.pruned_kim,
                pruned_window=item.pruned_window,
            ))
        if obs.is_enabled():
            found = by_length[d]
            obs.observe_search(
                d,
                sum(answer.candidates_total for answer in found),
                sum(answer.candidates_unfiltered for answer in found),
                candidates_verified=sum(a.candidates_verified for a in found),
                pruned_kim=sum(answer.pruned_kim for answer in found),
                pruned_window=sum(answer.pruned_window for answer in found),
                queries=len(found),
            )
    for d in cfg.item_lengths:
        for per_engine, answer in zip(answers, by_length[d]):
            per_engine[d] = answer
    return answers


@dataclass
class _Item:
    """One member's search at one item length."""

    d: int
    #: Valid starts are ``0 .. n - 1``; one lower bound each.
    n: int
    bound: np.ndarray
    seeds: set = None
    #: ``tau_i * (1 + FILTER_REL_SLACK)``: what the tiers keep and the
    #: pool holds.
    gate: float = None
    #: ``{start: distance}`` the seed launch read at this length.
    first: dict = None
    #: The seeds and every survivor of the tiers: what it verified.
    wanted: set = None
    unfiltered: int = 0
    pruned_kim: int = 0
    pruned_window: int = 0


def _verify_rows(backend, cfg, engines, lengths, wanted):
    """One ``dtw_verification`` launch over every member's wanted ends
    (``{end: how many lengths, shortest first}``), one row per (member,
    end) against the member's query, rows ordered longest first, then
    member, then end.  Returns per member ``{end: distances read}``."""
    rows = sorted(
        (-count, i, end) for i, ends in enumerate(wanted) for end, count in ends.items()
    )
    depth = -rows[0][0] if rows else len(lengths)
    longest = lengths[depth - 1]
    candidates, queries = [], []
    for _, i, end in rows:
        series = engines[i].series
        window = series[max(0, end - longest) : end]
        # An end nearer the start than the longest suffix: padded, and
        # the padding is never read.
        candidates.append(np.concatenate(
            [np.full(longest - window.size, series[0]), window]
        ))
        queries.append(engines[i].item_query(longest))
    out = backend.dtw_verification(
        np.array(queries).reshape(-1, longest),
        np.array(candidates).reshape(-1, longest),
        cfg.rho,
        lengths[:depth],
        np.array([-negative for negative, _, _ in rows], dtype=np.intp),
    )
    found = [{} for _ in engines]
    for (negative, i, end), row in zip(rows, out):
        found[i][end] = row[:-negative].tolist()
    return found


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
        # Every seed launch at least (a survivor launch can be empty),
        # one a tick for all item lengths.
        assert lanes.backends[0].injected["kernel_nan"] >= 10

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


@pytest.mark.parametrize("backend_name", BACKENDS)
class TestMixedOrigin:
    """Answers of mixed origin: a ragged lane of six searched whole, then
    a stale subset of two re-searched alone.  What reads the answers in
    place — the forecast's stacked gather, the next search's seeds — may
    do so only when they are one search's rows in its order, and must
    gather otherwise."""

    CONFIG = SMiLerConfig(
        elv=(8, 16, 24), ekv=(2, 6), rho=2, omega=4, horizons=(1, 3),
        predictor="ar",
    )
    STALE = (1, 4)

    def lane(self, backend_name, picked=(0, 2, 4, 6, 7, 8)):
        """Six sensors of six series lengths in one stack (by default the
        last with fewer than ``k_max`` candidates at d=24), searched as
        one lane."""
        histories, feeds = ragged_lane(1)
        backend = make_backend(backend_name)
        sensors = [
            SMiLer(histories[i], self.CONFIG, backend=backend, sensor_id=f"s{i}")
            for i in picked
        ]
        absorb_many(sensors, [feeds[0][i] for i in picked])
        for sensor, answers in zip(sensors, search_many([s.engine for s in sensors])):
            sensor.install(answers)
        return sensors

    def re_search_stale(self, sensors):
        """Two sensors take one more reading, then search alone."""
        stale = [sensors[i] for i in self.STALE]
        absorb_many(stale, [0.3, -0.2])
        for sensor, answers in zip(stale, search_many([s.engine for s in stale])):
            sensor.install(answers)

    def assert_restacked(self, sensors):
        """``_LaneKnn.segments`` against the per-sensor restack it
        replaced, byte for byte."""
        knn = _LaneKnn(sensors)
        stack, rows = lane_of([sensor.engine.window_index for sensor in sensors])
        for d in self.CONFIG.elv:
            found = [sensor._answers[d].starts for sensor in sensors]
            sizes = np.array([starts.size for starts in found])
            want = np.zeros((sizes.size, int(sizes.max())), dtype=np.int64)
            want[np.arange(want.shape[1]) < sizes[:, None]] = np.concatenate(found)
            starts, got, queries, neighbours = knn.segments(d)
            assert (starts.dtype, starts.shape) == (want.dtype, want.shape), d
            assert starts.tobytes() == want.tobytes(), d
            assert got == sizes.tolist(), d
            assert queries.tobytes() == (
                stack.master[rows, stack.master.shape[1] - d :].tobytes()
            ), d
            assert neighbours.tobytes() == stack.series[
                rows[:, None, None], want[:, :, None] + np.arange(d)
            ].tobytes(), d

    def test_the_stacked_gather_reads_in_place_or_gathers(self, backend_name):
        sensors = self.lane(backend_name)
        assert lane_behind([s._answers for s in sensors]) is not None
        assert len({s._answers[24].starts.size for s in sensors}) == 2
        self.assert_restacked(sensors)
        self.re_search_stale(sensors)
        assert lane_behind([s._answers for s in sensors]) is None
        self.assert_restacked(sensors)

    def test_a_search_of_one_is_its_row_of_the_lane(self, backend_name):
        """With every engine remembering answers of one of two searches
        (all ``k_max`` long, so the stacked seed path is open), the seeds
        are each engine's own, and a fused search of the lane and each
        engine's ``search()`` (on a twin) agree row for row: answers and
        counts."""
        ours, twins = (self.lane(backend_name, (0, 1, 2, 4, 6, 7)) for _ in "ab")
        for sensors in (ours, twins):
            self.re_search_stale(sensors)
        engines = [sensor.engine for sensor in ours]
        for d in self.CONFIG.elv:  # the seeds each engine's own answers give
            stacked, alone, _ = seeds_both_ways(engines, d)
            assert stacked == alone, d
        fused = search_many(engines)
        assert_answers_equal(
            fused, [twin.engine.search() for twin in twins], "mixed origin"
        )


def seeds_both_ways(engines, d):
    """Each engine's threshold seeds at length ``d`` from the stacked
    ``_lane_seeds`` and from the oracle's per-member rule, on the bounds
    a search of ``engines`` would be handed."""
    stacked, alone, valid = seeds_of_every_length(engines)
    return stacked[d], alone[d], valid[d]


def seeds_of_every_length(engines):
    """:func:`seeds_both_ways` at every item length, ``_lane_seeds``
    asked first (the oracle reads ``_previous_knn``, after which no
    answers are read in place)."""
    cfg = engines[0].config
    bounds = lower_bounds_many(
        [engine.group_index for engine in engines], (cfg.lb_mode,)
    )
    lengths = sorted(cfg.item_lengths)
    n = bounds.series_len - (cfg.margin - 1) - np.array(lengths)[:, None]
    bound = [
        bounds.stacked[cfg.lb_mode][e][:, : int(valid.max())]
        for e, valid in zip(lengths, n)
    ]
    counts, starts, _ = _lane_seeds(engines, bound, n)
    ends = np.cumsum(counts)
    stacked, alone, valid = {}, {}, {}
    for at, d in enumerate(lengths):
        rows = slice(at * len(engines), (at + 1) * len(engines))
        stacked[d] = [
            starts[lo:hi].tolist()
            for lo, hi in zip((ends - counts)[rows], ends[rows])
        ]
        valid[d] = n[at].tolist()
    for at, d in enumerate(lengths):
        alone[d] = [
            _seed_starts(engine, d, row[:count]).tolist()
            for engine, row, count in zip(engines, bound[at], valid[d])
        ]
    return stacked, alone, valid


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


@pytest.mark.parametrize("backend_name", BACKENDS)
class TestSeedsByOrigin:
    """The members whose last answers fill rows of the search most of
    them came from take the stacked union; a new member, a restored one
    (rebuilt from its series: no answers), a short answer and a stale
    pair searched alone since are chosen row by row — and every row's
    seeds are the per-row choice's."""

    def lanes(self, backend_name):
        histories = [make_series(150 + 3 * i, seed=300 + i) for i in range(6)]
        histories.append(make_series(27, seed=41))  # 3 answers at d=24
        lanes = TwinLanes(histories, SMALL_CFG, lambda: make_backend(backend_name))
        lanes.search(label="cold")
        lanes.tick([0.1 * i for i in range(7)])
        for engines, backend in zip((lanes.ours, lanes.theirs), lanes.backends):
            # Not lanes.search: its check reads _previous_knn, which
            # leaves the engines no answers to read in place.
            search_many(engines)
        lanes.tick([-0.1 * i for i in range(7)])
        for engines, backend in zip((lanes.ours, lanes.theirs), lanes.backends):
            search_many(engines[:2])
            engines[2] = SuffixKnnEngine(
                np.array(engines[2].series), SMALL_CFG, backend=backend
            )
            engines.append(
                SuffixKnnEngine(make_series(170, seed=320), SMALL_CFG, backend=backend)
            )
        return lanes

    def assert_seeds_are_the_per_row_choice(self, lanes):
        """Both twins asked, so their ledgers stay level."""
        stacked, alone, _ = seeds_of_every_length(lanes.ours)
        assert seeds_of_every_length(lanes.theirs)[:2] == (stacked, alone)
        for d in SMALL_CFG.item_lengths:
            assert stacked[d] == alone[d], d

    def test_every_row_is_seeded_as_alone(self, backend_name, monkeypatch):
        from repro.index import suffix_search

        lanes = self.lanes(backend_name)
        assert lanes.ours[6]._found[24].starts.size == 3
        chosen = []
        row_seeds = suffix_search._row_seeds
        monkeypatch.setattr(
            suffix_search, "_row_seeds",
            lambda cfg, prev, bound: chosen.append(prev is None) or row_seeds(
                cfg, prev, bound),
        )
        self.assert_seeds_are_the_per_row_choice(lanes)
        # Members 3, 4 and 5 from the stacked union; 0 and 1 (stale),
        # 2 (restored), 6 (short) and 7 (new) alone, three lengths each,
        # on each twin — the restored and the new member cold.
        assert len(chosen) == 2 * 5 * 3 and sum(chosen) == 2 * 2 * 3
        lanes.search(label="mixed")

    def test_a_seed_row_read_from_the_wrong_search_fails(
        self, backend_name, monkeypatch
    ):
        """Negative control: the members' rows of the search before the
        one their answers came from."""
        from repro.index import suffix_search

        lanes = self.lanes(backend_name)
        largest = suffix_search._largest_search
        earlier = {}

        def one_search_late(found):
            last, members, rows = largest(found)
            return earlier[id(last)], members, rows

        for engines in (lanes.ours, lanes.theirs):
            searched = engines[3]._found.lane
            search_many(engines[3:6])
            earlier[id(engines[3]._found.lane)] = searched
        monkeypatch.setattr(suffix_search, "_largest_search", one_search_late)
        with pytest.raises(AssertionError):
            self.assert_seeds_are_the_per_row_choice(lanes)


def poisoned_backend(backend_name):
    """A backend whose next ``dtw_verification`` launch returns NaN at
    the positions in ``.poison`` (then forgets them)."""

    class Poisoned(type(make_backend(backend_name))):
        poison = ()

        def _run_dtw_verification(
            self, query, candidates, rho, lengths, need, cutoff, work
        ):
            out = np.array(super()._run_dtw_verification(
                query, candidates, rho, lengths, need, cutoff, work
            ))
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


def row_poisoning_backend(backend_name):
    """A backend whose next suffix-reading ``dtw_verification`` launch
    returns NaN, at every length, for the row holding ``target`` — a
    ``(query, candidate)`` pair of some suffix length — and remembers the
    longest length that row was read at."""

    class RowPoisoning(type(make_backend(backend_name))):
        target, read_to = None, None

        def _run_dtw_verification(
            self, query, candidates, rho, lengths, need, cutoff, work
        ):
            out = np.array(super()._run_dtw_verification(
                query, candidates, rho, lengths, need, cutoff, work
            ))
            if self.target is not None and lengths is not None:
                q, c = self.target
                (row,) = np.flatnonzero(
                    (candidates[:, -c.size :] == c).all(axis=1)
                    & (query[:, -q.size :] == q).all(axis=1)
                )
                out[row] = np.nan
                self.target, self.read_to = None, lengths[need[row] - 1]
            return out

    return RowPoisoning()


@pytest.mark.parametrize("backend_name", BACKENDS)
class TestFusedNanRow:
    def test_a_nan_row_is_dropped_at_every_length_that_reads_it(
        self, backend_name
    ):
        """The fused seed launch returns NaN for the row of one
        ``(sensor, end)`` — a seed that is one of the sensor's exact
        answers at the longest item length, so an answer is at stake: the candidate
        ending there is gone from every length it was read at — never
        re-verified, never an answer — and every answer is the exact kNN
        of the rest, on both backends."""
        backend = row_poisoning_backend(backend_name)
        rng = np.random.default_rng(8)
        engines = [
            SuffixKnnEngine(100.0 + rng.normal(size=n).cumsum(), SMALL_CFG,
                            backend=backend)
            for n in (260, 300, 340)
        ]
        longest = max(SMALL_CFG.item_lengths)
        prev = search_many(engines)[0][longest].starts.tolist()
        step_many(
            [engine.window_index for engine in engines],
            [engine.series[-1] + 0.1 for engine in engines],
        )
        series = engines[0].series
        truth, _ = suffix_knn_reference(
            series, engines[0].item_query(longest), SMALL_CFG.k_max,
            SMALL_CFG.rho, margin=SMALL_CFG.margin,
        )
        # A seed of the next search (a remembered start or its successor)
        # that is an exact answer.
        start = next(s for s in truth.tolist() if s in prev or s - 1 in prev)
        end = start + longest
        backend.target = (
            engines[0].item_query(longest), series[end - longest : end]
        )
        found = search_many(engines)
        assert backend.read_to == longest
        held = []
        for i, engine in enumerate(engines):
            for d, answer in found[i].items():
                n = engine.series.size - d - SMALL_CFG.margin + 1
                exact = dtw_batch(
                    engine.item_query(d),
                    sliding_window_view(engine.series, d)[:n], SMALL_CFG.rho,
                )
                if i == 0:
                    clean = np.argsort(exact, kind="stable")[: SMALL_CFG.k_max]
                    held.append(end - d in clean.tolist())
                    exact[end - d] = np.inf  # dropped, not re-verified
                    assert end - d not in answer.starts.tolist()
                top = np.argsort(exact, kind="stable")[: SMALL_CFG.k_max]
                assert answer.starts.tolist() == top.tolist(), (i, d)
                assert answer.distances.tobytes() == exact[top].tobytes()
                assert np.isfinite(answer.distances).all()
        # The poisoned candidate was an exact answer: dropping it moved one.
        assert any(held)


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


class _RowCountingBackend(type(make_backend("native"))):
    """Counts the rows every ``dtw_verification`` launch is handed."""

    rows = 0

    def _run_dtw_verification(
        self, query, candidates, rho, lengths, need, cutoff, work
    ):
        self.rows += candidates.shape[0]
        return super()._run_dtw_verification(
            query, candidates, rho, lengths, need, cutoff, work
        )


class TestVerifiedRowsCounter:
    def test_a_third_fewer_rows_reach_the_kernel_for_the_same_answers(self):
        """The deterministic count behind the successor seeds and the
        end-anchored lane pass: two ``deep-search``-shaped engines
        (rho=24, omega=16, paper item lengths and k), the first 4 000
        points of the seed-2015 streams, a cold search and 59 ticks.
        Before the lane pass a row was verified per (sensor, item
        length, start): 45 112 rows for 45 112 verified candidates (and
        63 926 before the successor seeds).  Now a row per (sensor, end)
        answers every length it is read at.  The answers' starts are the
        per-length pass's, literally; their distances moved in the last
        bits (at most 1.6e-15 relative), the end-anchored DP summing each
        warping path in the other order."""
        parent_rows = 45_112
        parent_starts = (
            "55fadc5bede998eb5173f5f212e26fb8b7dd47fdd0409a1e48b0eccc4ca7fe81"
        )
        answers = (
            "1a88e6f234214f7eca096d602de95b9a48f87365a33657562da301070446a0c2"
        )
        streams = _deep_search_streams(2015, history=4000, ticks=59)
        cfg = SuffixSearchConfig(rho=24, omega=16)
        backend = _RowCountingBackend()
        engines = [
            SuffixKnnEngine(stream[:4000], cfg, backend=backend)
            for stream in streams
        ]
        verified, digest, starts = 0, hashlib.sha256(), hashlib.sha256()
        for tick in range(60):
            if tick:
                step_many(
                    [engine.window_index for engine in engines],
                    streams[:, 3999 + tick],
                )
            for found in search_many(engines):
                for answer in found.values():
                    verified += answer.candidates_verified
                    digest.update(answer.starts.astype("<i8").tobytes())
                    digest.update(answer.distances.astype("<f8").tobytes())
                    starts.update(answer.starts.astype("<i8").tobytes())
        assert starts.hexdigest() == parent_starts
        assert digest.hexdigest() == answers
        assert (backend.rows, verified) == (27_894, 41_885)
        assert backend.rows <= 0.65 * parent_rows


class _UncutBackend(type(make_backend("native"))):
    """Runs every verification launch without its cutoff."""

    def _run_dtw_verification(
        self, query, candidates, rho, lengths, need, cutoff, work
    ):
        return super()._run_dtw_verification(
            query, candidates, rho, lengths, need, None, work
        )


class TestSurvivorLaunchCutoff:
    def test_a_deep_search_lane_abandons_survivors_and_answers_the_same(self):
        """Two ``deep-search``-shaped engines (rho=24, omega=16, paper
        item lengths and k), a cold search and two warm ones: the seed
        launch has no cutoff (``abandoned == 0``, ``cells_computed ==
        cells``); the survivor launch stops rows its gate rules out
        (``abandoned > 0``, ``cells_computed < cells``); and the answers
        are those of the same lane run without cutoffs, to the bit."""
        streams = _deep_search_streams(2015, history=4000, ticks=2)
        cfg = SuffixSearchConfig(rho=24, omega=16)
        lanes = [
            [SuffixKnnEngine(stream[:4000], cfg, backend=backend)
             for stream in streams]
            for backend in (make_backend("native"), _UncutBackend())
        ]
        for tick in range(3):
            if tick:
                for engines in lanes:
                    step_many(
                        [engine.window_index for engine in engines],
                        streams[:, 3999 + tick],
                    )
            obs.enable()
            try:
                with obs.span("round") as root:
                    cut = search_many(lanes[0])
            finally:
                obs.disable()
                obs.reset()
            uncut = search_many(lanes[1])
            assert_answers_equal(cut, uncut, f"tick {tick}")
            seeds, survivors = (
                span.attrs for span in root.find_all("dtw_verification")
            )
            assert seeds["abandoned"] == 0
            assert seeds["cells_computed"] == seeds["cells"]
            assert 0 < survivors["abandoned"] < survivors["rows"], tick
            assert survivors["cells_computed"] < survivors["cells"], tick


class _AllNanBackend(type(make_backend("native"))):
    """Every verified distance comes back NaN."""

    def _run_dtw_verification(
        self, query, candidates, rho, lengths, need, cutoff, work
    ):
        rows = candidates.shape[0]
        return np.full(rows if lengths is None else (rows, len(lengths)), np.nan)


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
        with pytest.raises(ValueError, match="share one kernel domain"):
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
                assert bounds.stacked["eq"][d].shape == (3, 140 - d + 1)
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
        expected = np.concatenate([
            np.argsort(values[lo:hi], kind="stable")[:k] + lo
            for lo, hi in zip(offsets[:-1], offsets[1:])
        ])
        for name in ("native", "simulated"):
            found = make_backend(name).k_select(values, k, offsets)
            assert found.tolist() == expected.tolist()
