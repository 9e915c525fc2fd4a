"""(Continuous) Suffix kNN Search (Definition 4.1, Section 4.3.3).

The :class:`SuffixKnnEngine` glues the two index levels to the paper's
filter → verify → select pipeline, one straight-line path per item
query, cheapest bound first, each candidate charged to the first tier
that kills it:

* **tier 0 — LB_Kim**: the O(1) first/last-point bound (two series
  touches per candidate, vectorised over all candidates),
* **tier 1 — LB_w**: the group-level window-enhanced envelope bound the
  SMiLer index precomputed (free at query time) — the paper's filter.

Survivors are verified by plain banded DTW, end-anchored, one candidate
per thread (Algorithm 2); verification has no second mode.  Both tiers prune
against the same threshold ``tau_i`` and every bound is ``<= DTW``
(admissible), so the cascade is **exact**: the answer set is
bit-identical to a full-DTW reference scan (pinned by the differential
tests against :func:`repro.index.reference.suffix_knn_reference`).

Threshold seeding: initial queries seed ``tau_i`` from a pool of
candidates with the smallest lower bounds; continuous queries reuse the
previous step's kNN segments (Section 4.3.3) *and their successors* —
the query slid one point since, so the segment that matched at start
``s`` now matches at ``s + 1``.  The pool is verified and ``tau_i`` is
its k-th smallest finite *true* DTW — a provable upper bound on the true
k-th NN distance (the pool is a subset of all candidates), so the search
stays exact whichever candidates seed it.  Two more refinements over the
paper's wording: the pool holds a few multiples of k (a single
smallest-LB candidate can have a large true distance, which would
disable filtering), and we use the pool's k-th smallest DTW rather than
the DTW of the k-th-by-LB candidate (which can *under*-estimate the k-th
NN distance on adversarial data and lose exactness).

`step()` advances one continuous-prediction tick: the observed point is
appended, the window level is ring-updated (Remark 1), the master query
rolls by one point, and the search repeats with threshold reuse.

The unit of search is a *group* of engines in one kernel domain — the
sensors of one shard, or of every native shard of an inline service
(Section 4.4: the GPU serves many sensors at once, one
candidate per thread, one block per query's selection).
:func:`search_many` computes the group's lower bounds in one stacked
shift-sum (:func:`~repro.index.group_index.lower_bounds_many`) and reads
series, master queries and bounds where the lane keeps them stacked, one
row per engine (:class:`~repro.index.window_index.LaneStack`).

The item queries are suffixes of one master query (Definition 4.1), so
candidates of different lengths that end at the same point are suffixes
of one another, and the end-anchored DTW of
:mod:`repro.dtw.distance` answers all of them from one DP over the
longest (the group-level reuse of Section 4.3, carried from the lower
bounds to verification).  A candidate is therefore verified as an
``(engine, end)`` row, read at every item length up to the longest it
is wanted at, and one pass over the lane serves every item length —
each phase one computation over the lane's ``(length, engine)`` rows,
not a loop over lengths or members:

* **(A)** valid starts ``n`` and the one bound array per length the
  group-level pass wrote for ``lb_mode``; the seeds — warm, the last
  answers and their successors as one sorted, de-duplicated union; a
  cold, stale or short member is chosen row by row, alone;
* **(B)** one ``dtw_verification`` over the seeds as distinct
  ``(engine, end)`` rows;
* **(C)** ``tau_i`` per row, the k-th smallest finite distance (B) read
  at that length (fewer than ``k``: ``ValueError``); both filter tiers
  as compares over ``(length, engine, start)``, a row's padding past its
  ``n`` never a candidate; one ``search_lb_kim`` launch per length;
* **(D)** one ``dtw_verification`` over the survivors (B) did not read,
  each row cut off at its engine's gate ``tau_i * (1 +
  FILTER_REL_SLACK)``: the kernel stops a row once every read it has
  left lies above it;
* **(E)** one pool of the reads within the gate, ordered by ``(length,
  engine, start)``, one segmented k-selection; the answers stay stacked
  (:class:`LaneAnswers`), a :class:`SuffixKnnAnswer` built only when
  read.

Every distance is a function of its own row alone, so each engine's
answer is the one it gets alone; :meth:`SuffixKnnEngine.search` *is* a
group of one.  Reading a candidate at a length no filter asked for is
free and harmless: it can only lower ``tau_i``, and the pool still holds
every candidate whose DTW is at most ``tau_i`` — the ones (D) cannot stop.
``docs/search_engine.md`` has the reasons.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple, Sequence

import numpy as np

from ..backend.base import ComputeBackend, as_backend, kernel_domain
from ..gpu.kernels import OPS_PER_LB_TERM, THREADS_PER_BLOCK
from ..obs import hooks as obs
from ..tolerances import FILTER_REL_SLACK
from .group_index import GroupLevelIndex, LaneLowerBounds, lower_bounds_many
from .window_index import WindowLevelIndex, lane_of

__all__ = [
    "SuffixSearchConfig", "SuffixKnnEngine", "SuffixKnnAnswer", "search_many",
]


@dataclass(frozen=True)
class SuffixSearchConfig:
    """Search-step parameters (paper defaults from Table 2)."""

    item_lengths: tuple[int, ...] = (32, 64, 96)
    k_max: int = 32
    omega: int = 16
    rho: int = 8
    margin: int = 1
    lb_mode: str = "en"
    reuse_threshold: bool = True
    #: Tier switch, for ablation studies (``repro.ablation``).  Every
    #: tier is independently admissible, so disabling this one keeps the
    #: search exact — it only changes how much work is done.  ``lb_kim``
    #: gates tier 0 (the LB_w tier is the index itself and cannot be
    #: disabled); off is the paper's plain LB_w filter.
    lb_kim: bool = True

    def __post_init__(self) -> None:
        if self.k_max <= 0:
            raise ValueError(f"k_max must be positive, got {self.k_max}")
        if self.margin < 1:
            raise ValueError(
                f"margin must be at least 1 (the h-step target of a "
                f"candidate must lie strictly in the past), got {self.margin}"
            )
        if self.lb_mode not in ("en", "eq", "ec"):
            raise ValueError(f"unknown lb_mode {self.lb_mode!r}")

    @property
    def master_length(self) -> int:
        """Length of the master query (the longest item query)."""
        return max(self.item_lengths)


@dataclass
class SuffixKnnAnswer:
    """kNN answer for one item query plus pipeline accounting.

    ``candidates_unfiltered`` counts candidates that survived every
    lower-bound tier; ``candidates_verified`` counts candidates whose
    true DTW was actually computed — the threshold seeds are verified
    even when their bound later exceeds ``tau``, so verified can exceed
    unfiltered (this distinction is the fixed accounting the bench
    relies on).  ``pruned_kim``/``pruned_window`` count per-tier kills.
    No seconds: a lane's launches serve all its answers at once, and
    their cost is the backend's per-kernel ledger.
    """

    item_length: int
    starts: np.ndarray
    distances: np.ndarray
    candidates_total: int = 0
    candidates_unfiltered: int = 0
    candidates_verified: int = 0
    pruned_kim: int = 0
    pruned_window: int = 0
    #: Always 0; kept because benchmarks/roundbench/probes.py reads it.
    pruned_improved: int = 0
    #: Always 0; kept because benchmarks/roundbench/probes.py reads it.
    abandoned_early: int = 0

    def top(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The k nearest of the stored (k_max-sized) answer."""
        return self.starts[:k], self.distances[:k]


class LaneAnswers(NamedTuple):
    """What one :func:`search_many` found, stacked over its ``(length,
    engine)`` rows, lengths ascending (``at[d]`` is length ``d``'s): row
    ``[at, i]`` of ``starts`` / ``distances`` holds engine ``i``'s answer
    in its first ``sizes[at, i]`` columns (zero beyond), and
    ``counts[:, at, i]`` its five candidate counts, in field order."""

    at: dict[int, int]
    starts: np.ndarray
    distances: np.ndarray
    sizes: np.ndarray
    counts: np.ndarray


def lane_behind(rows: Sequence[object]) -> LaneAnswers | None:
    """The search whose answers ``rows`` (one mapping per engine) are,
    when they are all of one search, in its order; else ``None``."""
    lane = getattr(rows[0], "lane", None)
    if lane is None or lane.sizes.shape[1] != len(rows):
        return None
    try:
        lanes, order = [row.lane for row in rows], [row.index for row in rows]
    except AttributeError:  # a member without lane answers
        return None
    return lane if all([of is lane for of in lanes]) and order == list(
        range(len(rows))
    ) else None


@dataclass(slots=True)
class EngineAnswers(Mapping):
    """Engine ``index``'s ``{item length: answer}`` out of ``lane``, each
    :class:`SuffixKnnAnswer` built when read (on views of the lane's)."""

    lane: LaneAnswers
    index: int

    def __getitem__(self, d: int) -> SuffixKnnAnswer:
        lane, at, index = self.lane, self.lane.at[d], self.index
        size = lane.sizes[at, index]
        return SuffixKnnAnswer(
            d, lane.starts[at, index, :size], lane.distances[at, index, :size],
            *lane.counts[:, at, index].tolist(),
        )

    def __iter__(self):
        return iter(self.lane.at)

    def __len__(self) -> int:
        return len(self.lane.at)


class SuffixKnnEngine:
    """Continuous Suffix kNN Search over one sensor's history."""

    def __init__(
        self,
        series_values: np.ndarray,
        config: SuffixSearchConfig | None = None,
        backend: ComputeBackend | None = None,
        master_query: np.ndarray | None = None,
    ) -> None:
        self.config = config or SuffixSearchConfig()
        self.backend = as_backend(backend)
        series_values = np.asarray(series_values, dtype=np.float64)
        if master_query is None:
            master_query = series_values[-self.config.master_length :]
        master_query = np.asarray(master_query, dtype=np.float64)

        self.window_index = WindowLevelIndex(
            series_values,
            master_length=self.config.master_length,
            omega=self.config.omega,
            rho=self.config.rho,
            backend=self.backend,
        )
        self.group_index = GroupLevelIndex(
            self.window_index, self.config.item_lengths, backend=self.backend
        )
        self.window_index.build(master_query)
        #: The last search's answers until ``_previous_knn`` is read.
        self._found: EngineAnswers | None = None
        self._remembered: dict[int, np.ndarray] = {}

    # ---------------------------------------------------------------- state
    @property
    def series(self) -> np.ndarray:
        """Current series contents (read-only view)."""
        return self.window_index.series

    @property
    def master_query(self) -> np.ndarray:
        """Current master query values (the window index owns them)."""
        return self.window_index.master_query

    @property
    def _previous_knn(self) -> dict[int, np.ndarray]:
        """The last answers' starts by item length, for threshold seeding:
        caught up with the last search when read; may be edited."""
        if self._found is not None:
            found = sorted(self._found.items())
            self._remembered.update((d, answer.starts) for d, answer in found)
            self._found = None
        return self._remembered

    def item_query(self, d: int) -> np.ndarray:
        """``IQ_i``: the d-length suffix of the master query."""
        master = self.master_query
        return master[master.size - d :]

    # --------------------------------------------------------------- search
    def search(self) -> dict[int, SuffixKnnAnswer]:
        """Run the Suffix kNN Search for every item query (a group of
        one), the answers built."""
        return dict(search_many([self])[0])

    def advance(self, new_point: float) -> None:
        """Append one new point and slide the master query (a stack of
        one of :func:`~repro.index.window_index.step_many`).  Host-side
        arithmetic plus one ``window_index_step`` ledger entry — no
        faultable op, so it cannot fail on a sick device."""
        self.window_index.step(new_point)

    def step(self, new_point: float) -> dict[int, SuffixKnnAnswer]:
        """Advance one continuous tick, then search with reuse."""
        self.advance(new_point)
        return self.search()


def search_many(
    engines: Sequence[SuffixKnnEngine],
) -> list[EngineAnswers]:
    """Suffix kNN Search for a group of engines, kernel launches fused.

    The engines must share one kernel domain
    (:func:`~repro.backend.base.kernel_domain`) and one
    :class:`SuffixSearchConfig` (callers group by domain); launches and
    spans go to the first engine's backend.  Whatever the group's
    size, the lower bounds cost one ``group_index_sum`` launch, an item
    length one ``search_lb_kim`` launch, and the lane three kernel ops:
    seed verification, survivor verification, segmented k-selection.
    Returns one ``{item length: answer}`` mapping per engine, in order,
    over one :class:`LaneAnswers` (an answer is built when read).
    """
    if not engines:
        return []
    cfg, backend = engines[0].config, engines[0].backend
    domain = kernel_domain(backend)
    for engine in engines:
        if kernel_domain(engine.backend) is not domain or not (
            engine.config is cfg or engine.config == cfg
        ):
            raise ValueError(
                "search_many needs engines that share one kernel domain "
                "and one SuffixSearchConfig; group them by placement first"
            )
    with obs.span("search", backend) as sp:
        if sp is not None:
            sp.attrs["n_sensors"] = len(engines)
        with obs.span("lower_bounds", backend) as bounds_sp:
            bounds = lower_bounds_many(
                [engine.group_index for engine in engines], (cfg.lb_mode,)
            )
            if bounds_sp is not None:  # a (sensors, starts) array per mode, length
                bounds_sp.attrs["arrays"] = len(bounds.stacked) * len(cfg.item_lengths)
        # The lane's series and master queries, one row per engine: read
        # where the stack keeps them when the group is the whole stack in
        # order, else the group's rows of it (a few stale members).
        stack, rows = lane_of([engine.window_index for engine in engines])
        series, master = stack.series, stack.master
        if rows.size != stack.size or (rows != np.arange(stack.size)).any():
            series, master = series[rows], master[rows]
        with obs.span("_search_lane", backend):
            lane = _search_lane(engines, bounds, series, master)
    found = [EngineAnswers(lane, index) for index in range(len(engines))]
    for engine, answers in zip(engines, found):
        engine._found = answers
    return found


def _lane_seeds(
    engines: Sequence[SuffixKnnEngine], bound: list[np.ndarray], n: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """The starts whose true DTWs seed ``tau_i``, at least ``k`` per
    ``(length, engine)`` row: ``(how many per row, starts, how many rows
    were seeded alone)``, chosen as :func:`_row_seeds` chooses them.  The
    members whose last answers fill rows of the search most of them came
    from take one stacked union, read where that search keeps them (in
    place when they are all of its rows, in order); the others — new,
    restored, short, stale, or a union short of ``k`` — are chosen row
    by row (the cold pool must be: ``argpartition``'s pick among tied
    bounds depends on the array it is handed)."""
    cfg = engines[0].config
    depth, size = n.shape
    search = (
        _largest_search([engine._found for engine in engines])
        if cfg.reuse_threshold else None
    )
    chosen: list[np.ndarray] = []
    owner: list[np.ndarray] = []
    counts = np.zeros((depth, size), dtype=np.int64)
    alone = np.ones(size, dtype=bool)
    if search is not None:
        last, members, rows = search
        starts, sizes, within = last.starts, last.sizes, n
        if rows is not None:
            starts, sizes, within = starts[:, rows], sizes[:, rows], n[:, members]
        both = np.concatenate([starts, starts + 1], axis=2)
        both.sort(axis=2)
        keep = both < within[..., None]
        keep[..., 1:] &= both[..., 1:] != both[..., :-1]
        count = keep.sum(axis=2)
        union = (sizes == starts.shape[2]).all(axis=0)
        union &= (count >= np.minimum(cfg.k_max, within)).all(axis=0)
        if rows is None and union.all():
            return count.ravel(), both[keep], 0
        keep[:, ~union] = False
        members, count = members[union], count[:, union]
        counts[:, members] = count
        alone[members] = False
        chosen.append(both[keep])
        rows_of = np.arange(depth)[:, None] * size + members
        owner.append(np.repeat(rows_of.ravel(), count.ravel()))
    lengths = sorted(cfg.item_lengths)
    for at, (d, lane_bounds, valid) in enumerate(zip(lengths, bound, n.tolist())):
        for i in np.flatnonzero(alone).tolist():
            seeds = _row_seeds(
                cfg, engines[i]._previous_knn.get(d), lane_bounds[i, : valid[i]]
            )
            counts[at, i] = seeds.size
            chosen.append(seeds)
            owner.append(np.full(seeds.size, at * size + i))
    order = np.argsort(np.concatenate(owner), kind="stable")
    return counts.ravel(), np.concatenate(chosen)[order], depth * int(alone.sum())


def _largest_search(
    found: list[EngineAnswers | None],
) -> tuple[LaneAnswers, np.ndarray, np.ndarray | None] | None:
    """The search most of the last answers ``found`` came from, the
    positions of those members and their rows of it (``None``: all its
    rows, in order); ``None`` if no member has answers."""
    last = lane_behind(found)
    if last is not None:
        return last, np.arange(len(found)), None
    by_search: dict[int, list[tuple[int, EngineAnswers]]] = {}
    for position, answers in enumerate(found):
        if answers is not None:
            by_search.setdefault(id(answers.lane), []).append((position, answers))
    if not by_search:
        return None
    members = max(by_search.values(), key=len)
    return (
        members[0][1].lane,
        np.array([position for position, _ in members]),
        np.array([answers.index for _, answers in members]),
    )


def _row_seeds(
    cfg: SuffixSearchConfig, prev: np.ndarray | None, bound: np.ndarray
) -> np.ndarray:
    """One ``(length, engine)`` row's seeds over its valid starts'
    ``bound``: warm, the previous kNN and their successors (module
    docstring) in range, padded from the smallest bounds when fewer than
    ``k``; cold, the smallest-bound pool."""
    valid = bound.size
    k = min(cfg.k_max, valid)
    if cfg.reuse_threshold and prev is not None:
        seeds = np.union1d(prev, prev + 1)
        seeds = seeds[seeds < valid]
        if seeds.size < k:
            seeds = np.union1d(seeds, np.argsort(bound, kind="stable")[:k])
        return seeds
    pool = min(max(4 * k, 64), valid)
    return np.argpartition(bound, pool - 1)[:pool]


def _search_lane(
    engines: Sequence[SuffixKnnEngine],
    bounds: LaneLowerBounds,
    series: np.ndarray,
    master: np.ndarray,
) -> LaneAnswers:
    """Phases A-E of the module docstring for the whole group; ``series``
    / ``master`` hold one row per engine."""
    cfg, backend = engines[0].config, engines[0].backend
    size = len(engines)
    lengths = sorted(cfg.item_lengths)
    depth, item, queried = len(lengths), np.array(lengths), master.shape[1]
    # A candidate is a row's (engine, end): the segment of length d that
    # ends just before ``end`` starts at ``end - d``.  Keys number them
    # engine-major, ends ascending.
    ends = series.shape[1] + 1
    # (A) Valid starts of a row are 0..n-1: the h-step target of a
    # candidate must already be observed.
    n = bounds.series_len - (cfg.margin - 1) - item[:, None]
    short = n.min(axis=1) <= 0
    if short.any():
        raise ValueError(
            f"no candidates for item length {lengths[int(short.argmax())]}: "
            f"series too short"
        )
    widths = n.max(axis=1).tolist()
    width = widths[0]  # the shortest length has the most starts
    written = bounds.stacked[cfg.lb_mode]
    bound = [written[d][:, :w] for d, w in zip(lengths, widths)]
    blocks = (-(-n // THREADS_PER_BLOCK)).sum(axis=1).tolist()
    launch_kim = partial(  # a length's LB_Kim tier: two touches a candidate
        backend.launch, "search_lb_kim", ops_per_thread=2 * OPS_PER_LB_TERM,
        threads_per_block=THREADS_PER_BLOCK)
    # The rows behind ``reach`` copies of their first point: an end nearer
    # the start than a launch's longest suffix is right-aligned on them
    # (the kernel never reads past a row's own longest suffix).
    reach = lengths[-1]
    padded = np.empty((size, reach + series.shape[1]))
    padded[:, :reach], padded[:, reach:] = series[:, :1], series

    def verify(
        need: np.ndarray, gate: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """One ``dtw_verification`` launch over the ``(engine, end)`` keys
        ``need`` marks with how many lengths, shortest first, each is
        wanted at, rows longest first (the kernel drops finished rows as
        a tail).  With ``gate`` (``(length, engine)``) a row's cutoff is
        its engine's gate at each length: the kernel may stop a row whose
        reads all lie above it.  Returns ``(keys, distances[keys,
        lengths])``, ``inf`` past a key's count or where the row was
        stopped."""
        keys = np.flatnonzero(need != 0)
        count = need[keys]
        order = np.argsort(-count, kind="stable")
        member, end = np.divmod(keys[order], ends)
        count = count[order]
        cutoff = None if gate is None else gate[:, member].T
        longest = lengths[count[0] - 1] if keys.size else lengths[0]
        # windows[i, t] is padded[i, t : t + longest]: sliding_window_view
        # without its per-call Python (the constructor checks the bounds).
        windows = np.ndarray(
            (size, padded.shape[1] - longest + 1, longest), padded.dtype,
            padded, strides=padded.strides + padded.strides[1:],
        )
        found = backend.dtw_verification(
            master[member, queried - longest :],
            windows[member, end + (reach - longest)], cfg.rho,
            tuple(lengths), count, cutoff,
        )
        by_key = np.empty_like(found)
        by_key[order] = found
        return keys, by_key

    with obs.span("dtw_refine", backend) as sp:
        # (B) One launch verifies every length's seeds, each distinct
        # candidate once, read at every length up to its longest.
        count, seed_start, alone = _lane_seeds(engines, bound, n)
        if sp is not None:
            sp.attrs["seeded_alone"] = alone
        seed_row = np.repeat(np.arange(depth * size), count)
        seed_key = seed_row % size * ends + seed_start + item[seed_row // size]
        seeded = np.zeros(size * ends, dtype=np.int8)
        cut = [0, *np.cumsum(count.reshape(depth, size).sum(axis=1)).tolist()]
        for at in range(depth):  # a key wanted at several lengths: the longest
            seeded[seed_key[cut[at] : cut[at + 1]]] = at + 1
        first = verify(seeded)

        # (C) tau_i per row is the k-th smallest finite distance the
        # launch read at that length: the engine's rows padded with +inf
        # (as is a length past a row's count) and sorted, a faulty
        # kernel's NaN behind every distance.  The k-th order statistic
        # is a value, so any sort gives the bits a per-row partition does.
        keys, found = first
        member = keys // ends
        at_row = np.arange(keys.size) - np.searchsorted(member, member)
        k = np.minimum(cfg.k_max, n).ravel()
        ranked = np.full(
            (depth, size, max(int(at_row.max()) + 1, int(k.max()))), np.inf
        )
        ranked[:, member, at_row] = found.T
        ranked.sort(axis=2)
        tau = ranked.reshape(k.size, -1)[np.arange(k.size), k - 1]
        tau = tau.reshape(depth, size)
        if not np.isfinite(tau).all():
            at = int(np.isfinite(tau).all(axis=1).argmin())
            for blocks_at in blocks[:at] if cfg.lb_kim else ():
                launch_kim(n_blocks=blocks_at)  # the lengths filtered first
            raise ValueError(
                f"fewer than k finite seed distances for item length "
                f"{lengths[at]}: no threshold to filter against"
            )
        gate = tau * (1.0 + FILTER_REL_SLACK)
        # Columns at or beyond a row's own n hold the stack's padding (or
        # starts whose target is unobserved) and pass no tier.
        valid = np.arange(width) < n[..., None]
        # Tier 1: the precomputed window/group envelope bound.
        alive = np.zeros((depth, size, width), dtype=bool)
        for at, rows in enumerate(bound):
            np.less_equal(
                rows, gate[at, :, None], out=alive[at, :, : rows.shape[1]]
            )
        after_kim = n
        if cfg.lb_kim:
            # Tier 0: LB_Kim, two series touches per candidate, with
            # lb_kim_profile's arithmetic: the suffixes share the query's
            # last point, and a segment's last point is d - 1 on.
            tails = master[:, queried - 1 :] - series
            tails *= tails
            kim = master[:, queried - item].T[..., None] - series[:, :width]
            kim *= kim
            for at, (d, w) in enumerate(zip(lengths, widths)):
                kim[at, :, :w] += tails[:, d - 1 : d - 1 + w]
            kim = kim <= gate[..., None]
            kim &= valid
            after_kim = kim.sum(axis=2, dtype=np.int32)
            alive &= kim
            for blocks_at in blocks:
                launch_kim(n_blocks=blocks_at)
        else:
            alive &= valid
        unfiltered = alive.sum(axis=2, dtype=np.int32)
        # Verified at a length: the seeds and every survivor.
        verified = unfiltered + np.bincount(
            seed_row[~alive.reshape(depth * size, width)[seed_row, seed_start]],
            minlength=depth * size,
        ).reshape(depth, size)
        # (D) One launch verifies every length's survivors, but what the
        # first launch already read at that length, cut off at the gate.
        survivors = np.zeros_like(seeded)
        done, wanted = seeded.reshape(size, ends), survivors.reshape(size, ends)
        for at, (d, w) in enumerate(zip(lengths, widths)):
            wanted[:, d : d + w][alive[at, :, :w] & (done[:, d : d + w] <= at)] = (
                at + 1
            )
        second = verify(survivors, gate)
        if sp is not None:
            sp.attrs["item_lengths"] = depth
            sp.attrs["verified"] = first[0].size + second[0].size

    # (E) One pool per (length, engine): every finite distance either
    # launch read there within the gate, the first's kept.  Every answer
    # lies within it (DTW <= tau_i), a read above it is never picked, and
    # which of those (D) stopped early changes nothing; an injected NaN
    # is dropped.  Ordered by (length, engine, start), k-selection's
    # stable ties resolve by smallest start, as the reference full
    # scan's do.
    place, pool = [], []
    for (keys, found), fresh in ((first, 0), (second, seeded[second[0]])):
        reads = found.T
        at, row = np.nonzero(
            (reads <= gate[:, keys // ends]) & np.isfinite(reads)
            & (np.arange(depth)[:, None] >= fresh)
        )
        place.append(at * (size * ends) + keys[row])
        pool.append(found[row, at])
    place, pool = np.concatenate(place), np.concatenate(pool)
    order = np.argsort(place, kind="stable")
    place, pool = place[order], pool[order]
    pooled = np.bincount(place // ends, minlength=depth * size)
    offsets = np.concatenate([[0], np.cumsum(pooled)])
    picked = backend.k_select(pool, cfg.k_max, offsets)

    # The answers stay stacked: one gather for the lane.
    sizes = np.minimum(cfg.k_max, pooled)
    place, widest = place[picked], int(sizes.max())
    found = [
        pad_rows(values, sizes, widest).reshape(depth, size, widest)
        for values in (place % ends - item[place // (size * ends)], pool[picked])
    ]
    counts = np.stack([n, unfiltered, verified, n - after_kim, after_kim - unfiltered])
    if obs.is_enabled():  # one emission per length, the sensors' counts summed
        for d, (total, passed, checked, kim, window) in zip(
            lengths, counts.sum(axis=2).T.tolist()
        ):
            obs.observe_search(d, total, passed, candidates_verified=checked,
                               pruned_kim=kim, pruned_window=window, queries=size)
    by_length = {d: lengths.index(d) for d in cfg.item_lengths}
    return LaneAnswers(by_length, *found, sizes.reshape(depth, size), counts)


def pad_rows(values: np.ndarray, sizes: np.ndarray, width: int) -> np.ndarray:
    """``values`` cut into rows of ``sizes``, each zero-filled to ``width``."""
    if sizes.min() == width:
        return values.reshape(sizes.size, width)
    rows = np.zeros((sizes.size, width), dtype=values.dtype)
    rows[np.arange(width) < sizes[:, None]] = values
    return rows
