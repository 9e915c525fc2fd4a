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

The unit of search is a *group* of engines on one backend — the sensors
of one shard (Section 4.4: the GPU serves many sensors at once, one
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
each phase one computation over the lane's rows (the filters once per
length), not a loop over members:

* **(A)** per length, valid starts ``n_i``, the bounds as one
  ``(engines, max n_i)`` matrix, the seeds — warm, the remembered
  answers and their successors as one sorted, de-duplicated
  ``(engines, 2k)`` union; a cold, stale or short member sends the lane
  through the per-row choice (:meth:`SuffixKnnEngine._seed_starts`);
* **(B)** one gather, one ``dtw_verification`` over every length's
  seeds as distinct ``(engine, end)`` rows;
* **(C)** per length, ``tau_i`` as a row-wise k-th order statistic of
  the finite distances (B) read at that length — the seeds and every
  other length's seeds ending where one of its candidates does — fewer
  than ``k`` of them: ``ValueError``; the two filter tiers as matrix
  compares (a ragged lane gates the columns at or beyond a row's
  ``n_i`` with ``-inf``: padding is never a candidate); what (B) read
  cleared from the survivors by one assignment; one ``search_lb_kim``
  launch per length;
* **(D)** one gather, one ``dtw_verification`` over every length's
  survivors as distinct ``(engine, end)`` rows, skipping at each length
  an end (B) already read there;
* **(E)** one flat verified pool ordered by ``(length, engine, start)``,
  then one segmented k-selection, one block per ``(engine, length)``.

Every distance is a function of its own row alone, so each engine's
answer is the one it gets alone; :meth:`SuffixKnnEngine.search` *is* a
group of one.  Reading a candidate at a length no filter asked for is
free and harmless: it can only lower ``tau_i``, and the pool still holds
every candidate whose DTW is at most ``tau_i``.
``docs/search_engine.md`` has the reasons.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from operator import add
from typing import Sequence

import numpy as np

from ..backend.base import ComputeBackend, as_backend
from ..dtw.lower_bounds import lb_kim_profile
from ..gpu.kernels import OPS_PER_LB_TERM, THREADS_PER_BLOCK
from ..obs import hooks as obs
from .group_index import GroupLevelIndex, LaneLowerBounds, lower_bounds_many
from .window_index import WindowLevelIndex, lane_of

__all__ = [
    "SuffixSearchConfig", "SuffixKnnEngine", "SuffixKnnAnswer", "search_many",
]

logger = logging.getLogger(__name__)

#: Slack added to the filtering threshold so float rounding in a lower
#: bound can never prune a candidate sitting exactly at ``tau``.
_FILTER_SLACK = 1e-12


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
    ``verification_sim_s`` is the simulated seconds of threshold seeding
    + filtering + verification only; k-selection is attributed
    separately to ``selection_sim_s``.
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
    verification_sim_s: float = 0.0
    selection_sim_s: float = 0.0

    def top(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The k nearest of the stored (k_max-sized) answer."""
        return self.starts[:k], self.distances[:k]


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
        self._previous_knn: dict[int, np.ndarray] = {}

    # ---------------------------------------------------------------- state
    @property
    def series(self) -> np.ndarray:
        """Current series contents (read-only view)."""
        return self.window_index.series

    @property
    def master_query(self) -> np.ndarray:
        """Current master query values (the window index owns them)."""
        return self.window_index.master_query

    def item_query(self, d: int) -> np.ndarray:
        """``IQ_i``: the d-length suffix of the master query."""
        master = self.master_query
        return master[master.size - d :]

    # --------------------------------------------------------------- search
    def search(self) -> dict[int, SuffixKnnAnswer]:
        """Run the Suffix kNN Search for every item query (a group of one)."""
        return search_many([self])[0]

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

    # -------------------------------------------------------------- helpers
    def _seed_starts(self, d: int, bound: np.ndarray) -> np.ndarray:
        """The candidate starts whose true DTWs seed ``tau_i`` (at least
        ``k`` of them; ``bound`` holds one lower bound per valid start)."""
        k = min(self.config.k_max, bound.size)
        prev = self._previous_knn.get(d)
        if self.config.reuse_threshold and prev is not None:
            # The query slid one point since ``prev`` was found, so the
            # segment that matched at ``s`` now matches at ``s + 1``: the
            # previous kNN and their successors, ascending.
            seeds = np.union1d(prev, prev + 1)
            seeds = seeds[seeds < bound.size]
            if seeds.size < k:
                extra = np.argsort(bound, kind="stable")[:k]
                seeds = np.union1d(seeds, extra)
            return seeds
        logger.debug(
            "item d=%d: no previous kNN to reuse; seeding tau from "
            "the smallest-LB pool", d,
        )
        pool = min(max(4 * k, 64), bound.size)
        return np.argpartition(bound, pool - 1)[:pool]


def search_many(
    engines: Sequence[SuffixKnnEngine],
) -> list[dict[int, SuffixKnnAnswer]]:
    """Suffix kNN Search for a group of engines, kernel launches fused.

    The engines must share one backend object and one
    :class:`SuffixSearchConfig` (the sensors of one backend shard do, by
    construction; there is no compatibility grouping in here — callers
    group by placement).  Whatever the group's size, the lower bounds
    cost one ``group_index_sum`` launch, an item length one
    ``search_lb_kim`` launch, and the lane three kernel ops: seed
    verification, survivor verification, segmented k-selection.
    Returns one ``{item length: answer}`` per engine, in order.
    """
    if not engines:
        return []
    cfg, backend = engines[0].config, engines[0].backend
    for engine in engines:
        if engine.backend is not backend or not (
            engine.config is cfg or engine.config == cfg
        ):
            raise ValueError(
                "search_many needs engines that share one backend object "
                "and one SuffixSearchConfig; group them by placement first"
            )
    with obs.span("search", backend) as sp:
        if sp is not None:
            sp.attrs["n_sensors"] = len(engines)
        with obs.span("lower_bounds", backend):
            bounds = lower_bounds_many(
                [engine.group_index for engine in engines]
            )
        # The lane's series and master queries, one row per engine: read
        # where the stack keeps them when the group is the whole stack in
        # order, else the group's rows of it (a few stale members).
        stack, rows = lane_of([engine.window_index for engine in engines])
        series, master = stack.series, stack.master
        if rows.size != stack.size or (rows != np.arange(stack.size)).any():
            series, master = series[rows], master[rows]
        return _search_lane(engines, bounds, series, master)


def _apportion(total: float, weights: Sequence[float]) -> list[float]:
    """``total`` split in proportion to ``weights``: the parts tile it,
    and a group of one gets all of it, bit for bit.  Python floats folded
    left to right — a pairwise ``np.sum`` would move the last bit, and so
    would the compensated builtin ``sum()`` of CPython 3.12."""
    if not total:  # an unmodelled clock: every share is 0.0
        return [0.0] * len(weights)
    whole = reduce(add, weights, 0)
    return [total * (weight / whole) if whole else 0.0 for weight in weights]


def _lane_seeds(
    engines: Sequence[SuffixKnnEngine],
    d: int,
    bound: np.ndarray,
    n: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The lane's threshold seeds: ``(starts, how many per engine)``,
    engine-major, each engine's as :meth:`SuffixKnnEngine._seed_starts`
    orders them.  Steady state — every engine remembers an answer of one
    length whose in-range starts and successors number at least its
    ``k`` — is one stacked union; anything else sends every row through
    ``_seed_starts``.  The cold pool must be chosen per row:
    ``argpartition``'s pick among tied bounds (uncovered starts all
    carry bound 0) depends on the array it is handed.
    """
    cfg = engines[0].config
    previous = [engine._previous_knn.get(d) for engine in engines]
    lengths = {None if prev is None else prev.size for prev in previous}
    if cfg.reuse_threshold and len(lengths) == 1 and None not in lengths:
        prev = np.stack(previous)
        both = np.concatenate([prev, prev + 1], axis=1)
        both.sort(axis=1)
        keep = both < n[:, None]
        keep[:, 1:] &= both[:, 1:] != both[:, :-1]
        count = keep.sum(axis=1)
        if (count >= np.minimum(cfg.k_max, n)).all():
            return both[keep], count
    chosen = [
        engine._seed_starts(d, row[:valid])
        for engine, row, valid in zip(engines, bound, n.tolist())
    ]
    return np.concatenate(chosen), np.array([seeds.size for seeds in chosen])


def _search_lane(
    engines: Sequence[SuffixKnnEngine],
    bounds: LaneLowerBounds,
    series: np.ndarray,
    master: np.ndarray,
) -> list[dict[int, SuffixKnnAnswer]]:
    """Every item length for the whole group (phases A-E of the module
    docstring); one ``{item length: answer}`` per engine, in order.
    ``bounds`` is the lane's stacked bounds, ``series`` / ``master`` hold
    one row per engine."""
    cfg, backend = engines[0].config, engines[0].backend
    size = len(engines)
    members = np.arange(size)
    lengths = np.array(sorted(cfg.item_lengths))
    # A candidate is a row's (engine, end): the segment of length d that
    # ends just before ``end`` starts at ``end - d``.  Keys number them
    # engine-major, ends ascending.
    ends = series.shape[1] + 1
    # (A) Valid starts of a row are 0..n-1: the h-step target of a
    # candidate must already be observed.
    valid = [bounds.series_len - (d + cfg.margin - 1) for d in lengths.tolist()]
    for d, n in zip(lengths, valid):
        if n.min() <= 0:
            raise ValueError(
                f"no candidates for item length {d}: series too short"
            )

    def verify(need: np.ndarray) -> tuple:
        """One ``dtw_verification`` launch over the keys ``need`` marks
        (``need[key]``: how many of the lengths, shortest first, the
        candidate is wanted at), each row read at all of them out of one
        wavefront over the longest, against its engine's own query.
        Rows go longest first — the kernel drops finished rows as a
        tail, and the rows read at a length are a prefix.  Returns
        ``(-counts, engines, ends, distances[rows, lengths])``, ``inf``
        past a row's count."""
        keys = np.flatnonzero(need != 0)
        fewer = -need[keys]
        order = np.argsort(fewer, kind="stable")
        fewer = fewer[order]
        member, end = np.divmod(keys[order], ends)
        longest = int(lengths[-fewer[0] - 1]) if keys.size else int(lengths[0])
        start = end - longest
        if keys.size and start.min() < 0:
            # An end nearer the series start than the launch's longest
            # suffix: right-align what there is (the kernel never reads
            # past the row's own longest suffix).
            at = np.maximum(start[:, None] + np.arange(longest), 0)
            candidates = series[member[:, None], at]
        else:
            # windows[i, t] is series[i, t : t + longest]:
            # sliding_window_view's view, built on the (contiguous) rows'
            # buffer without its per-call Python — the constructor checks
            # the strides stay inside the buffer.
            windows = np.ndarray(
                (size, series.shape[1] - longest + 1, longest), series.dtype,
                series, strides=series.strides + series.strides[1:],
            )
            candidates = windows[member, start]
        found = backend.dtw_verification(
            master[member, master.shape[1] - longest :], candidates, cfg.rho,
            lengths, -fewer,
        )
        return fewer, member, end, found

    t_start = backend.elapsed_s
    with obs.span("dtw_refine", backend) as sp:
        # (B) One launch verifies every length's seeds, each distinct
        # candidate once, read at every length up to its longest.
        need = np.zeros(size * ends, dtype=np.int8)
        seeds = []
        for at, (d, n) in enumerate(zip(lengths.tolist(), valid)):
            bound = bounds.stacked[d].bound(cfg.lb_mode)[:, : int(n.max())]
            start, count = _lane_seeds(engines, d, bound, n)
            seeds.append((bound, np.repeat(members, count), start))
            need[seeds[-1][1] * ends + start + d] = at + 1
        first = verify(need)
        seeded = need
        t_seeded = backend.elapsed_s

        # (C) Per length, tau_i is the k-th smallest finite distance the
        # launch read at that length; both tiers prune against it.  The
        # k-th order statistic is a value, so one sort by (engine,
        # distance) gives the bits a per-row partition does.
        need = np.zeros(size * ends, dtype=np.int8)
        tiers = []
        fewer, member, end, found = first
        for at, (d, n, (bound, seed_member, seed_start)) in enumerate(
            zip(lengths.tolist(), valid, seeds)
        ):
            read = np.searchsorted(fewer, -at)  # the rows read at d
            start = end[:read] - d
            # A faulty kernel's NaN sorts behind every distance: padding.
            ranked = np.lexsort((found[:read, at], member[:read]))
            k_row = np.minimum(cfg.k_max, n)
            per_row = np.bincount(member[:read], minlength=size)
            tau = found[:read, at][ranked][np.minimum(
                np.cumsum(per_row) - per_row + k_row - 1, read - 1
            )]
            if (per_row < k_row).any() or not np.isfinite(tau).all():
                raise ValueError(
                    f"fewer than k finite seed distances for item length "
                    f"{d}: no threshold to filter against"
                )
            width = bound.shape[1]
            gate = (tau + _FILTER_SLACK)[:, None]
            if n.min() < width:
                # A ragged lane: columns at or beyond a row's own n hold
                # the stack's padding (or starts whose target is
                # unobserved) and pass no tier — no bound is <= -inf.
                gate = np.where(np.arange(width) < n[:, None], gate, -np.inf)
            # Tier 1: the precomputed window/group envelope bound.
            alive = bound <= gate
            after_kim = n
            if cfg.lb_kim:
                # Tier 0: LB_Kim — two series touches per candidate.
                kim = lb_kim_profile(
                    master[:, master.shape[1] - d :], series, width
                ) <= gate
                after_kim = kim.sum(axis=1)
                alive &= kim
                backend.launch(
                    "search_lb_kim",
                    n_blocks=int((-(-n // THREADS_PER_BLOCK)).sum()),
                    ops_per_thread=2 * OPS_PER_LB_TERM,
                    threads_per_block=THREADS_PER_BLOCK,
                )
            unfiltered = alive.sum(axis=1)
            # Verified at this length: the seeds and every survivor.
            verified = unfiltered + np.bincount(
                seed_member[~alive[seed_member, seed_start]], minlength=size
            )
            # What the first launch read at this length is verified: it
            # leaves the survivors through the same mask over starts.
            alive[member[:read], start] = False
            survivor, start = np.divmod(np.flatnonzero(alive), width)
            need[survivor * ends + start + d] = at + 1
            tiers.append((
                n - after_kim, after_kim - unfiltered, unfiltered, verified,
            ))
        t_filtered = backend.elapsed_s

        # (D) One launch verifies every length's survivors.
        second = verify(need)
        if sp is not None:
            sp.attrs["item_lengths"] = lengths.size
            sp.attrs["verified"] = first[0].size + second[0].size
    # Snapshot the ledger at the span boundary: everything after this
    # point is selection work, not verification work.
    t_verified = backend.elapsed_s

    # (E) One pool per (length, engine): every finite distance either
    # launch read at that length, a candidate the second read again only
    # once (a read no tier asked for has DTW > tau_i: it cannot displace
    # an answer).  A faulty kernel can return a NaN distance — an
    # injected fault takes a row at every length it was read at — and
    # it is dropped, so one never reaches an answer.  The pool is
    # ordered by (length, engine, start) — a total order — so
    # k-selection's stable tie-breaking resolves equal distances by
    # smallest start, exactly as the reference full scan breaks ties.
    segment, start, pool, read = [], [], [], []
    columns = np.arange(lengths.size)
    for (_, member, end, found), fresh in (
        (first, 0), (second, seeded[second[1] * ends + second[2]][:, None])
    ):
        # What the first launch read at a length keeps its value there;
        # the lengths past a row's count read +inf.
        row, at = np.nonzero(np.isfinite(found) & (columns >= fresh))
        segment.append(at * size + member[row])
        start.append(end[row] - lengths[at])
        pool.append(found[row, at])
        read.append(np.bincount(segment[-1], minlength=lengths.size * size))
    segment, start, pool = (np.concatenate(part) for part in (segment, start, pool))
    order = np.argsort(segment * ends + start, kind="stable")
    start, pool = start[order], pool[order]
    offsets = [0, *accumulate((read[0] + read[1]).tolist())]
    with obs.span("k_select", backend):
        tops = backend.k_select(pool, cfg.k_max, offsets)
    t_selected = backend.elapsed_s

    # Each answer carries its share of each fused launch — by the rows
    # it read there, the filter launches by candidates, the selection by
    # candidates verified — normalised so that a group's answers tile
    # the ledger delta.
    verified = [count for tier in tiers for count in tier[3].tolist()]
    launches = (
        (t_seeded - t_start, read[0].tolist()),
        (t_filtered - t_seeded, np.concatenate(valid).tolist()),
        (t_verified - t_filtered, read[1].tolist()),
    )
    verification_s = _apportion(t_verified - t_start, [
        reduce(add, parts, 0)
        for parts in zip(*(_apportion(spent, rows) for spent, rows in launches))
    ])
    selection_s = _apportion(t_selected - t_verified, verified)

    # One gather for the lane's answers; each is a slice of it.
    sizes = [top.size for top in tops]
    picked = np.concatenate(tops) + np.repeat(offsets[:-1], sizes)
    found, distances = start[picked], pool[picked]
    bounds_of = [0, *accumulate(sizes)]
    answers: list[dict[int, SuffixKnnAnswer]] = [{} for _ in engines]
    by_length = {}
    for at, (d, n, (by_kim, by_window, passed, checked)) in enumerate(
        zip(lengths.tolist(), valid, tiers)
    ):
        by_length[d] = []
        for i, (total, unfiltered, kim, window) in enumerate(zip(
            n.tolist(), passed.tolist(), by_kim.tolist(), by_window.tolist(),
        )):
            seg = at * size + i
            lo, hi = bounds_of[seg], bounds_of[seg + 1]
            engines[i]._previous_knn[d] = found[lo:hi]
            by_length[d].append(SuffixKnnAnswer(
                item_length=d,
                starts=found[lo:hi],
                distances=distances[lo:hi],
                candidates_total=total,
                candidates_unfiltered=unfiltered,
                candidates_verified=verified[seg],
                pruned_kim=kim,
                pruned_window=window,
                verification_sim_s=verification_s[seg],
                selection_sim_s=selection_s[seg],
            ))
        if obs.is_enabled():  # one emission per lane, the sensors' counts summed
            obs.observe_search(
                d,
                int(n.sum()),
                int(passed.sum()),
                candidates_verified=int(checked.sum()),
                pruned_kim=int(by_kim.sum()),
                pruned_window=int(by_window.sum()),
                queries=size,
            )
    for d in cfg.item_lengths:
        for per_engine, answer in zip(answers, by_length[d]):
            per_engine[d] = answer
    return answers
