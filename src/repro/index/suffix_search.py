"""(Continuous) Suffix kNN Search (Definition 4.1, Section 4.3.3).

The :class:`SuffixKnnEngine` glues the two index levels to the paper's
filter → verify → select pipeline, one straight-line path per item
query, cheapest bound first, each candidate charged to the first tier
that kills it:

* **tier 0 — LB_Kim**: the O(1) first/last-point bound (two series
  touches per candidate, vectorised over all candidates),
* **tier 1 — LB_w**: the group-level window-enhanced envelope bound the
  SMiLer index precomputed (free at query time) — the paper's filter.

Survivors are verified by plain banded DTW, one candidate per thread
(Algorithm 2); verification has no second mode.  Both tiers prune
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
row per engine (:class:`~repro.index.window_index.LaneStack`).  Per item
length every phase is one computation over those rows, not a loop over
members:

* **(A)** valid starts ``n_i``, the bounds as one ``(engines, max n_i)``
  matrix, the seeds — warm, the remembered answers and their successors
  as one sorted, de-duplicated ``(engines, 2k)`` union; a cold, stale or
  short member sends the lane through the per-row choice
  (:meth:`SuffixKnnEngine._seed_starts`);
* **(B)** one gather, one ``dtw_verification`` over the lane's seeds;
* **(C)** ``tau_i`` as a row-wise k-th order statistic of the finite
  seed distances (fewer than ``k`` of them: ``ValueError``), the two filter
  tiers as matrix compares (a ragged lane gates the columns at or beyond
  a row's ``n_i`` with ``-inf``: padding is never a candidate), seeds
  cleared from the survivors by one assignment — and one
  ``search_lb_kim`` launch for the group;
* **(D)** one gather, one ``dtw_verification`` over the survivors;
* **(E)** one flat verified pool ordered by ``(engine, start)``, then one
  segmented k-selection, one block per engine.

Every fused launch pairs row ``i`` with its own engine's query, rows in
the order the engine searched alone would send them, so each engine's
answer is the one it gets alone; :meth:`SuffixKnnEngine.search` *is* a
group of one.  ``docs/search_engine.md`` has the reasons.
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
from .group_index import GroupLevelIndex, ItemLowerBounds, lower_bounds_many
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
    cost one ``group_index_sum`` launch and an item length costs four
    kernel ops: seed verification, ``search_lb_kim``, survivor
    verification, segmented k-selection.  Returns one
    ``{item length: answer}`` per engine, in order.
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
        answers: list[dict[int, SuffixKnnAnswer]] = [{} for _ in engines]
        for d in cfg.item_lengths:
            fused = _search_item(
                engines, d, bounds.stacked[d], bounds.series_len, series,
                master[:, master.shape[1] - d :],
            )
            for per_engine, answer in zip(answers, fused):
                per_engine[d] = answer
    return answers


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


def _search_item(
    engines: Sequence[SuffixKnnEngine],
    d: int,
    lbs: ItemLowerBounds,
    series_len: np.ndarray,
    series: np.ndarray,
    queries: np.ndarray,
) -> list[SuffixKnnAnswer]:
    """One item length for the whole group (phases A-E of the module
    docstring); one answer per engine, in order.  ``lbs`` is the lane's
    stacked bounds, ``series`` / ``queries`` hold one row per engine."""
    cfg, backend = engines[0].config, engines[0].backend
    size = len(engines)
    members = np.arange(size)
    # windows[i, t] is series[i, t : t + d]: sliding_window_view's view,
    # built on the (contiguous) rows' buffer without its per-call Python
    # — the constructor checks the strides stay inside the buffer.
    windows = np.ndarray(
        (size, series.shape[1] - d + 1, d), series.dtype, series,
        strides=series.strides + series.strides[1:],
    )

    def verify(member: np.ndarray, start: np.ndarray) -> np.ndarray:
        """One ``dtw_verification`` launch: segment ``start[j]`` of
        engine ``member[j]`` against that engine's query (one query row
        per candidate even in a lane of one: the kernel is faster on
        same-shape operands than on a broadcast ``(d,)`` query)."""
        return backend.dtw_verification(
            queries[member], windows[member, start], cfg.rho
        )

    t_start = backend.elapsed_s
    with obs.span("dtw_refine", backend) as sp:
        # (A) Valid starts of a row are 0..n-1: the h-step target of a
        # candidate must already be observed.
        n = series_len - (d + cfg.margin - 1)
        shortest, width = int(n.min()), int(n.max())
        if shortest <= 0:
            raise ValueError(
                f"no candidates for item length {d}: series too short"
            )
        bound = lbs.bound(cfg.lb_mode)[:, :width]
        seed_start, seed_count = _lane_seeds(engines, d, bound, n)
        seed_member = np.repeat(members, seed_count)

        # (B) One launch verifies every engine's seeds.
        seed_d = verify(seed_member, seed_start)
        t_seeded = backend.elapsed_s

        # (C) tau_i is the k-th smallest finite seed DTW; both tiers
        # prune against it.  The seeds go one row per engine into a
        # matrix padded with +inf (a faulty kernel's NaN counts as
        # padding); the k-th order statistic is a value, so a row-wise
        # partition gives the bits the per-row one does.
        k_row = np.minimum(cfg.k_max, n)
        first = np.cumsum(seed_count) - seed_count  # of each row's seeds
        column = np.arange(seed_start.size) - first[seed_member]
        padded = np.full((size, int(seed_count.max())), np.inf)
        padded[seed_member, column] = np.where(
            np.isfinite(seed_d), seed_d, np.inf
        )
        tau = np.partition(padded, np.unique(k_row - 1), axis=1)[
            members, k_row - 1
        ]
        if np.isinf(tau).any():
            raise ValueError(
                f"fewer than k finite seed distances for item length {d}: "
                f"no threshold to filter against"
            )
        gate = (tau + _FILTER_SLACK)[:, None]
        if shortest < width:
            # A ragged lane: columns at or beyond a row's own n hold the
            # stack's padding (or starts whose target is unobserved) and
            # pass no tier — no bound is <= -inf.
            gate = np.where(np.arange(width) < n[:, None], gate, -np.inf)
        # Tier 1: the precomputed window/group envelope bound.
        alive = bound <= gate
        after_kim = n
        if cfg.lb_kim:
            # Tier 0: LB_Kim — two series touches per candidate.
            kim = lb_kim_profile(queries, series, width) <= gate
            after_kim = kim.sum(axis=1)
            alive &= kim
            backend.launch(
                "search_lb_kim",
                n_blocks=int((-(-n // THREADS_PER_BLOCK)).sum()),
                ops_per_thread=2 * OPS_PER_LB_TERM,
                threads_per_block=THREADS_PER_BLOCK,
            )
        unfiltered = alive.sum(axis=1)
        # Seeds are already verified: they leave the survivors through
        # the same mask over starts.
        alive[seed_member, seed_start] = False
        surv_member, surv_start = np.divmod(np.flatnonzero(alive), width)
        t_filtered = backend.elapsed_s

        # (D) One launch verifies every engine's survivors.
        surv_d = verify(surv_member, surv_start)
        surv_count = np.bincount(surv_member, minlength=size)
        if sp is not None:
            sp.attrs["item_length"] = d
            sp.attrs["verified"] = seed_start.size + surv_start.size
    # Snapshot the ledger at the span boundary: everything after this
    # point is selection work, not verification work.
    t_verified = backend.elapsed_s

    # (E) A faulty kernel can return a NaN distance; drop non-finite
    # entries so one never reaches an answer.  Order the verified pool by
    # (engine, start) — a total order, starts are unique per engine — so
    # k-selection's stable tie-breaking resolves equal distances by
    # smallest start, exactly as the reference full scan breaks ties.
    member = np.concatenate([seed_member, surv_member])
    start = np.concatenate([seed_start, surv_start])
    pool = np.concatenate([seed_d, surv_d])
    finite = np.isfinite(pool)
    if not finite.all():
        member, start, pool = member[finite], start[finite], pool[finite]
    order = np.argsort(member * width + start, kind="stable")
    start, pool = start[order], pool[order]
    pool_sizes = np.bincount(member, minlength=size).tolist()
    offsets = [0, *accumulate(pool_sizes)]
    with obs.span("k_select", backend):
        tops = backend.k_select(pool, cfg.k_max, offsets)
    t_selected = backend.elapsed_s

    # Each answer carries its row-share of each fused launch, normalised
    # so that a group's answers tile the ledger delta.
    launches = (
        (t_seeded - t_start, seed_count.tolist()),
        (t_filtered - t_seeded, n.tolist()),
        (t_verified - t_filtered, surv_count.tolist()),
    )
    verification_s = _apportion(t_verified - t_start, [
        reduce(add, parts, 0)
        for parts in zip(*(_apportion(spent, rows) for spent, rows in launches))
    ])
    selection_s = _apportion(t_selected - t_verified, pool_sizes)

    verified = seed_count + surv_count
    pruned_kim, pruned_window = n - after_kim, after_kim - unfiltered
    # One gather for the lane's answers; each engine's is a slice of it.
    sizes = [top.size for top in tops]
    picked = np.concatenate(tops) + np.repeat(offsets[:-1], sizes)
    found, distances = start[picked], pool[picked]
    ends = list(accumulate(sizes))
    answers = []
    for (
        engine, lo, hi, total, passed, checked, by_kim, by_window,
        verification, selection,
    ) in zip(
        engines, [0] + ends, ends, n.tolist(), unfiltered.tolist(),
        verified.tolist(), pruned_kim.tolist(), pruned_window.tolist(),
        verification_s, selection_s,
    ):
        engine._previous_knn[d] = starts = found[lo:hi]
        answers.append(SuffixKnnAnswer(
            item_length=d,
            starts=starts,
            distances=distances[lo:hi],
            candidates_total=total,
            candidates_unfiltered=passed,
            candidates_verified=checked,
            pruned_kim=by_kim,
            pruned_window=by_window,
            verification_sim_s=verification,
            selection_sim_s=selection,
        ))
    if obs.is_enabled():  # one emission per lane, the sensors' counts summed
        obs.observe_search(
            d,
            int(n.sum()),
            int(unfiltered.sum()),
            candidates_verified=int(verified.sum()),
            pruned_kim=int(pruned_kim.sum()),
            pruned_window=int(pruned_window.sum()),
            queries=size,
        )
    return answers
