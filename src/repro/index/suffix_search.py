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
previous step's kNN segments (Section 4.3.3).  The pool is verified and
``tau_i`` is its k-th smallest *true* DTW — a provable upper bound on
the true k-th NN distance (the pool is a subset of all candidates), so
the search stays exact.  Two refinements over the paper's wording: the
pool holds a few multiples of k (a single smallest-LB candidate can have
a large true distance, which would disable filtering), and we use the
pool's k-th smallest DTW rather than the DTW of the k-th-by-LB candidate
(which can *under*-estimate the k-th NN distance on adversarial data and
lose exactness).

`step()` advances one continuous-prediction tick: the observed point is
appended, the window level is ring-updated (Remark 1), the master query
rolls by one point, and the search repeats with threshold reuse.

The unit of search is a *group* of engines on one backend — the sensors
of one shard (Section 4.4: the GPU serves many sensors at once, one
candidate per thread, one block per query's selection).
:func:`search_many` computes the group's lower bounds in one stacked
shift-sum (:func:`~repro.index.group_index.lower_bounds_many`), then per
item length runs

* **(A)** per engine: valid starts, their bounds, the seed choice;
* **(B)** one ``dtw_verification`` over the group's concatenated seeds;
* **(C)** per engine: ``tau_i``, the two filter tiers, seeds dropped from
  the survivors by a boolean mask over starts — and one
  ``search_lb_kim`` launch for the group;
* **(D)** one ``dtw_verification`` over the concatenated survivors;
* **(E)** per engine: the verified pool, then one segmented k-selection,
  one block per engine.

Every fused launch pairs row ``i`` with its own engine's query, so each
engine's answer is the one it gets searched alone;
:meth:`SuffixKnnEngine.search` *is* a group of one.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..backend.base import ComputeBackend, as_backend
from ..dtw.lower_bounds import lb_kim_profile
from ..gpu.kernels import OPS_PER_LB_TERM, THREADS_PER_BLOCK
from ..obs import hooks as obs
from .group_index import GroupLevelIndex, ItemLowerBounds, lower_bounds_many
from .window_index import WindowLevelIndex

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
            # Previous kNN segments are near-optimal for the barely-moved
            # query; their k-th smallest current DTW is a tight threshold.
            seeds = prev[prev < bound.size]
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
        if engine.backend is not backend or engine.config != cfg:
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
        answers: list[dict[int, SuffixKnnAnswer]] = [{} for _ in engines]
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


def _apportion(total: float, weights: Sequence[float]) -> list[float]:
    """``total`` split in proportion to ``weights``: the parts tile it,
    and a group of one gets all of it, bit for bit."""
    whole = sum(weights)
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
            seeds = engine._seed_starts(d, bound)
            members.append(_Member(series, engine.item_query(d), bound, seeds))

        # (B) One launch verifies every engine's seeds.
        seed_distances = _verify_fused(
            backend, cfg.rho, members, [member.seeds for member in members]
        )
        t_seeded = backend.elapsed_s

        # (C) tau_i is the k-th smallest seed DTW; both tiers prune
        # against it.  Seeds are already verified: they leave the
        # survivors through the same mask over starts.
        for member, seed_d in zip(members, seed_distances):
            n = member.bound.size
            k = min(cfg.k_max, n)
            gate = float(np.partition(seed_d, k - 1)[k - 1]) + _FILTER_SLACK
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
        sum(parts)
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
