"""(Continuous) Suffix kNN Search (Definition 4.1, Section 4.3.3).

The :class:`SuffixKnnEngine` glues the two index levels to the paper's
filter → verify → select pipeline, one straight-line path per item
query, cheapest bound first, each tier only touching survivors of the
previous one:

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
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..backend.base import ComputeBackend, as_backend
from ..dtw.lower_bounds import lb_kim_profile
from ..gpu.kernels import OPS_PER_LB_TERM, THREADS_PER_BLOCK
from ..obs import hooks as obs
from .group_index import GroupLevelIndex, ItemLowerBounds
from .window_index import WindowLevelIndex

__all__ = ["SuffixSearchConfig", "SuffixKnnEngine", "SuffixKnnAnswer"]

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
        """Run the Suffix kNN Search for every item query."""
        with obs.span("search", self.backend):
            with obs.span("lower_bounds", self.backend):
                bounds = self.group_index.compute()
            return {
                d: self._search_one(d, bounds[d])
                for d in self.config.item_lengths
            }

    def advance(self, new_point: float) -> None:
        """Append one new point and slide the master query (host-side
        only — no backend work, so it cannot fail on a sick device)."""
        self.window_index.step(new_point)

    def step(self, new_point: float) -> dict[int, SuffixKnnAnswer]:
        """Advance one continuous tick, then search with reuse."""
        self.advance(new_point)
        return self.search()

    # -------------------------------------------------------------- helpers
    def _seed_threshold(
        self,
        d: int,
        k: int,
        starts: np.ndarray,
        bound: np.ndarray,
        segments: np.ndarray,
        query: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """Verified seed pool and the threshold ``tau_i`` (its k-th DTW)."""
        cfg = self.config
        prev = self._previous_knn.get(d)
        if cfg.reuse_threshold and prev is not None:
            # Previous kNN segments are near-optimal for the barely-moved
            # query; their k-th smallest current DTW is a tight threshold.
            seed_starts = prev[(prev >= starts[0]) & (prev <= starts[-1])]
            if seed_starts.size < k:
                extra = starts[np.argsort(bound, kind="stable")[:k]]
                seed_starts = np.union1d(seed_starts, extra)
        else:
            logger.debug(
                "item d=%d: no previous kNN to reuse; seeding tau from "
                "the smallest-LB pool", d,
            )
            pool = min(max(4 * k, 64), starts.size)
            seed_starts = starts[np.argpartition(bound, pool - 1)[:pool]]
        seed_distances = self.backend.dtw_verification(
            query, segments[seed_starts], cfg.rho
        )
        tau = float(np.partition(seed_distances, k - 1)[k - 1])
        return seed_starts, seed_distances, tau

    def _search_one(self, d: int, lbs: ItemLowerBounds) -> SuffixKnnAnswer:
        cfg = self.config
        series = self.window_index.series
        query = self.item_query(d)
        # Valid starts: the h-step target must already be observed.
        starts = np.arange(max(series.size - d - cfg.margin + 1, 0))
        if starts.size == 0:
            raise ValueError(
                f"no candidates for item length {d}: series too short"
            )
        k = min(cfg.k_max, starts.size)
        bound = lbs.bound(cfg.lb_mode)[starts]
        segments = sliding_window_view(series, d)

        before = self.backend.elapsed_s

        with obs.span("dtw_refine", self.backend) as sp:
            seed_starts, seed_distances, tau = self._seed_threshold(
                d, k, starts, bound, segments, query
            )
            gate = tau + _FILTER_SLACK

            # --- filtering ---------------------------------------------------
            survivors = starts
            if cfg.lb_kim:
                # Tier 0: LB_Kim — two series touches per candidate.
                keep = lb_kim_profile(query, series, starts) <= gate
                survivors = starts[keep]
                bound = bound[keep]
                self.backend.launch(
                    "search_lb_kim",
                    n_blocks=-(-starts.size // THREADS_PER_BLOCK),
                    ops_per_thread=2 * OPS_PER_LB_TERM,
                    threads_per_block=THREADS_PER_BLOCK,
                )
            # Tier 1: the precomputed window/group envelope bound.
            unfiltered = survivors[bound <= gate]
            pruned_kim = int(starts.size - survivors.size)
            pruned_window = int(survivors.size - unfiltered.size)

            # --- verification ------------------------------------------------
            # Seeds are already verified; drop them from the batch.
            to_verify = unfiltered[~np.isin(unfiltered, seed_starts)]
            distances = self.backend.dtw_verification(
                query, segments[to_verify], cfg.rho
            )
            if sp is not None:
                sp.attrs["item_length"] = d
                sp.attrs["verified"] = int(
                    seed_starts.size + to_verify.size
                )
        # Snapshot the ledger at the span boundary: everything after this
        # point is selection work, not verification work.
        after_verify = self.backend.elapsed_s

        # --- selection -------------------------------------------------------
        # A faulty kernel can return a NaN distance; drop non-finite
        # entries so one never reaches an answer.  Order the verified
        # pool by start so k-selection's stable tie-breaking resolves
        # equal distances by smallest start — exactly how the reference
        # full scan breaks ties.
        all_starts = np.concatenate([seed_starts, to_verify])
        all_distances = np.concatenate([seed_distances, distances])
        finite = np.isfinite(all_distances)
        all_starts = all_starts[finite]
        all_distances = all_distances[finite]
        order = np.argsort(all_starts, kind="stable")
        all_starts = all_starts[order]
        all_distances = all_distances[order]
        with obs.span("k_select", self.backend):
            top = self.backend.k_select(all_distances, k)
        after_select = self.backend.elapsed_s
        answer_starts = all_starts[top]
        answer_distances = all_distances[top]
        self._previous_knn[d] = answer_starts.copy()
        obs.observe_search(
            d,
            int(starts.size),
            int(unfiltered.size),
            candidates_verified=int(seed_starts.size + to_verify.size),
            pruned_kim=pruned_kim,
            pruned_window=pruned_window,
        )

        return SuffixKnnAnswer(
            item_length=d,
            starts=answer_starts,
            distances=answer_distances,
            candidates_total=int(starts.size),
            candidates_unfiltered=int(unfiltered.size),
            candidates_verified=int(seed_starts.size + to_verify.size),
            pruned_kim=pruned_kim,
            pruned_window=pruned_window,
            verification_sim_s=after_verify - before,
            selection_sim_s=after_select - after_verify,
        )
