"""Ablation studies for the design decisions DESIGN.md calls out.

Beyond the paper's own Fig. 11 ablation, these drivers isolate the
mechanisms the system leans on:

* :func:`run_warmstart_ablation` — the fixed-5-step warm-started CG of
  Section 5.2.2 versus cold-starting the GP hyperparameters each step,
* :func:`run_window_reuse_ablation` — the ring-buffer continuous update
  of Fig. 6 versus rebuilding the window-level index every step,
* :func:`run_parameter_sensitivity` — omega/rho sweeps around the
  paper's Table 2 defaults,
* :func:`run_history_tradeoff` — Section 6.4.1's space/accuracy trade:
  truncated history versus MAE and device capacity.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core.config import SMiLerConfig
from ..core.scaleout import truncate_history
from ..core.smiler import SMiLer
from ..gpu.costmodel import DeviceSpec
from ..index.suffix_search import SuffixKnnEngine, SuffixSearchConfig
from ..index.window_index import WindowLevelIndex
from ..timeseries.datasets import make_dataset
from .accuracy_experiments import AccuracyScale, index_memory_bytes, smiler_config
from .reporting import format_seconds, render_table
from .runner import SMiLerForecaster, run_continuous
from .search_experiments import SearchScale

__all__ = [
    "WarmstartAblation",
    "run_warmstart_ablation",
    "WindowReuseAblation",
    "run_window_reuse_ablation",
    "ParameterSensitivity",
    "run_parameter_sensitivity",
    "HistoryTradeoff",
    "run_history_tradeoff",
]


# --------------------------------------------------------------------------
# Warm-started online GP training
# --------------------------------------------------------------------------


@dataclass
class WarmstartAblation:
    """MAE + wall time of warm-started vs cold-started GP training."""

    warm_mae: float
    cold_mae: float
    warm_seconds_per_query: float
    cold_seconds_per_query: float

    def render(self) -> str:
        """Render this result as an aligned text table."""
        return render_table(
            ["variant", "MAE", "prediction time/query"],
            [
                ["warm-start (5-step CG)", f"{self.warm_mae:.4f}",
                 format_seconds(self.warm_seconds_per_query)],
                ["cold-start (full CG)", f"{self.cold_mae:.4f}",
                 format_seconds(self.cold_seconds_per_query)],
            ],
            title="Ablation: online GP training (Section 5.2.2)",
        )


class _ColdStartForecaster(SMiLerForecaster):
    """SMiLer-GP that re-seeds GP hyperparameters on every prediction."""

    def __init__(self, config: SMiLerConfig) -> None:
        super().__init__(config)
        self.name = "SMiLer-GP (cold)"

    def predict(self, context, horizon):
        """Gaussian h-step-ahead prediction (see BaseForecaster.predict)."""
        for cell in self.smiler.ensemble(horizon).cells:
            predictor = self.smiler.ensemble(horizon).state(cell).predictor
            if hasattr(predictor, "reset"):
                predictor.reset()
        return super().predict(context, horizon)


def run_warmstart_ablation(scale: AccuracyScale | None = None) -> WarmstartAblation:
    """Warm-started 5-step CG vs cold-start full CG (Section 5.2.2)."""
    scale = scale or AccuracyScale(datasets=("ROAD",))
    ds = make_dataset(
        "ROAD", n_sensors=scale.n_sensors, n_points=scale.n_points,
        test_points=scale.test_points, seed=scale.seed,
    )
    h = min(scale.horizons)
    warm_maes, cold_maes = [], []
    warm_times, cold_times = [], []
    for sensor in range(ds.n_sensors):
        history, tail = ds.sensor(sensor)
        # Warm: paper default (initial fit once, 5 CG steps after).
        warm = run_continuous(
            SMiLerForecaster(smiler_config(scale, "gp")),
            history.values, tail, horizons=(h,), n_steps=scale.steps,
        )
        # Cold: every step re-seeds and spends the full initial budget.
        cold = run_continuous(
            _ColdStartForecaster(smiler_config(scale, "gp")),
            history.values, tail, horizons=(h,), n_steps=scale.steps,
        )
        warm_maes.append(warm.horizons[h].mae)
        cold_maes.append(cold.horizons[h].mae)
        warm_times.append(warm.predict_seconds_per_query)
        cold_times.append(cold.predict_seconds_per_query)
    return WarmstartAblation(
        warm_mae=float(np.mean(warm_maes)),
        cold_mae=float(np.mean(cold_maes)),
        warm_seconds_per_query=float(np.mean(warm_times)),
        cold_seconds_per_query=float(np.mean(cold_times)),
    )


# --------------------------------------------------------------------------
# Ring reuse of the window-level index
# --------------------------------------------------------------------------


@dataclass
class WindowReuseAblation:
    """Simulated kernel time: ring update vs full rebuild per step."""

    step_sim_s: float
    rebuild_sim_s: float

    def render(self) -> str:
        """Render this result as an aligned text table."""
        return render_table(
            ["variant", "window-level sim time/step"],
            [
                ["ring update (Fig. 6)", format_seconds(self.step_sim_s)],
                ["full rebuild", format_seconds(self.rebuild_sim_s)],
            ],
            title="Ablation: continuous window-index reuse (Remark 1)",
        )


def run_window_reuse_ablation(
    scale: SearchScale | None = None,
) -> WindowReuseAblation:
    """Ring update (Fig. 6) vs rebuilding the window index per step."""
    scale = scale or SearchScale()
    ds = make_dataset(
        "ROAD", n_sensors=1,
        n_points=scale.n_points + scale.continuous_steps,
        test_points=scale.continuous_steps, seed=scale.seed,
    )
    history, tail = ds.sensor(0)
    master_len = max(scale.item_lengths)

    # Ring updates.
    ring_device = scale.backend()
    ring = WindowLevelIndex(
        history.values, master_len, scale.omega, scale.rho, backend=ring_device
    )
    ring.build(history.values[-master_len:])
    before = ring_device.elapsed_s
    for point in tail:
        ring.step(float(point))
    step_time = (ring_device.elapsed_s - before) / scale.continuous_steps

    # Rebuild from scratch each step.
    rebuild_device = scale.backend()
    stream = np.asarray(history.values, dtype=np.float64)
    before = rebuild_device.elapsed_s
    for point in tail:
        stream = np.append(stream, float(point))
        fresh = WindowLevelIndex(
            stream, master_len, scale.omega, scale.rho, backend=rebuild_device
        )
        fresh.build(stream[-master_len:])
    rebuild_time = (rebuild_device.elapsed_s - before) / scale.continuous_steps
    return WindowReuseAblation(step_sim_s=step_time, rebuild_sim_s=rebuild_time)


# --------------------------------------------------------------------------
# omega / rho sensitivity
# --------------------------------------------------------------------------


@dataclass
class ParameterSensitivity:
    """Search cost and filtering quality around the Table 2 defaults."""

    #: rows: ``(omega, rho, unfiltered/query, sim seconds/step)``
    rows: list[tuple[int, int, float, float]]

    def render(self) -> str:
        """Render this result as an aligned text table."""
        return render_table(
            ["omega", "rho", "unfiltered/query", "search sim time/step"],
            [
                [o, r, f"{u:.0f}", format_seconds(t)]
                for o, r, u, t in self.rows
            ],
            title="Ablation: omega/rho sensitivity (Table 2 defaults: 16/8)",
        )


def run_parameter_sensitivity(
    scale: SearchScale | None = None,
    omegas: tuple[int, ...] = (8, 16, 32),
    rhos: tuple[int, ...] = (4, 8, 16),
) -> ParameterSensitivity:
    """Sweep omega/rho around the paper's Table 2 defaults."""
    scale = scale or SearchScale()
    ds = make_dataset(
        "ROAD", n_sensors=1,
        n_points=scale.n_points + scale.continuous_steps,
        test_points=scale.continuous_steps, seed=scale.seed,
    )
    history, tail = ds.sensor(0)
    rows = []
    for omega in omegas:
        for rho in rhos:
            if min(scale.item_lengths) < omega:
                continue
            device = scale.backend()
            config = SuffixSearchConfig(
                item_lengths=scale.item_lengths, k_max=32,
                omega=omega, rho=rho, margin=1,
            )
            engine = SuffixKnnEngine(history.values, config, backend=device)
            engine.search()
            before = device.elapsed_s
            unfiltered, queries = 0, 0
            for point in tail:
                for answer in engine.step(float(point)).values():
                    unfiltered += answer.candidates_unfiltered
                    queries += 1
            rows.append(
                (
                    omega, rho, unfiltered / queries,
                    (device.elapsed_s - before) / scale.continuous_steps,
                )
            )
    return ParameterSensitivity(rows=rows)


# --------------------------------------------------------------------------
# History truncation trade-off
# --------------------------------------------------------------------------


@dataclass
class HistoryTradeoff:
    """MAE and memory against the kept history fraction."""

    #: rows: ``(fraction, mae, memory_bytes, sensors_per_gpu)``
    rows: list[tuple[float, float, int, int]]

    def render(self) -> str:
        """Render this result as an aligned text table."""
        return render_table(
            ["history kept", "MAE", "index bytes/sensor", "sensors/6GB GPU"],
            [
                [f"{f:.0%}", f"{m:.4f}", b, c]
                for f, m, b, c in self.rows
            ],
            title="Ablation: history size vs accuracy vs capacity "
            "(Section 6.4.1 trade-off)",
        )


def run_history_tradeoff(
    scale: AccuracyScale | None = None,
    fractions: tuple[float, ...] = (0.1, 0.25, 0.5, 1.0),
) -> HistoryTradeoff:
    """Accuracy and device capacity vs kept history (Section 6.4.1)."""
    scale = scale or AccuracyScale(datasets=("ROAD",))
    ds = make_dataset(
        "ROAD", n_sensors=scale.n_sensors, n_points=scale.n_points,
        test_points=scale.test_points, seed=scale.seed,
    )
    h = min(scale.horizons)
    spec = DeviceSpec()
    rows = []
    for fraction in fractions:
        maes = []
        memory = 0
        for sensor in range(ds.n_sensors):
            history, tail = ds.sensor(sensor)
            kept = truncate_history(history.values, fraction)
            result = run_continuous(
                SMiLerForecaster(smiler_config(scale, "ar")),
                kept, tail, horizons=(h,), n_steps=scale.steps,
            )
            maes.append(result.horizons[h].mae)
            memory = index_memory_bytes(kept.size)
        capacity = int(spec.memory_bytes // memory)
        rows.append((fraction, float(np.mean(maes)), memory, capacity))
    return HistoryTradeoff(rows=rows)
