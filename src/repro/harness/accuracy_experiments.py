"""Prediction-step experiments: Figs. 9-13 and Table 4 (Sections 6.3-6.4).

Accuracy numbers (MAE / MNLPD) are real measurements on the synthetic
datasets; running times are wall-clock of this Python implementation
(Table 4 / Fig. 12-13 in the paper are C++/CUDA wall-clock — absolute
values differ, orderings and growth shapes are what we reproduce).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..backend.simulated import SimulatedGpuBackend
from ..baselines.base import BaseForecaster
from ..baselines.gp_offline import PSGPForecaster, VLGPForecaster
from ..baselines.holt_winters import HoltWintersForecaster
from ..baselines.lazy_knn import LazyKNNForecaster
from ..baselines.nystrom_svr import NysSVRForecaster
from ..baselines.sgd_linear import (
    OnlineRRForecaster,
    OnlineSVRForecaster,
    SgdRRForecaster,
    SgdSVRForecaster,
)
from ..core.config import SMiLerConfig
from ..core.smiler import SMiLer
from ..gp.sparse import ProjectedSparseGP
from ..gpu.costmodel import DeviceSpec
from ..timeseries.datasets import DATASET_NAMES, make_dataset
from ..timeseries.generators import POINTS_PER_DAY
from ..timeseries.series import segment_matrix
from .reporting import format_seconds, render_series, render_table
from .runner import RunResult, SMiLerForecaster, run_continuous

__all__ = [
    "AccuracyScale",
    "smiler_config",
    "offline_competitors",
    "online_competitors",
    "AccuracyResult",
    "run_accuracy",
    "run_fig9",
    "run_fig10",
    "run_fig11",
    "Table4Result",
    "run_table4",
    "Fig12Result",
    "run_fig12",
    "Fig13Result",
    "run_fig13",
]


@dataclass(frozen=True)
class AccuracyScale:
    """Workload size for the prediction experiments.

    Paper scale: 200-step continuous prediction over 1000 held-out points
    per sensor, h up to 30.  Defaults are laptop scale; benchmarks raise
    them.
    """

    n_sensors: int = 2
    n_points: int = 3000
    test_points: int = 80
    steps: int = 60
    horizons: tuple[int, ...] = (1, 5, 10)
    seed: int = 0
    segment_length: int = 64  # the d used by fixed-d competitors
    datasets: tuple[str, ...] = DATASET_NAMES


def smiler_config(
    scale: AccuracyScale,
    predictor: str = "gp",
    ensemble: bool = True,
    self_adaptive: bool = True,
) -> SMiLerConfig:
    """Paper-default SMiLer configuration at the experiment's horizons."""
    return SMiLerConfig(
        horizons=scale.horizons,
        predictor=predictor,
        ensemble=ensemble,
        self_adaptive=self_adaptive,
    )


def offline_competitors(scale: AccuracyScale) -> list[Callable[[], BaseForecaster]]:
    """Factories for the offline (eager) group of Fig. 9 / Table 4."""
    d, hs = scale.segment_length, scale.horizons
    return [
        lambda: PSGPForecaster(
            segment_length=d, horizons=hs, n_support=32,
            train_iters=20, max_train=800,
        ),
        lambda: VLGPForecaster(
            segment_length=d, horizons=hs, n_support=32,
            train_iters=20, max_train=800,
        ),
        lambda: NysSVRForecaster(segment_length=d, horizons=hs, rank=128),
        lambda: SgdSVRForecaster(segment_length=d, horizons=hs),
        lambda: SgdRRForecaster(segment_length=d, horizons=hs),
    ]


def online_competitors(scale: AccuracyScale) -> list[Callable[[], BaseForecaster]]:
    """Factories for the online group of Fig. 10 / Table 4."""
    d, hs = scale.segment_length, scale.horizons
    period = POINTS_PER_DAY
    return [
        lambda: LazyKNNForecaster(segment_length=d, k=32, rho=8),
        lambda: HoltWintersForecaster(period=period, refit_every=4),
        lambda: HoltWintersForecaster(
            period=period, window=10 * period, refit_every=4
        ),
        lambda: OnlineSVRForecaster(segment_length=d, horizons=hs),
        lambda: OnlineRRForecaster(segment_length=d, horizons=hs),
    ]


def smiler_factories(scale: AccuracyScale) -> list[Callable[[], BaseForecaster]]:
    """Factories for SMiLer-GP and SMiLer-AR at this scale."""
    return [
        lambda: SMiLerForecaster(smiler_config(scale, predictor="gp")),
        lambda: SMiLerForecaster(smiler_config(scale, predictor="ar")),
    ]


# --------------------------------------------------------------------------
# Figs. 9 / 10 / 11: MAE + MNLPD vs horizon
# --------------------------------------------------------------------------


@dataclass
class AccuracyResult:
    """Per-dataset MAE and MNLPD series over horizons, per method."""

    title: str
    horizons: tuple[int, ...]
    #: ``mae_series[dataset][method] = [mae at each horizon]``
    mae_series: dict[str, dict[str, list[float]]]
    mnlpd_series: dict[str, dict[str, list[float]]]
    runs: dict[str, list[RunResult]] = field(default_factory=dict, repr=False)

    def render(self) -> str:
        """Render this result as an aligned text table."""
        blocks = []
        for dataset in self.mae_series:
            blocks.append(
                render_series(
                    "h", list(self.horizons), self.mae_series[dataset],
                    title=f"{self.title} — MAE on {dataset}",
                )
            )
            blocks.append(
                render_series(
                    "h", list(self.horizons), self.mnlpd_series[dataset],
                    title=f"{self.title} — MNLPD on {dataset}",
                )
            )
        return "\n\n".join(blocks)

    def method_mae(self, dataset: str, method: str) -> np.ndarray:
        """MAE series of one method on one dataset."""
        return np.asarray(self.mae_series[dataset][method])

    def method_mnlpd(self, dataset: str, method: str) -> np.ndarray:
        """MNLPD series of one method on one dataset."""
        return np.asarray(self.mnlpd_series[dataset][method])


def run_accuracy(
    factories: list[Callable[[], BaseForecaster]],
    scale: AccuracyScale,
    title: str,
) -> AccuracyResult:
    """Continuous prediction for every (dataset, sensor, method)."""
    mae_series: dict[str, dict[str, list[float]]] = {}
    mnlpd_series: dict[str, dict[str, list[float]]] = {}
    all_runs: dict[str, list[RunResult]] = {}
    for dataset in scale.datasets:
        ds = make_dataset(
            dataset, n_sensors=scale.n_sensors, n_points=scale.n_points,
            test_points=scale.test_points, seed=scale.seed,
        )
        per_method_runs: dict[str, list[RunResult]] = {}
        for factory in factories:
            for sensor in range(ds.n_sensors):
                history, tail = ds.sensor(sensor)
                forecaster = factory()
                result = run_continuous(
                    forecaster, history.values, tail,
                    horizons=scale.horizons, n_steps=scale.steps,
                )
                per_method_runs.setdefault(result.method, []).append(result)
        mae_series[dataset] = {}
        mnlpd_series[dataset] = {}
        for method, runs in per_method_runs.items():
            mae_series[dataset][method] = [
                float(np.mean([r.horizons[h].mae for r in runs]))
                for h in scale.horizons
            ]
            mnlpd_series[dataset][method] = [
                float(np.mean([r.horizons[h].mnlpd for r in runs]))
                for h in scale.horizons
            ]
            all_runs.setdefault(method, []).extend(runs)
    return AccuracyResult(
        title=title, horizons=scale.horizons,
        mae_series=mae_series, mnlpd_series=mnlpd_series, runs=all_runs,
    )


def run_fig9(scale: AccuracyScale | None = None) -> AccuracyResult:
    """Fig. 9: SMiLer vs the offline learning models."""
    scale = scale or AccuracyScale()
    return run_accuracy(
        smiler_factories(scale) + offline_competitors(scale),
        scale,
        "Fig. 9 (offline models)",
    )


def run_fig10(scale: AccuracyScale | None = None) -> AccuracyResult:
    """Fig. 10: SMiLer vs the online learning models."""
    scale = scale or AccuracyScale()
    return run_accuracy(
        smiler_factories(scale) + online_competitors(scale),
        scale,
        "Fig. 10 (online models)",
    )


def run_fig11(scale: AccuracyScale | None = None) -> AccuracyResult:
    """Fig. 11: auto-tuning ablation (full vs NE vs NS, GP and AR)."""
    scale = scale or AccuracyScale()
    factories = []
    for predictor in ("gp", "ar"):
        factories.extend(
            [
                lambda p=predictor: SMiLerForecaster(smiler_config(scale, p)),
                lambda p=predictor: SMiLerForecaster(
                    smiler_config(scale, p, ensemble=False)
                ),
                lambda p=predictor: SMiLerForecaster(
                    smiler_config(scale, p, self_adaptive=False)
                ),
            ]
        )
    return run_accuracy(factories, scale, "Fig. 11 (auto-tuning ablation)")


# --------------------------------------------------------------------------
# Table 4: running time comparison
# --------------------------------------------------------------------------


@dataclass
class Table4Result:
    """Training and prediction wall time per dataset and method."""

    #: ``data[dataset][method] = (train_seconds_total, predict_s_per_query)``
    data: dict[str, dict[str, tuple[float, float]]]

    def render(self) -> str:
        """Render this result as an aligned text table."""
        methods: list[str] = []
        for per_dataset in self.data.values():
            for method in per_dataset:
                if method not in methods:
                    methods.append(method)
        headers = ["method"]
        for dataset in self.data:
            headers.extend([f"{dataset} trn", f"{dataset} prd"])
        rows = []
        for method in methods:
            row = [method]
            for dataset in self.data:
                trn, prd = self.data[dataset].get(method, (np.nan, np.nan))
                row.extend([format_seconds(trn), format_seconds(prd)])
            rows.append(row)
        return render_table(
            headers, rows,
            title="Table 4: running time (wall-clock; trn = total training "
            "for all sensors, prd = per sensor per query)",
        )


def run_table4(scale: AccuracyScale | None = None) -> Table4Result:
    """Training + prediction time for all twelve methods."""
    scale = scale or AccuracyScale()
    factories = (
        smiler_factories(scale)
        + online_competitors(scale)
        + offline_competitors(scale)
    )
    data: dict[str, dict[str, tuple[float, float]]] = {}
    for dataset in scale.datasets:
        ds = make_dataset(
            dataset, n_sensors=scale.n_sensors, n_points=scale.n_points,
            test_points=scale.test_points, seed=scale.seed,
        )
        per_method: dict[str, tuple[float, float]] = {}
        for factory in factories:
            fit_total = 0.0
            predict_times = []
            method = None
            for sensor in range(ds.n_sensors):
                history, tail = ds.sensor(sensor)
                forecaster = factory()
                result = run_continuous(
                    forecaster, history.values, tail,
                    horizons=(min(scale.horizons),), n_steps=scale.steps,
                )
                method = result.method
                # SMiLer has no training phase — the paper reports "-".
                if getattr(forecaster, "is_offline", False):
                    fit_total += result.fit_seconds
                predict_times.append(result.predict_seconds_per_query)
            per_method[method] = (fit_total, float(np.mean(predict_times)))
        data[dataset] = per_method
    return Table4Result(data=data)


# --------------------------------------------------------------------------
# Fig. 12: scalability of SMiLer
# --------------------------------------------------------------------------


@dataclass
class Fig12Result:
    """(a)(b) per-step time; (c) max sensors per 6 GB GPU."""

    #: ``step_times[dataset][predictor] = (search_sim_s, predict_wall_s)``
    step_times: dict[str, dict[str, tuple[float, float]]]
    #: ``capacity[dataset] = max sensors on one 6 GB device``
    capacity: dict[str, int]
    points_per_sensor: int

    def render(self) -> str:
        """Render this result as an aligned text table."""
        rows = []
        for dataset, per_pred in self.step_times.items():
            for predictor, (search_s, predict_s) in per_pred.items():
                rows.append(
                    [dataset, predictor, format_seconds(search_s),
                     format_seconds(predict_s)]
                )
        block_a = render_table(
            ["dataset", "predictor", "search (sim device)", "step wall (search+predict)"],
            rows,
            title="Fig. 12(a)(b): per-step cost, all sensors",
        )
        block_c = render_table(
            ["dataset", "max sensors per 6GB GPU"],
            [[d, c] for d, c in self.capacity.items()],
            title=(
                f"Fig. 12(c): capacity at {self.points_per_sensor} points "
                "per sensor (one year of history)"
            ),
        )
        return block_a + "\n\n" + block_c


def run_fig12(
    scale: AccuracyScale | None = None,
    points_per_sensor: int = 52_560,
) -> Fig12Result:
    """Per-step cost of SMiLer-AR / SMiLer-GP + device capacity."""
    scale = scale or AccuracyScale()
    step_times: dict[str, dict[str, tuple[float, float]]] = {}
    capacity: dict[str, int] = {}
    spec = DeviceSpec()
    for dataset in scale.datasets:
        ds = make_dataset(
            dataset, n_sensors=scale.n_sensors, n_points=scale.n_points,
            test_points=scale.test_points, seed=scale.seed,
        )
        step_times[dataset] = {}
        for predictor in ("ar", "gp"):
            config = smiler_config(scale, predictor=predictor)
            search_sim = 0.0
            predict_wall = 0.0
            steps = min(scale.steps, scale.test_points)
            for sensor in range(ds.n_sensors):
                history, tail = ds.sensor(sensor)
                # Paper figures need the cost model: pin the simulated backend
                # regardless of the process-default backend.
                smiler = SMiLer(
                    history.values, config,
                    backend=SimulatedGpuBackend(),
                )
                before_sim = smiler.backend.elapsed_s
                t0 = time.perf_counter()
                for point in tail[:steps]:
                    smiler.predict(horizon=min(scale.horizons))
                    smiler.observe(float(point))
                predict_wall += time.perf_counter() - t0
                search_sim += smiler.backend.elapsed_s - before_sim
            step_times[dataset][f"SMiLer-{predictor.upper()}"] = (
                search_sim / steps,
                predict_wall / steps,
            )
        per_sensor = SMiLer.estimate_memory_bytes(points_per_sensor)
        capacity[dataset] = int(spec.memory_bytes // per_sensor)
    return Fig12Result(
        step_times=step_times, capacity=capacity,
        points_per_sensor=points_per_sensor,
    )


# --------------------------------------------------------------------------
# Fig. 13: PSGP active points vs SMiLer-GP
# --------------------------------------------------------------------------


@dataclass
class Fig13Result:
    """PSGP cost/accuracy sweep against the flat SMiLer-GP reference."""

    active_points: tuple[int, ...]
    #: ``psgp[dataset] = (train_seconds per m, mae per m)``
    psgp: dict[str, tuple[list[float], list[float]]]
    smiler_mae: dict[str, float]

    def render(self) -> str:
        """Render this result as an aligned text table."""
        blocks = []
        for dataset, (times, maes) in self.psgp.items():
            series = {
                "PSGP train (s)": times,
                "PSGP MAE": maes,
                "SMiLer-GP MAE": [self.smiler_mae[dataset]] * len(times),
            }
            blocks.append(
                render_series(
                    "active points", list(self.active_points), series,
                    title=f"Fig. 13 ({dataset}): PSGP trade-off vs SMiLer-GP",
                )
            )
        return "\n\n".join(blocks)


def run_fig13(
    scale: AccuracyScale | None = None,
    active_points: tuple[int, ...] = (4, 8, 16, 32, 64, 128),
) -> Fig13Result:
    """Sweep PSGP's active points; compare cost and MAE to SMiLer-GP."""
    scale = scale or AccuracyScale()
    h = min(scale.horizons)
    psgp: dict[str, tuple[list[float], list[float]]] = {}
    smiler_mae: dict[str, float] = {}
    for dataset in scale.datasets:
        ds = make_dataset(
            dataset, n_sensors=scale.n_sensors, n_points=scale.n_points,
            test_points=scale.test_points, seed=scale.seed,
        )
        times: list[float] = []
        maes: list[float] = []
        for m in active_points:
            t_total, errors = 0.0, []
            for sensor in range(ds.n_sensors):
                history, tail = ds.sensor(sensor)
                x, y, _ = segment_matrix(history.values, scale.segment_length, h)
                t0 = time.perf_counter()
                model = ProjectedSparseGP(n_active=m, train_iters=20, seed=sensor)
                model.fit(x, y)
                t_total += time.perf_counter() - t0
                stream = list(history.values)
                for i in range(min(scale.steps, tail.size - h)):
                    segment = np.asarray(stream[-scale.segment_length :])
                    mean, _ = model.predict(segment[None, :])
                    errors.append(abs(float(mean[0]) - float(tail[i + h - 1])))
                    stream.append(float(tail[i]))
            times.append(t_total / scale.n_sensors)
            maes.append(float(np.mean(errors)))
        psgp[dataset] = (times, maes)

        smiler_errors = []
        for sensor in range(ds.n_sensors):
            history, tail = ds.sensor(sensor)
            forecaster = SMiLerForecaster(smiler_config(scale, predictor="gp"))
            result = run_continuous(
                forecaster, history.values, tail, horizons=(h,),
                n_steps=scale.steps,
            )
            smiler_errors.append(result.horizons[h].mae)
        smiler_mae[dataset] = float(np.mean(smiler_errors))
    return Fig13Result(
        active_points=tuple(active_points), psgp=psgp, smiler_mae=smiler_mae
    )
