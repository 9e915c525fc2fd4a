"""Search-step experiments: Table 3, Fig. 7 and Fig. 8 (Section 6.2).

All timings are *simulated* device seconds from the cost model (see
DESIGN.md's substitution table): the comparisons in these experiments are
driven by operation counts and parallel occupancy, which the model
accounts exactly, so winners and approximate ratios mirror the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..dtw.knn import fast_cpu_scan
from ..backend.base import kernel_seconds
from ..backend.simulated import SimulatedGpuBackend
from ..gpu.costmodel import CpuCostModel
from ..gpu.costmodel import DeviceSpec
from ..gpu.kernels import OPS_PER_DTW_CELL, OPS_PER_LB_TERM
from ..gpu.scan import fast_gpu_scan, gpu_scan
from ..index.direct import direct_lb_en
from ..index.suffix_search import SuffixKnnEngine, SuffixSearchConfig
from ..timeseries.datasets import DATASET_NAMES, make_dataset
from ..tolerances import FILTER_REL_SLACK
from .reporting import format_seconds, render_series, render_table

__all__ = [
    "SearchScale",
    "Table3Result",
    "run_table3",
    "Fig7Result",
    "run_fig7",
    "Fig8Result",
    "run_fig8",
]


@dataclass(frozen=True)
class SearchScale:
    """Workload size for the search experiments (paper scale is ~60M
    points over ~1000 sensors; defaults are laptop scale).

    ``launch_overhead_s`` defaults to zero here: the real system packs
    *all* sensors' work into each kernel launch ("we only need to create
    multiple SMiLer Indexes and invoke more blocks", Section 4.4), so
    per-sensor-per-step launch overhead amortizes to noise; our drivers
    loop per sensor, which would otherwise charge it hundreds of times.
    """

    n_sensors: int = 3
    n_points: int = 4000
    continuous_steps: int = 10
    seed: int = 0
    item_lengths: tuple[int, ...] = (32, 64, 96)
    omega: int = 16
    rho: int = 8
    launch_overhead_s: float = 0.0

    def backend(self) -> SimulatedGpuBackend:
        """A fresh simulated backend in the batched-fleet regime."""
        return SimulatedGpuBackend(
            spec=DeviceSpec(
                launch_overhead_s=self.launch_overhead_s, work_conserving=True
            )
        )


def _sensor_streams(dataset: str, scale: SearchScale) -> list[np.ndarray]:
    ds = make_dataset(
        dataset,
        n_sensors=scale.n_sensors,
        n_points=scale.n_points + scale.continuous_steps,
        test_points=scale.continuous_steps,
        seed=scale.seed,
    )
    return [
        (history.values, tail)
        for history, tail in (ds.sensor(i) for i in range(ds.n_sensors))
    ]


# --------------------------------------------------------------------------
# Table 3: effect of the enhanced lower bound LB_en
# --------------------------------------------------------------------------


@dataclass
class Table3Result:
    """Per dataset and LB mode: verification time + unfiltered candidates."""

    #: ``data[dataset][mode] = (verify_sim_seconds_total, avg_unfiltered)``
    data: dict[str, dict[str, tuple[float, float]]]

    def render(self) -> str:
        """Render this result as an aligned text table."""
        rows = []
        for mode in ("eq", "ec", "en"):
            row = [f"LB_{mode.upper()}" if mode != "en" else "LB_en"]
            for dataset in DATASET_NAMES:
                t, n = self.data[dataset][mode]
                row.extend([format_seconds(t), f"{n:.0f}"])
            rows.append(row)
        headers = ["bound"]
        for dataset in DATASET_NAMES:
            headers.extend([f"{dataset} time", f"{dataset} number"])
        return render_table(
            headers, rows,
            title="Table 3: effect of the enhanced lower bound LB_en "
            "(simulated verify time; unfiltered candidates per query per sensor)",
        )


#: Table 3's verify time off the per-kernel ledger (no k-selection).
TABLE3_KERNELS = ("dtw_verify", "search_lb_kim")


def run_table3(scale: SearchScale | None = None) -> Table3Result:
    """Continuous Suffix kNN Search under each bound variant."""
    scale = scale or SearchScale()
    data: dict[str, dict[str, tuple[float, float]]] = {}
    for dataset in DATASET_NAMES:
        streams = _sensor_streams(dataset, scale)
        data[dataset] = {}
        for mode in ("eq", "ec", "en"):
            total_time = 0.0
            total_unfiltered = 0
            total_queries = 0
            for history, tail in streams:
                config = SuffixSearchConfig(
                    item_lengths=scale.item_lengths,
                    k_max=32,
                    omega=scale.omega,
                    rho=scale.rho,
                    margin=1,
                    lb_mode=mode,
                )
                engine = SuffixKnnEngine(history, config, backend=scale.backend())
                engine.search()
                before = kernel_seconds(engine.backend, TABLE3_KERNELS)
                for point in tail:
                    answers = engine.step(float(point))
                    for answer in answers.values():
                        total_unfiltered += answer.candidates_unfiltered
                        total_queries += 1
                total_time += kernel_seconds(engine.backend, TABLE3_KERNELS) - before
            data[dataset][mode] = (
                total_time,
                total_unfiltered / max(total_queries, 1),
            )
    return Table3Result(data=data)


# --------------------------------------------------------------------------
# Fig. 7: Suffix kNN Search running time vs k
# --------------------------------------------------------------------------


@dataclass
class Fig7Result:
    """``times[dataset][method] = [seconds per step for each k]``."""

    ks: tuple[int, ...]
    times: dict[str, dict[str, list[float]]]

    def render(self) -> str:
        """Render this result as an aligned text table."""
        blocks = []
        for dataset, series in self.times.items():
            blocks.append(
                render_series(
                    "k", list(self.ks), series,
                    title=(
                        f"Fig. 7 ({dataset}): Suffix kNN Search time per "
                        "continuous step, all sensors (simulated seconds)"
                    ),
                    fmt="{:.6f}",
                )
            )
        return "\n\n".join(blocks)

    def speedup_over(self, dataset: str, method: str, baseline: str) -> float:
        """Geometric-mean speedup of ``method`` over ``baseline``."""
        a = np.asarray(self.times[dataset][method])
        b = np.asarray(self.times[dataset][baseline])
        return float(np.exp(np.mean(np.log(b / a))))


def _direct_suffix_knn(
    backend: SimulatedGpuBackend,
    master: np.ndarray,
    series: np.ndarray,
    item_lengths: tuple[int, ...],
    rho: int,
    k: int,
) -> None:
    """SMiLer-Dir: direct LB_en filter + verification, no index reuse."""
    bounds = direct_lb_en(backend, master, series, item_lengths, rho)
    segments_cache = {}
    for d, lb in bounds.items():
        query = master[master.size - d :]
        starts = np.arange(series.size - d - 1 + 1)
        lb = lb[starts]
        if d not in segments_cache:
            segments_cache[d] = sliding_window_view(series, d)
        segments = segments_cache[d]
        pool = min(max(4 * k, 64), starts.size)
        seeds = starts[np.argpartition(lb, pool - 1)[:pool]]
        seed_distances = backend.dtw_verification(query, segments[seeds], rho)
        tau = float(np.partition(seed_distances, min(k, pool) - 1)[min(k, pool) - 1])
        unfiltered = starts[lb <= tau * (1.0 + FILTER_REL_SLACK)]
        to_verify = np.setdiff1d(unfiltered, seeds)
        distances = backend.dtw_verification(query, segments[to_verify], rho)
        merged = np.concatenate([seed_distances, distances])
        backend.k_select(merged, min(k, merged.size))


def run_fig7(
    scale: SearchScale | None = None,
    ks: tuple[int, ...] = (16, 32, 64, 128),
    scan_steps: int = 1,
) -> Fig7Result:
    """All five methods, per dataset, per k.

    The scan baselines redo identical work every step (no reuse), so
    their per-step cost is measured over ``scan_steps`` steps only; the
    index is measured over the full continuous run because its reuse
    needs a warmed threshold.
    """
    scale = scale or SearchScale()
    scan_steps = max(1, min(scan_steps, scale.continuous_steps))
    times: dict[str, dict[str, list[float]]] = {}
    for dataset in DATASET_NAMES:
        streams = _sensor_streams(dataset, scale)
        methods = {
            name: [] for name in (
                "SMiLer-Idx", "SMiLer-Dir", "FastGPUScan", "GPUScan",
                "FastCPUScan",
            )
        }
        for k in ks:
            # --- SMiLer-Idx: continuous reuse --------------------------------
            device = scale.backend()
            step_time = 0.0
            for history, tail in streams:
                config = SuffixSearchConfig(
                    item_lengths=scale.item_lengths, k_max=k,
                    omega=scale.omega, rho=scale.rho, margin=1,
                )
                engine = SuffixKnnEngine(history, config, backend=device)
                engine.search()  # warm-up build (not part of per-step cost)
                before = device.elapsed_s
                for point in tail:
                    engine.step(float(point))
                step_time += device.elapsed_s - before
            methods["SMiLer-Idx"].append(step_time / scale.continuous_steps)

            # --- SMiLer-Dir, scans: no reuse, every step from scratch --------
            dir_device = scale.backend()
            fgpu_device = scale.backend()
            gpu_device = scale.backend()
            cpu = CpuCostModel()
            for history, tail in streams:
                stream = np.asarray(history, dtype=np.float64)
                for point in tail[:scan_steps]:
                    stream = np.append(stream, float(point))
                    master = stream[-max(scale.item_lengths) :]
                    _direct_suffix_knn(
                        dir_device, master, stream, scale.item_lengths,
                        scale.rho, k,
                    )
                    for d in scale.item_lengths:
                        query = stream[-d:]
                        body = stream[: stream.size - 1]
                        fast_gpu_scan(fgpu_device, query, body, k, scale.rho)
                        gpu_scan(gpu_device, query, body, k)
                        result = fast_cpu_scan(query, body, k, scale.rho)
                        cpu.execute(
                            result.stats.lb_positions * OPS_PER_LB_TERM
                            + result.stats.dtw_cells * OPS_PER_DTW_CELL
                        )
            denom = scan_steps
            methods["SMiLer-Dir"].append(dir_device.elapsed_s / denom)
            methods["FastGPUScan"].append(fgpu_device.elapsed_s / denom)
            methods["GPUScan"].append(gpu_device.elapsed_s / denom)
            methods["FastCPUScan"].append(cpu.elapsed_s / denom)
        times[dataset] = methods
    return Fig7Result(ks=tuple(ks), times=times)


# --------------------------------------------------------------------------
# Fig. 8: time to compute LB_en — index vs direct
# --------------------------------------------------------------------------


@dataclass
class Fig8Result:
    """``times[dataset] = (index_seconds_per_step, direct_seconds_per_step)``."""

    times: dict[str, tuple[float, float]]

    def render(self) -> str:
        """Render this result as an aligned text table."""
        rows = [
            [dataset, format_seconds(idx), format_seconds(direct),
             f"{direct / idx:.1f}x"]
            for dataset, (idx, direct) in self.times.items()
        ]
        return render_table(
            ["dataset", "SMiLer-Idx", "SMiLer-Dir", "speedup"],
            rows,
            title="Fig. 8: time to compute LB_en for all sensors "
            "(simulated seconds per continuous step)",
        )


def run_fig8(scale: SearchScale | None = None) -> Fig8Result:
    """Lower-bound computation only: two-level index vs direct scan."""
    scale = scale or SearchScale()
    times: dict[str, tuple[float, float]] = {}
    lb_kernels = ("window_index_build", "window_index_step", "group_index_sum")
    for dataset in DATASET_NAMES:
        streams = _sensor_streams(dataset, scale)
        index_device = scale.backend()
        direct_device = scale.backend()
        index_time = 0.0

        def _lb_time() -> float:
            return sum(
                index_device.cost.per_kernel_s.get(kn, 0.0) for kn in lb_kernels
            )

        for history, tail in streams:
            config = SuffixSearchConfig(
                item_lengths=scale.item_lengths, k_max=32,
                omega=scale.omega, rho=scale.rho, margin=1,
            )
            engine = SuffixKnnEngine(history, config, backend=index_device)
            engine.search()
            before = _lb_time()
            stream = np.asarray(history, dtype=np.float64)
            for point in tail:
                engine.step(float(point))
                stream = np.append(stream, float(point))
                master = stream[-max(scale.item_lengths) :]
                direct_lb_en(
                    direct_device, master, stream, scale.item_lengths, scale.rho
                )
            index_time += _lb_time() - before
        times[dataset] = (
            index_time / scale.continuous_steps,
            direct_device.elapsed_s / scale.continuous_steps,
        )
    return Fig8Result(times=times)
