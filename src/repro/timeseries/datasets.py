"""Dataset registry mirroring the paper's ROAD / MALL / NET evaluation data.

A :class:`SensorDataset` bundles many sensors' z-normalised streams plus
the leave-out split of Section 6.3.1 (a tail segment of each sensor is
held out and predicted continuously).  The registry exposes the three
synthetic stand-ins at configurable scale, so tests run in milliseconds
while benchmarks can approach paper scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generators import mall_like, net_like, road_like
from .series import TimeSeries, ZNormStats, train_test_split_tail

__all__ = ["SensorDataset", "DATASET_NAMES", "make_dataset"]

DATASET_NAMES = ("ROAD", "MALL", "NET")


@dataclass
class SensorDataset:
    """A named collection of z-normalised sensor streams with tail splits.

    Attributes
    ----------
    name:
        Dataset identifier (``ROAD``/``MALL``/``NET`` or custom).
    history:
        Per-sensor training streams (z-normalised).
    test_tails:
        Per-sensor held-out tails (z-normalised, same stats as history).
    norm_stats:
        Per-sensor z-normalisation statistics (computed on the full
        stream, as the paper normalises whole series).
    """

    name: str
    history: list[TimeSeries]
    test_tails: list[np.ndarray]
    norm_stats: list[ZNormStats]

    @property
    def n_sensors(self) -> int:
        """Number of sensors in the collection."""
        return len(self.history)

    def sensor(self, index: int) -> tuple[TimeSeries, np.ndarray]:
        """Return ``(history, test_tail)`` for one sensor."""
        return self.history[index], self.test_tails[index]


_GENERATORS = {
    "ROAD": road_like,
    "MALL": mall_like,
    "NET": net_like,
}


def make_dataset(
    name: str,
    n_sensors: int = 8,
    n_points: int = 4096,
    test_points: int = 256,
    seed: int = 0,
) -> SensorDataset:
    """Build one of the three synthetic datasets, z-normalised and split.

    Parameters
    ----------
    name:
        One of ``ROAD``, ``MALL``, ``NET`` (case-insensitive).
    n_sensors, n_points:
        Fleet size and stream length (paper scale: ~1000 x ~60000; tests
        use small values, benchmarks larger ones).
    test_points:
        Tail length held out per sensor for continuous-prediction testing.
    seed:
        Generator seed; the dataset name is mixed in so the three datasets
        differ even with equal seeds.
    """
    key = name.upper()
    if key not in _GENERATORS:
        raise KeyError(f"unknown dataset {name!r}; expected one of {DATASET_NAMES}")
    if test_points >= n_points:
        raise ValueError(
            f"test_points ({test_points}) must be smaller than n_points ({n_points})"
        )
    raw_sensors = _GENERATORS[key](
        n_sensors, n_points, seed=seed + 7919 * DATASET_NAMES.index(key)
    )

    history: list[TimeSeries] = []
    tails: list[np.ndarray] = []
    stats: list[ZNormStats] = []
    for idx, raw in enumerate(raw_sensors):
        zstats = ZNormStats.of(raw)
        train, test = train_test_split_tail(zstats.apply(raw), test_points)
        history.append(TimeSeries(train, sensor_id=f"{key.lower()}-{idx}"))
        tails.append(test)
        stats.append(zstats)
    return SensorDataset(name=key, history=history, test_tails=tails, norm_stats=stats)
