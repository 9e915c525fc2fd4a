"""Time series containers and segment arithmetic.

The paper (Section 3.1) models a sensor stream as a plain sequence of
equally spaced observations ``C = {c_0, c_1, ...}``.  A *segment*
``C_{t,d}`` is the d-length contiguous slice starting at ``t``.  At time
``t0`` the h-step-ahead prediction maps the d-length segment ending at
``t0`` to the value at ``t0 + h``.

This module provides:

* :class:`TimeSeries` — an append-friendly container over a float array,
* :class:`ZNormStats` — one stream's z-normalisation arithmetic,
* :func:`segment_matrix` — the ``(X_{k,d}, Y_h)`` design-matrix builder
  used to assemble GP training sets from raw history,
* :func:`sliding_segments` — a zero-copy view of every d-length segment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..tolerances import STD_FLOOR

__all__ = [
    "TimeSeries",
    "ZNormStats",
    "segment_matrix",
    "sliding_segments",
    "train_test_split_tail",
]


@dataclass(frozen=True)
class ZNormStats:
    """One stream's mean/std; (de-)normalising is plain arithmetic: float in, out."""

    mean: float
    std: float

    @classmethod
    def of(cls, values: np.ndarray) -> ZNormStats:
        """The stats of ``values``, std floored at ``STD_FLOOR``."""
        return cls(float(np.mean(values)), max(float(np.std(values)), STD_FLOOR))

    def apply(self, values):
        """``values`` z-normalised."""
        return (values - self.mean) / self.std

    def invert(self, values):
        """z-normalised ``values`` mapped back to the raw scale."""
        return values * self.std + self.mean

    def invert_variance(self, variances):
        """Predictive variances mapped back to the raw scale."""
        return variances * self.std**2


class TimeSeries:
    """A single sensor's observation stream.

    Supports O(1) amortised :meth:`append` (continuous prediction feeds one
    point per step) while exposing the data as a contiguous NumPy view.

    Parameters
    ----------
    values:
        Initial observations, oldest first.
    sensor_id:
        Free-form identifier used in reports.
    """

    def __init__(self, values=(), sensor_id: str = "sensor-0") -> None:
        initial = np.asarray(list(values), dtype=np.float64)
        capacity = max(64, 2 * initial.size)
        self._buffer = np.empty(capacity, dtype=np.float64)
        self._buffer[: initial.size] = initial
        self._length = int(initial.size)
        self.sensor_id = sensor_id

    # ------------------------------------------------------------------ core
    def __len__(self) -> int:
        return self._length

    @property
    def values(self) -> np.ndarray:
        """Read-only contiguous view of the observations."""
        view = self._buffer[: self._length]
        view.flags.writeable = False
        return view

    def __getitem__(self, item):
        return self.values[item]

    def append(self, value: float) -> None:
        """Push the newest observation (continuous prediction step)."""
        if self._length == self._buffer.size:
            grown = np.empty(2 * self._buffer.size, dtype=np.float64)
            grown[: self._length] = self._buffer[: self._length]
            self._buffer = grown
        self._buffer[self._length] = float(value)
        self._length += 1

    def extend(self, values) -> None:
        """Push several observations, oldest first."""
        for value in np.asarray(values, dtype=np.float64).ravel():
            self.append(value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TimeSeries({self.sensor_id!r}, n={self._length})"


def sliding_segments(values: np.ndarray, length: int) -> np.ndarray:
    """All d-length segments of ``values`` as a zero-copy 2-D view.

    Row ``t`` is the segment ``C_{t,d}``; there are ``n - d + 1`` rows.
    """
    values = np.asarray(values, dtype=np.float64)
    if length <= 0 or length > values.size:
        raise ValueError(
            f"segment length {length} invalid for series of size {values.size}"
        )
    return sliding_window_view(values, length)


def segment_matrix(
    values: np.ndarray, length: int, horizon: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build the supervised pairs ``(X, y)`` for h-step-ahead prediction.

    Row ``j`` of ``X`` is the segment starting at ``starts[j]`` and ``y[j]``
    is its h-step-ahead value ``c_{starts[j] + d - 1 + h}`` (Section 3.2.1).
    Only segments whose target exists are returned.

    Returns
    -------
    (X, y, starts):
        ``X`` has shape ``(m, length)``, ``y`` shape ``(m,)`` and ``starts``
        the segment start indices.
    """
    values = np.asarray(values, dtype=np.float64)
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    usable = values.size - length - horizon + 1
    if usable <= 0:
        raise ValueError(
            f"series of size {values.size} too short for segments of length "
            f"{length} with horizon {horizon}"
        )
    segments = sliding_segments(values, length)[:usable]
    starts = np.arange(usable)
    targets = values[length + horizon - 1 : length + horizon - 1 + usable]
    return segments, targets, starts


def train_test_split_tail(
    values: np.ndarray, test_points: int
) -> tuple[np.ndarray, np.ndarray]:
    """Leave-out split used in Section 6.3.1: cut the tail for testing."""
    values = np.asarray(values, dtype=np.float64)
    if not 0 < test_points < values.size:
        raise ValueError(
            f"test_points must be in (0, {values.size}), got {test_points}"
        )
    return values[:-test_points], values[-test_points:]
