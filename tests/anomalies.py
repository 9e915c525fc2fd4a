"""Synthetic anomaly injection, a test fixture.

The failure-injection and suffix-search tests need controlled
disruptions in otherwise ordinary streams.  Each injector returns a
modified *copy* plus the ground-truth mask of affected positions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Injection", "inject_spike", "inject_level_shift", "inject_dropout"]


@dataclass(frozen=True)
class Injection:
    """An anomaly-injected stream plus its ground truth."""

    values: np.ndarray
    mask: np.ndarray  # True where the stream was modified

    @property
    def n_affected(self) -> int:
        """Number of modified positions."""
        return int(self.mask.sum())


def _prepare(values, start: int, length: int) -> tuple[np.ndarray, np.ndarray]:
    values = np.asarray(values, dtype=np.float64).copy()
    if length <= 0:
        raise ValueError(f"length must be positive, got {length}")
    if not 0 <= start < values.size:
        raise IndexError(f"start {start} out of range for {values.size} points")
    mask = np.zeros(values.size, dtype=bool)
    mask[start : start + length] = True
    return values, mask


def inject_spike(
    values, start: int, magnitude: float, length: int = 1
) -> Injection:
    """Additive spike of ``magnitude`` over ``length`` points."""
    values, mask = _prepare(values, start, length)
    values[mask] += magnitude
    return Injection(values=values, mask=mask)


def inject_level_shift(values, start: int, magnitude: float) -> Injection:
    """Permanent level shift from ``start`` to the end of the stream."""
    values = np.asarray(values, dtype=np.float64).copy()
    if not 0 <= start < values.size:
        raise IndexError(f"start {start} out of range for {values.size} points")
    mask = np.zeros(values.size, dtype=bool)
    mask[start:] = True
    values[start:] += magnitude
    return Injection(values=values, mask=mask)


def inject_dropout(
    values, start: int, length: int, fill: float = 0.0
) -> Injection:
    """Sensor dropout: the affected span is replaced by ``fill``
    (a stuck-at-zero reading, the classic hardware failure)."""
    values, mask = _prepare(values, start, length)
    values[mask] = fill
    return Injection(values=values, mask=mask)
