"""Loading real sensor data: CSV files, re-interpolation.

The evaluation uses synthetic stand-ins, but a downstream user will feed
their own exports.  This module covers the common shapes:

* :func:`load_csv` — one sensor per column (or a chosen column), header
  optional, blank/NaN cells tolerated,
* :func:`save_csv` — the matching writer,
* :func:`fill_missing` — linear interpolation over NaN gaps (sensor
  feeds drop samples),
* :func:`reinterpolate` — resample to a different fixed rate.  The paper
  assumes a fixed sample rate per sensor and notes the user "can easily
  re-interpolate data if the sample rate is changed" — this is that
  helper.
"""

from __future__ import annotations

import csv
import pathlib

import numpy as np

from .series import TimeSeries

__all__ = [
    "load_csv",
    "save_csv",
    "fill_missing",
    "reinterpolate",
]


def _parse_cell(cell: str) -> float:
    cell = cell.strip()
    if not cell or cell.lower() in ("nan", "na", "null", "none"):
        return np.nan
    return float(cell)


def load_csv(
    path,
    column: int | str | None = None,
    has_header: bool | None = None,
) -> dict[str, TimeSeries]:
    """Load sensors from a CSV file (one sensor per column).

    ``column`` restricts to one column by index or header name.
    ``has_header=None`` sniffs: if the first row has any non-numeric
    cell it is treated as the header.
    """
    path = pathlib.Path(path)
    with path.open(newline="") as handle:
        rows = [row for row in csv.reader(handle) if row]
    if not rows:
        raise ValueError(f"{path} is empty")

    first = rows[0]
    if has_header is None:
        try:
            for cell in first:
                _parse_cell(cell)
            has_header = False
        except ValueError:
            has_header = True
    names = (
        [cell.strip() for cell in first]
        if has_header
        else [f"column-{i}" for i in range(len(first))]
    )
    data_rows = rows[1:] if has_header else rows
    if not data_rows:
        raise ValueError(f"{path} has a header but no data rows")

    if column is not None:
        if isinstance(column, str):
            if column not in names:
                raise KeyError(f"column {column!r} not in {names}")
            indices = [names.index(column)]
        else:
            if not 0 <= column < len(names):
                raise IndexError(f"column {column} out of range")
            indices = [int(column)]
    else:
        indices = list(range(len(names)))

    sensors: dict[str, TimeSeries] = {}
    for index in indices:
        values = np.array(
            [
                _parse_cell(row[index]) if index < len(row) else np.nan
                for row in data_rows
            ]
        )
        sensors[names[index]] = TimeSeries(values, sensor_id=names[index])
    return sensors


def save_csv(path, sensors: dict[str, TimeSeries] | dict[str, np.ndarray]) -> None:
    """Write sensors as CSV columns (ragged lengths padded with blanks)."""
    if not sensors:
        raise ValueError("nothing to save")
    path = pathlib.Path(path)
    names = list(sensors)
    columns = [np.asarray(getattr(s, "values", s)) for s in sensors.values()]
    length = max(c.size for c in columns)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(names)
        for i in range(length):
            writer.writerow(
                [
                    ("" if i >= c.size or np.isnan(c[i]) else repr(float(c[i])))
                    for c in columns
                ]
            )


def fill_missing(values: np.ndarray) -> np.ndarray:
    """Linearly interpolate NaN gaps (edges extended with nearest value)."""
    values = np.asarray(values, dtype=np.float64).copy()
    missing = np.isnan(values)
    if not missing.any():
        return values
    if missing.all():
        raise ValueError("cannot fill a series that is entirely missing")
    index = np.arange(values.size)
    values[missing] = np.interp(
        index[missing], index[~missing], values[~missing]
    )
    return values


def reinterpolate(values: np.ndarray, factor: float) -> np.ndarray:
    """Resample to ``factor`` times the original rate (linear).

    ``factor > 1`` upsamples (e.g. 2.0 halves the sample interval),
    ``factor < 1`` downsamples.  NaNs must be filled first.
    """
    values = np.asarray(values, dtype=np.float64)
    if factor <= 0:
        raise ValueError(f"factor must be positive, got {factor}")
    if values.size < 2:
        raise ValueError("need at least two points to reinterpolate")
    if np.isnan(values).any():
        raise ValueError("fill missing values before reinterpolating")
    n_new = max(2, int(round((values.size - 1) * factor)) + 1)
    old_grid = np.linspace(0.0, 1.0, values.size)
    new_grid = np.linspace(0.0, 1.0, n_new)
    return np.interp(new_grid, old_grid, values)
