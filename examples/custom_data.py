"""Bring your own data: CSV in, forecasts out.

Shows the full ingestion path a real deployment uses:

1. write a messy CSV (missing cells, irregular length) to disk,
2. load it with :func:`repro.timeseries.load_csv`,
3. repair gaps (:func:`fill_missing`) and re-interpolate to a uniform
   rate (:func:`reinterpolate`),
4. z-normalise, run SMiLer, and report forecasts on the raw scale.

Run with::

    python examples/custom_data.py
"""

import pathlib
import tempfile

import numpy as np

from repro import SMiLer, SMiLerConfig
from repro.timeseries import (
    TimeSeries,
    ZNormStats,
    fill_missing,
    load_csv,
    reinterpolate,
    save_csv,
)


def write_messy_export(path: pathlib.Path) -> None:
    """Fake a data-logger export: a daily cycle with dropped samples."""
    rng = np.random.default_rng(42)
    t = np.arange(2200.0)
    values = 20.0 + 8.0 * np.sin(2 * np.pi * t / 96) + 0.5 * rng.normal(size=t.size)
    values[rng.choice(t.size, size=60, replace=False)] = np.nan  # dropouts
    save_csv(path, {"temperature_c": values})


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "export.csv"
        write_messy_export(path)

        # --- ingest -------------------------------------------------------
        sensor = load_csv(path, column="temperature_c")["temperature_c"]
        raw = sensor.values
        n_missing = int(np.isnan(raw).sum())
        repaired = fill_missing(raw)
        # Pretend the logger sampled at 2x the rate we want.
        resampled = reinterpolate(repaired, 0.5)
        print(f"loaded {raw.size} rows ({n_missing} missing, repaired), "
              f"resampled to {resampled.size} points")

        # --- normalise + split --------------------------------------------
        series = TimeSeries(resampled, sensor_id="temperature_c")
        stats = ZNormStats.of(series.values)
        normalised = stats.apply(series.values)
        history, tail = normalised[:-30], normalised[-30:]

        # --- forecast ------------------------------------------------------
        smiler = SMiLer(history, SMiLerConfig(predictor="gp"))
        errors = []
        print("\nstep  forecast (°C)  actual (°C)")
        for step, truth_z in enumerate(tail):
            output = smiler.predict()[1]
            forecast_c = stats.invert(np.array([output.mean]))[0]
            actual_c = stats.invert(np.array([truth_z]))[0]
            if step % 5 == 0:
                print(f"{step:4d}      {forecast_c:8.2f}     {actual_c:8.2f}")
            errors.append(abs(forecast_c - actual_c))
            smiler.observe(float(truth_z))
        print(f"\nMAE on the raw scale: {np.mean(errors):.2f} °C "
              f"(sensor std {stats.std:.2f} °C)")


if __name__ == "__main__":
    main()
