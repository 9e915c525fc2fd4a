"""Smart-city fleet: many traffic sensors on one (simulated) GPU.

The paper's motivating scenario (Example 1.1): a city operates hundreds
of road sensors and wants real-time short-term forecasts for all of them
without ever training a global model.  This example:

1. registers a fleet of road sensors with one prediction service on a
   simulated 6 GB device,
2. runs continuous prediction for the whole fleet (``forecast_all`` then
   ``ingest_many`` per step),
3. reports per-sensor accuracy, the device's simulated search time and
   its memory ledger,
4. estimates how many one-year sensors a single card could host
   (the Fig. 12(c) capacity analysis).

Run with::

    python examples/traffic_fleet.py
"""

import numpy as np

from repro import PredictionService, SMiLer, SMiLerConfig
from repro.backend import SimulatedGpuBackend
from repro.harness import format_seconds, render_table
from repro.metrics import mae
from repro.timeseries import make_dataset

N_SENSORS = 4
STEPS = 25


def main() -> None:
    dataset = make_dataset(
        "ROAD", n_sensors=N_SENSORS, n_points=2500, test_points=STEPS
    )
    config = SMiLerConfig(predictor="ar")  # AR keeps the fleet demo snappy
    device = SimulatedGpuBackend()
    service = PredictionService(config, backends=device)
    ids = [series.sensor_id for series in dataset.history]
    for sensor_id, series in zip(ids, dataset.history):
        service.register(sensor_id, series.values)

    errors: dict[str, list[float]] = {sensor_id: [] for sensor_id in ids}
    for step in range(STEPS):
        forecasts = service.forecast_all(horizon=1)
        truths = {
            sensor_id: float(tail[step])
            for sensor_id, tail in zip(ids, dataset.test_tails)
        }
        for sensor_id, truth in truths.items():
            errors[sensor_id].append(abs(forecasts[sensor_id].mean - truth))
        service.ingest_many(truths)

    rows = []
    for sensor_id, tail in zip(ids, dataset.test_tails):
        truth_tail = tail[:STEPS]
        pred_mae = float(np.mean(errors[sensor_id]))
        naive = mae(truth_tail[1:], truth_tail[:-1])  # persistence baseline
        rows.append([sensor_id, f"{pred_mae:.4f}", f"{naive:.4f}"])
    print(render_table(
        ["sensor", "SMiLer MAE", "persistence MAE"], rows,
        title=f"Fleet of {N_SENSORS} road sensors, {STEPS} continuous steps",
    ))

    print()
    print(f"simulated GPU time (search kernels): "
          f"{format_seconds(device.elapsed_s)}")
    print(f"device memory in use: {device.allocated_bytes / 1e6:.1f} MB "
          f"of {device.spec.memory_bytes / 1e9:.1f} GB")

    per_sensor = SMiLer.estimate_memory_bytes(52_560)  # one year at 10-minute sampling
    capacity = device.spec.memory_bytes // per_sensor
    print(f"capacity estimate: ~{capacity} one-year sensors per 6 GB card "
          "(Fig. 12(c))")


if __name__ == "__main__":
    main()
