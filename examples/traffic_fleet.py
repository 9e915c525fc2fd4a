"""Smart-city fleet: many traffic sensors on one (simulated) GPU.

The paper's motivating scenario (Example 1.1): a city operates hundreds
of road sensors and wants real-time short-term forecasts for all of them
without ever training a global model.  This example:

1. builds a fleet of road sensors sharing one simulated 6 GB device,
2. runs continuous prediction for the whole fleet,
3. reports per-sensor accuracy, the device's simulated search time and
   its memory ledger,
4. estimates how many one-year sensors a single card could host
   (the Fig. 12(c) capacity analysis).

Run with::

    python examples/traffic_fleet.py
"""

import numpy as np

from repro import SMiLer, SMiLerConfig, SensorFleet
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
    fleet = SensorFleet(
        [dataset.history[i].values for i in range(N_SENSORS)], config
    )

    errors: dict[int, list[float]] = {i: [] for i in range(N_SENSORS)}
    for step in range(STEPS):
        outputs = fleet.predict_all(horizon=1)
        truths = [dataset.test_tails[i][step] for i in range(N_SENSORS)]
        for i, (output, truth) in enumerate(zip(outputs, truths)):
            errors[i].append(abs(output[1].mean - float(truth)))
        fleet.observe_all(truths)

    rows = []
    for i in range(N_SENSORS):
        truth_tail = dataset.test_tails[i][:STEPS]
        pred_mae = float(np.mean(errors[i]))
        naive = mae(truth_tail[1:], truth_tail[:-1])  # persistence baseline
        rows.append(
            [dataset.history[i].sensor_id, f"{pred_mae:.4f}", f"{naive:.4f}"]
        )
    print(render_table(
        ["sensor", "SMiLer MAE", "persistence MAE"], rows,
        title=f"Fleet of {N_SENSORS} road sensors, {STEPS} continuous steps",
    ))

    device = fleet.backend
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
