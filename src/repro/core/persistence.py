"""Saving and restoring SMiLer state across process restarts.

A deployed SMiLer instance carries state worth keeping: the accrued
history, each horizon's auto-tuned ensemble matrix (weights, sleep
scheduler) and every GP cell's warm-started hyperparameters.  This
module serialises all of it to a single ``.npz`` archive, each GP
cell's remembered line-search step beside its hyperparameters (format
2; a format-1 archive, written before the step was kept, loads with
the step at 1.0).

The search index itself is *rebuilt* from the stored history on load —
it is a deterministic function of the series and configuration, and
rebuilding (one vectorised pass) is cheaper and far less error-prone
than serialising ring-buffer internals.  The restored instance therefore
predicts identically up to the index's stale-envelope slack, which tests
pin down.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import asdict, dataclass

import numpy as np

from ..backend.base import ComputeBackend
from .config import SMiLerConfig
from .gp_predictor import GaussianProcessPredictor
from .smiler import SMiLer

__all__ = [
    "SmilerSnapshot",
    "save_smiler",
    "load_snapshot",
    "build_smiler",
    "load_smiler",
]

_FORMAT_VERSION = 2
#: Archive formats :func:`load_snapshot` reads.
_READABLE_VERSIONS = (1, 2)


@dataclass
class SmilerSnapshot:
    """Parsed archive contents, not yet bound to any backend.

    Splitting parsing from construction lets admission control *estimate*
    the sensor's memory (``SMiLer.estimate_memory_bytes(snapshot.series.size,
    snapshot.config)``) and pick a backend before paying for the index
    build — one build per sensor, on the chosen backend.
    """

    sensor_id: str
    config: SMiLerConfig
    series: np.ndarray
    ensemble_state: dict[str, dict]
    gp_params: dict[str, np.ndarray]
    gp_steps: dict[str, float]
    path: pathlib.Path


def _cell_key(horizon: int, cell: tuple[int, int]) -> str:
    return f"h{horizon}_k{cell[0]}_d{cell[1]}"


def save_smiler(smiler: SMiLer, path) -> None:
    """Serialise a SMiLer instance to ``path`` (``.npz`` archive)."""
    path = pathlib.Path(path)
    config = smiler.config
    meta = {
        "format_version": _FORMAT_VERSION,
        "sensor_id": smiler.sensor_id,
        "config": asdict(config),
    }
    arrays: dict[str, np.ndarray] = {"series": np.asarray(smiler.series)}
    ensemble_state: dict[str, dict] = {}
    for horizon in config.horizons:
        ensemble = smiler.ensemble(horizon)
        for cell in ensemble.cells:
            state = ensemble.state(cell)
            key = _cell_key(horizon, cell)
            ensemble_state[key] = {
                "weight": state.weight,
                "asleep": state.asleep,
                "sleep_span": state.sleep_span,
                "sleep_remaining": state.sleep_remaining,
                "just_recovered": state.just_recovered,
            }
            predictor = state.predictor
            if isinstance(predictor, GaussianProcessPredictor):
                log_params = predictor._log_params
                if log_params is not None:
                    arrays[f"gp_{key}"] = np.asarray(log_params)
                    arrays[f"step_{key}"] = np.float64(predictor._step)
    meta["ensemble_state"] = ensemble_state
    arrays["meta_json"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    np.savez_compressed(path, **arrays)


def load_snapshot(path) -> SmilerSnapshot:
    """Parse an archive written by :func:`save_smiler` — no index build."""
    path = pathlib.Path(path)
    with np.load(path) as archive:
        meta = json.loads(bytes(archive["meta_json"].tobytes()).decode("utf-8"))
        if meta.get("format_version") not in _READABLE_VERSIONS:
            raise ValueError(
                f"unsupported archive version {meta.get('format_version')!r}"
            )
        series = np.asarray(archive["series"], dtype=np.float64)
        gp_params = {
            name[len("gp_") :]: np.asarray(archive[name])
            for name in archive.files
            if name.startswith("gp_")
        }
        gp_steps = {
            name[len("step_") :]: float(archive[name])
            for name in archive.files
            if name.startswith("step_")
        }

    # JSON turns tuples into lists; an archive written before a field
    # existed simply leaves that field at its default.
    config = SMiLerConfig(**{
        name: tuple(value) if isinstance(value, list) else value
        for name, value in meta["config"].items()
    })
    return SmilerSnapshot(
        sensor_id=meta["sensor_id"],
        config=config,
        series=series,
        ensemble_state=meta["ensemble_state"],
        gp_params=gp_params,
        gp_steps=gp_steps,
        path=path,
    )


def build_smiler(
    snapshot: SmilerSnapshot, backend: ComputeBackend | None = None
) -> SMiLer:
    """Rebuild a SMiLer from a parsed snapshot on the given backend."""
    config = snapshot.config
    smiler = SMiLer(
        snapshot.series, config, backend=backend, sensor_id=snapshot.sensor_id
    )
    for horizon in config.horizons:
        ensemble = smiler.ensemble(horizon)
        for cell in ensemble.cells:
            key = _cell_key(horizon, cell)
            saved = snapshot.ensemble_state.get(key)
            if saved is None:
                continue
            state = ensemble.state(cell)
            state.weight = float(saved["weight"])
            state.asleep = bool(saved["asleep"])
            state.sleep_span = int(saved["sleep_span"])
            state.sleep_remaining = int(saved["sleep_remaining"])
            state.just_recovered = bool(saved["just_recovered"])
            if key in snapshot.gp_params and isinstance(
                state.predictor, GaussianProcessPredictor
            ):
                state.predictor._log_params = snapshot.gp_params[key]
                state.predictor._step = snapshot.gp_steps.get(key, 1.0)
    return smiler


def load_smiler(path, backend: ComputeBackend | None = None) -> SMiLer:
    """Restore a SMiLer instance saved by :func:`save_smiler`."""
    return build_smiler(load_snapshot(path), backend=backend)
