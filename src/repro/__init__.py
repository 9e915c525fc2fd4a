"""SMiLer — a semi-lazy time series prediction system for sensors.

Reproduction of Zhou & Tung, SIGMOD 2015.  The public API re-exports the
pieces a downstream user needs:

* :class:`repro.core.SMiLer` — the full system (search step + prediction
  step + auto-tuning) for one sensor,
* :class:`repro.PredictionService` — a fleet of sensors served the same
  way, sharded over a backend pool,
* :mod:`repro.timeseries` — data containers and synthetic datasets,
* :mod:`repro.dtw` / :mod:`repro.index` — the Suffix kNN search engine,
* :mod:`repro.gp` — Gaussian Process stack (exact, sparse, variational),
* :mod:`repro.baselines` — the paper's ten competitor forecasters.
"""

__version__ = "1.0.0"

import logging as _logging

# Library convention: emit records, never configure handlers — the
# application decides where `repro.*` logs go.
_logging.getLogger(__name__).addHandler(_logging.NullHandler())

from . import (
    backend,
    baselines,
    core,
    dtw,
    gp,
    gpu,
    harness,
    index,
    metrics,
    obs,
    timeseries,
)
from .core import SMiLer, SMiLerConfig
from .service import Forecast, PredictionService, ServiceConfig

__all__ = [
    "SMiLer",
    "SMiLerConfig",
    "Forecast",
    "PredictionService",
    "ServiceConfig",
    "backend",
    "baselines",
    "core",
    "dtw",
    "gp",
    "gpu",
    "harness",
    "index",
    "metrics",
    "obs",
    "timeseries",
]
