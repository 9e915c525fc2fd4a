"""SMiLer core: semi-lazy predictors, ensemble auto-tuning, system facade."""

from .ar import AggregationPredictor
from .config import SMiLerConfig
from .ensemble import AdaptiveEnsemble, Cell, CellState, EnsembleOutput
from .gp_predictor import GaussianProcessPredictor
from .persistence import (
    SmilerSnapshot,
    build_smiler,
    load_smiler,
    load_snapshot,
    save_smiler,
)
from .predictor import GaussianPrediction, SemiLazyPredictor
from .scaleout import plan_lanes
from .smiler import SensorFleet, SMiLer

__all__ = [
    "AggregationPredictor",
    "SMiLerConfig",
    "AdaptiveEnsemble",
    "Cell",
    "CellState",
    "EnsembleOutput",
    "GaussianProcessPredictor",
    "GaussianPrediction",
    "SmilerSnapshot",
    "build_smiler",
    "load_smiler",
    "load_snapshot",
    "save_smiler",
    "plan_lanes",
    "SemiLazyPredictor",
    "SensorFleet",
    "SMiLer",
]
