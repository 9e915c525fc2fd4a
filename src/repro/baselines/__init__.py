"""The paper's ten competitor forecasters (Section 6.3.1), plus the
least-squares AR(p) fit behind the service's ``ar`` degradation rung."""

from .autoregressive import ArModel, fit_ar
from .base import BaseForecaster, ResidualVariance
from .gp_offline import PSGPForecaster, VLGPForecaster
from .holt_winters import HoltWintersForecaster, HoltWintersModel
from .lazy_knn import LazyKNNForecaster
from .nystrom_svr import NysSVRForecaster, NystromFeatureMap
from .sgd_linear import (
    LinearSGDRegressor,
    OnlineRRForecaster,
    OnlineSVRForecaster,
    SgdRRForecaster,
    SgdSVRForecaster,
)

__all__ = [
    "ArModel",
    "fit_ar",
    "BaseForecaster",
    "ResidualVariance",
    "PSGPForecaster",
    "VLGPForecaster",
    "HoltWintersForecaster",
    "HoltWintersModel",
    "LazyKNNForecaster",
    "NysSVRForecaster",
    "NystromFeatureMap",
    "LinearSGDRegressor",
    "OnlineRRForecaster",
    "OnlineSVRForecaster",
    "SgdRRForecaster",
    "SgdSVRForecaster",
]
