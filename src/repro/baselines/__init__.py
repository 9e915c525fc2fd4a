"""The paper's ten competitor forecasters (Section 6.3.1) plus the
statistical-regression family its related work names (AR/ARI,
SES/Holt)."""

from .autoregressive import ARForecaster, ArModel, fit_ar, select_ar_order
from .base import BaseForecaster, ResidualVariance
from .exponential import (
    ExponentialSmoothingForecaster,
    HoltLinearTrend,
    SimpleExponentialSmoothing,
)
from .gp_offline import PSGPForecaster, VLGPForecaster
from .gridsearch import GridSearchResult, grid_search_cv, kfold_slices
from .holt_winters import HoltWintersForecaster, HoltWintersModel
from .lazy_knn import LazyKNNForecaster
from .naive import (
    DriftForecaster,
    MeanForecaster,
    PersistenceForecaster,
    SeasonalNaiveForecaster,
)
from .nystrom_svr import NysSVRForecaster, NystromFeatureMap
from .sgd_linear import (
    LinearSGDRegressor,
    OnlineRRForecaster,
    OnlineSVRForecaster,
    SgdRRForecaster,
    SgdSVRForecaster,
)

__all__ = [
    "ARForecaster",
    "ArModel",
    "fit_ar",
    "select_ar_order",
    "BaseForecaster",
    "ResidualVariance",
    "ExponentialSmoothingForecaster",
    "HoltLinearTrend",
    "SimpleExponentialSmoothing",
    "PSGPForecaster",
    "VLGPForecaster",
    "GridSearchResult",
    "grid_search_cv",
    "kfold_slices",
    "HoltWintersForecaster",
    "HoltWintersModel",
    "LazyKNNForecaster",
    "DriftForecaster",
    "MeanForecaster",
    "PersistenceForecaster",
    "SeasonalNaiveForecaster",
    "NysSVRForecaster",
    "NystromFeatureMap",
    "LinearSGDRegressor",
    "OnlineRRForecaster",
    "OnlineSVRForecaster",
    "SgdRRForecaster",
    "SgdSVRForecaster",
]
