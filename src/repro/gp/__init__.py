"""Gaussian Process stack: exact GP, LOO training, sparse approximations."""

from .kernels import SquaredExponentialKernel, squared_distances
from .loo import (
    LooProblem,
    LooResult,
    loo_log_likelihood,
    loo_objective,
    loo_quantities,
)
from .optimize import (
    Objective,
    OptimizeResult,
    conjugate_gradient_minimize,
    nelder_mead_minimize,
)
from .regression import GaussianProcessRegressor, robust_cholesky
from .sparse import ProjectedSparseGP, select_active_points
from .variational import VariationalSparseGP, kmeans

__all__ = [
    "SquaredExponentialKernel",
    "squared_distances",
    "LooProblem",
    "LooResult",
    "loo_log_likelihood",
    "loo_objective",
    "loo_quantities",
    "Objective",
    "OptimizeResult",
    "conjugate_gradient_minimize",
    "nelder_mead_minimize",
    "GaussianProcessRegressor",
    "robust_cholesky",
    "ProjectedSparseGP",
    "select_active_points",
    "VariationalSparseGP",
    "kmeans",
]
