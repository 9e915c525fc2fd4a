"""The numerical contract, each value defined once: the slacks the exact
search rests on and the floors the serving path clamps with.  Every name
here is public; each comment names the inequality guarded and [its test]."""

FILTER_REL_SLACK = 1e-12  #: lb <= tau * (1 + slack) keeps ties [test_search_ties]
ABANDON_SLACK = 1e-9  #: lb_terms sum <= cutoff + slack is run [test_search_cascade]
STD_FLOOR = 1e-12  #: std >= floor for a constant stream [test_timeseries_series]
NAIVE_VARIANCE = 1e-8  #: naive rung's variance > 0 on a flat tail [test_resilience]
AR_VARIANCE_FLOOR = 1e-8  #: AR variance >= floor, equal targets [test_core_predictors]
GP_VARIANCE_FLOOR = 1e-10  #: Eqn. 31's sigma0^2 >= floor [gp_cell_oracle]
GP_FALLBACK_VARIANCE = 1e-6  #: var(targets) + this > 0, bad posterior [gp_cell_oracle]
MIX_SPREAD_FLOOR = 1e-10  #: Eqn. 3's mixture variance >= floor [test_ensemble_lane]
RECOVERY_FLOOR = 1e-9  #: 1 - woken * eta >= floor at recovery [test_ensemble_lane]
LOO_DIAGONAL_FLOOR = 1e-300  #: Eqn. 19's Kinv_ii >= floor [test_gp_loo_identity]
#: C + jitter * mean(diag) * I, tried until it factorises [test_gp_training_identity]
CHOLESKY_JITTERS = (1e-10, 1e-8, 1e-6, 1e-4, 1e-2)
