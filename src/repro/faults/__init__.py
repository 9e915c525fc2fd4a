"""Deliberate failure: deterministic fault injection for compute backends.

The paper's sleep-and-recovery scheduler (Section 5.3) assumes
predictors fail and come back; this package gives the *serving* stack
the same assumption.  :class:`FaultProfile` describes what goes wrong
(seeded rates, burst windows, death ticks), and
:class:`FaultInjectingBackend` wraps any
:class:`~repro.backend.base.ComputeBackend` to make it happen,
repeatably.  The health-aware :class:`~repro.backend.pool.BackendPool`
and the :class:`~repro.service.PredictionService` degradation ladder are
the consumers; ``docs/robustness.md`` walks through the whole story.
"""

from .backend import (
    BackendDeadError,
    FaultError,
    FaultInjectingBackend,
    KernelFaultError,
)
from .profile import (
    FAULT_PROFILE_ENV_VAR,
    FAULT_PROFILE_NAMES,
    FaultProfile,
    as_fault_profile,
    parse_fault_profile,
)

__all__ = [
    "BackendDeadError",
    "FAULT_PROFILE_ENV_VAR",
    "FAULT_PROFILE_NAMES",
    "FaultError",
    "FaultInjectingBackend",
    "FaultProfile",
    "KernelFaultError",
    "as_fault_profile",
    "parse_fault_profile",
]
