"""Deterministic fault profiles: *what* goes wrong, *when*, repeatably.

A :class:`FaultProfile` is a seeded description of the failures a
:class:`~repro.faults.backend.FaultInjectingBackend` injects into one
compute backend: per-operation error rates, NaN corruption of kernel
outputs, added simulated latency, burst windows and a hard "backend dies
at tick T" switch.  Every decision is drawn from one
``numpy.random.default_rng(seed)`` stream in operation order, so the
same profile on the same workload injects the *same* faults — chaos
runs are reproducible bug reports, not flakes.

Profiles are selected three ways (mirroring ``REPRO_BACKEND``):

* programmatically — ``make_backend("simulated", fault_profile=...)``,
* per process — the ``REPRO_FAULT_PROFILE`` environment variable,
* per CLI run — the ``--fault-profile`` flag of ``repro serve``.

Each accepts a registered name (:data:`FAULT_PROFILE_NAMES`) or a
``key=value[,key=value...]`` spec, e.g.
``REPRO_FAULT_PROFILE="kernel_error=0.05,seed=7,burst=100:200"``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = [
    "FAULT_PROFILE_ENV_VAR",
    "FAULT_PROFILE_NAMES",
    "FaultProfile",
    "as_fault_profile",
    "parse_fault_profile",
]

#: Environment variable selecting the process-default fault profile
#: (no injection when unset or set to ``none``).
FAULT_PROFILE_ENV_VAR = "REPRO_FAULT_PROFILE"


@dataclass(frozen=True)
class FaultProfile:
    """Seeded failure policy for one wrapped backend.

    Rates are per *operation* (one kernel call or one malloc counts as
    one operation tick).  When ``burst`` is set, the three error/NaN
    rates apply only inside the half-open tick window ``[start, end)``;
    latency and ``dies_at_tick`` are unaffected by bursts.
    """

    #: Display name ("custom" for ad-hoc profiles).
    name: str = "custom"
    #: RNG seed driving every injection decision.
    seed: int = 0
    #: Probability a kernel call raises :class:`KernelFaultError`.
    kernel_error_rate: float = 0.0
    #: Probability a kernel's output array gets one entry set to NaN.
    kernel_nan_rate: float = 0.0
    #: Probability a malloc raises :class:`~repro.gpu.device.GpuMemoryError`.
    malloc_error_rate: float = 0.0
    #: Simulated seconds added to the time ledger per kernel call.
    added_latency_s: float = 0.0
    #: Operation tick at which the backend dies for good (every later
    #: operation — kernels *and* memory — raises
    #: :class:`BackendDeadError`).  ``None`` = never.
    dies_at_tick: int | None = None
    #: Optional ``[start, end)`` tick window gating the three rates.
    burst: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        for field in ("kernel_error_rate", "kernel_nan_rate", "malloc_error_rate"):
            rate = getattr(self, field)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{field} must be in [0, 1], got {rate}")
        if self.added_latency_s < 0:
            raise ValueError(
                f"added_latency_s must be non-negative, got {self.added_latency_s}"
            )
        if self.dies_at_tick is not None and self.dies_at_tick < 0:
            raise ValueError(
                f"dies_at_tick must be non-negative, got {self.dies_at_tick}"
            )
        if self.burst is not None:
            start, end = self.burst
            if start < 0 or end <= start:
                raise ValueError(
                    f"burst must be a [start, end) window with 0 <= start < "
                    f"end, got {self.burst}"
                )

    @property
    def is_null(self) -> bool:
        """True when the profile injects nothing at all."""
        return (
            self.kernel_error_rate == 0.0
            and self.kernel_nan_rate == 0.0
            and self.malloc_error_rate == 0.0
            and self.added_latency_s == 0.0
            and self.dies_at_tick is None
        )

    def in_burst(self, tick: int) -> bool:
        """Whether the gated rates apply at this operation tick."""
        if self.burst is None:
            return True
        start, end = self.burst
        return start <= tick < end


#: Registered profiles: ``none`` disables injection; ``chaos`` is the
#: full-suite-tolerable profile the CI chaos job runs under (latency is
#: injected into every kernel call but never changes an answer, proving
#: every call goes through the fault layer deterministically).
_NAMED: dict[str, FaultProfile] = {
    "none": FaultProfile(name="none"),
    "flaky-kernels": FaultProfile(name="flaky-kernels", seed=7, kernel_error_rate=0.05),
    "nan-kernels": FaultProfile(name="nan-kernels", seed=7, kernel_nan_rate=0.05),
    "slow": FaultProfile(name="slow", seed=7, added_latency_s=5e-6),
    "chaos": FaultProfile(name="chaos", seed=2015, added_latency_s=1e-7),
}

FAULT_PROFILE_NAMES = tuple(sorted(_NAMED))

#: spec key -> FaultProfile field (plus ``burst``/``dies_at`` special-cased).
_SPEC_KEYS = {
    "seed": ("seed", int),
    "kernel_error": ("kernel_error_rate", float),
    "nan": ("kernel_nan_rate", float),
    "kernel_nan": ("kernel_nan_rate", float),
    "malloc_error": ("malloc_error_rate", float),
    "latency": ("added_latency_s", float),
    "dies_at": ("dies_at_tick", int),
}


def parse_fault_profile(spec: str) -> FaultProfile:
    """Build a profile from a registered name or a ``key=value`` spec.

    Spec keys: ``seed``, ``kernel_error``, ``nan``, ``malloc_error``,
    ``latency``, ``dies_at`` and ``burst=START:END``.  A name may lead
    the spec to use it as a base: ``"flaky-kernels,seed=3"``.
    """
    if not isinstance(spec, str) or not spec.strip():
        raise ValueError(f"empty fault-profile spec {spec!r}")
    profile = FaultProfile()
    parts = [part.strip() for part in spec.split(",") if part.strip()]
    if parts and "=" not in parts[0]:
        name = parts.pop(0)
        if name not in _NAMED:
            raise ValueError(
                f"unknown fault profile {name!r}; available: "
                f"{', '.join(FAULT_PROFILE_NAMES)}"
            )
        profile = _NAMED[name]
    overrides: dict[str, object] = {}
    for part in parts:
        key, _, value = part.partition("=")
        key, value = key.strip(), value.strip()
        if key == "burst":
            start, _, end = value.partition(":")
            overrides["burst"] = (int(start), int(end))
        elif key in _SPEC_KEYS:
            field, cast = _SPEC_KEYS[key]
            overrides[field] = cast(value)
        else:
            raise ValueError(
                f"unknown fault-profile key {key!r}; available: "
                f"burst, {', '.join(sorted(_SPEC_KEYS))}"
            )
    if overrides:
        overrides.setdefault("name", "custom")
        profile = replace(profile, **overrides)
    return profile


def as_fault_profile(obj: object) -> FaultProfile | None:
    """Coerce to a profile: ``None``/``"none"``/null profiles yield ``None``
    (meaning "do not wrap"), strings are parsed, profiles pass through."""
    if obj is None:
        return None
    if isinstance(obj, str):
        obj = parse_fault_profile(obj)
    if not isinstance(obj, FaultProfile):
        raise TypeError(
            f"expected a FaultProfile, spec string or None, got "
            f"{type(obj).__name__}"
        )
    return None if obj.is_null else obj
