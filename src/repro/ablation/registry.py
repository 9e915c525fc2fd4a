"""Declarative registry of ablatable system components.

Each :class:`Component` names one load-bearing mechanism of the system,
tags the layer it lives in, and carries the **config patch** that turns
it off (or swaps it for its baseline variant).  Patches are dotted
``target.field`` assignments against the real config dataclasses —
:class:`~repro.index.suffix_search.SuffixSearchConfig`,
:class:`~repro.core.config.SMiLerConfig`,
:class:`~repro.service.ServiceConfig`,
:class:`~repro.backend.pool.BreakerConfig` — plus the special
``backend.kind`` key selecting the compute backend.  Because patches
reference dataclass fields by name, :func:`validate_component` (and the
registry-completeness test) catches a knob rename the moment it happens
instead of silently ablating nothing.

``claims_exact`` declares the component a *pure optimisation*: turning
it off must not change a single served forecast bit.  The study runner
enforces the declaration — an exactness-declared ablation whose
forecasts diverge from baseline fails the whole run
(:class:`~repro.ablation.study.AblationExactnessError`), which is
exactly the property the cascade tiers inherit from the exact-indexing
lower-bound framework (arxiv 0906.2459): admissible bounds prune work,
never answers.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..backend import BACKEND_NAMES
from ..backend.pool import BreakerConfig
from ..core.config import SMiLerConfig
from ..exec import ENGINE_NAMES
from ..index.suffix_search import SuffixSearchConfig
from ..service import ServiceConfig

__all__ = [
    "Component",
    "DEFAULT_COMPONENTS",
    "PATCH_TARGETS",
    "default_registry",
    "validate_component",
    "validate_registry",
]

#: Patch-key prefix -> the config dataclass it patches.  ``backend`` is
#: special-cased (``backend.kind`` selects the compute-backend name).
PATCH_TARGETS: dict[str, type] = {
    "search": SuffixSearchConfig,
    "smiler": SMiLerConfig,
    "service": ServiceConfig,
    "breaker": BreakerConfig,
}


@dataclass(frozen=True)
class Component:
    """One ablatable mechanism: a name, a layer tag and a config patch.

    ``patch`` maps dotted knob names to the ablated value, e.g.
    ``(("search.lb_kim", False),)``.  ``claims_exact`` promises the
    ablation changes *work*, never *answers* — enforced at run time
    against the baseline's forecast digest.
    """

    name: str
    layer: str
    description: str
    patch: tuple[tuple[str, object], ...]
    claims_exact: bool = True

    def __post_init__(self) -> None:
        if not self.name or not self.patch:
            raise ValueError("a component needs a name and a non-empty patch")

    @property
    def touches_search(self) -> bool:
        """Whether any patched knob lives in the search pipeline."""
        return any(key.split(".", 1)[0] == "search" for key, _ in self.patch)


def validate_component(component: Component) -> None:
    """Raise ``ValueError`` unless every patched knob actually exists.

    This is the rename trip-wire: a patch naming a field that was
    renamed or removed from its config dataclass fails here, not as a
    silently-inert ablation.
    """
    for key, value in component.patch:
        prefix, _, field_name = key.partition(".")
        if not field_name:
            raise ValueError(
                f"component {component.name!r}: patch key {key!r} must be "
                "dotted (target.field)"
            )
        if prefix == "backend":
            if field_name != "kind":
                raise ValueError(
                    f"component {component.name!r}: unknown backend patch "
                    f"key {key!r} (only backend.kind is supported)"
                )
            if value not in BACKEND_NAMES:
                raise ValueError(
                    f"component {component.name!r}: unknown backend kind "
                    f"{value!r}; available: {BACKEND_NAMES}"
                )
            continue
        target = PATCH_TARGETS.get(prefix)
        if target is None:
            raise ValueError(
                f"component {component.name!r}: unknown patch target "
                f"{prefix!r}; available: "
                f"{tuple(PATCH_TARGETS)} + ('backend',)"
            )
        known = {f.name for f in dataclasses.fields(target)}
        if field_name not in known:
            raise ValueError(
                f"component {component.name!r}: {target.__name__} has no "
                f"field {field_name!r} (knob renamed?); fields: "
                f"{sorted(known)}"
            )
        if key == "service.engine" and value not in ENGINE_NAMES:
            raise ValueError(
                f"component {component.name!r}: unknown engine {value!r}; "
                f"available: {ENGINE_NAMES}"
            )


def validate_registry(components: tuple[Component, ...]) -> None:
    """Validate every component and reject duplicate names."""
    seen: set[str] = set()
    for component in components:
        if component.name in seen:
            raise ValueError(f"duplicate component name {component.name!r}")
        seen.add(component.name)
        validate_component(component)


#: The default ablation surface: every load-bearing knob the system has
#: grown, one component per mechanism.  Search-tier components are exact
#: by construction (admissible bounds); engine/worker/backend variants
#: are exact by the bit-identical serving contract pinned in
#: ``tests/test_exec_parity.py`` / ``tests/test_backend_parity.py``;
#: predict-layer components (ensemble, auto-tuning, sleep) genuinely
#: change forecasts and say so.
DEFAULT_COMPONENTS: tuple[Component, ...] = (
    Component(
        name="lb-kim",
        layer="search",
        description="tier-0 O(1) first/last-point LB_Kim pre-filter (off "
        "= the paper's plain LB_w filter pass)",
        patch=(("search.lb_kim", False),),
    ),
    Component(
        name="threshold-reuse",
        layer="search",
        description="previous-step kNN answers and their successors seeding "
        "the filter threshold",
        patch=(("search.reuse_threshold", False),),
    ),
    Component(
        name="engine-thread",
        layer="serving",
        description="thread-lane execution engine with 4 worker lanes "
        "(baseline serves inline/sequential)",
        patch=(("service.engine", "thread"), ("service.max_workers", 4)),
    ),
    Component(
        name="engine-process",
        layer="serving",
        description="process-per-shard execution engine with 4 lanes",
        patch=(("service.engine", "process"), ("service.max_workers", 4)),
    ),
    Component(
        name="breaker",
        layer="resilience",
        description="circuit breakers (off = breakers effectively never "
        "trip)",
        patch=(
            ("breaker.failure_threshold", 1_000_000_000),
            ("breaker.cooldown_ops", 1_000_000_000),
        ),
    ),
    Component(
        name="ensemble",
        layer="predict",
        description="the (k, d) ensemble matrix (off = single-cell "
        "SMiLerNE)",
        patch=(("smiler.ensemble", False),),
        claims_exact=False,
    ),
    Component(
        name="auto-tuning",
        layer="predict",
        description="self-adaptive ensemble weight updates (off = fixed "
        "weights, SMiLerNS)",
        patch=(("smiler.self_adaptive", False),),
        claims_exact=False,
    ),
    Component(
        name="sleep-scheduler",
        layer="predict",
        description="sleep-and-recovery scheduling of weak ensemble cells",
        patch=(("smiler.sleep_enabled", False),),
        claims_exact=False,
    ),
    Component(
        name="simulated-backend",
        layer="backend",
        description="SimulatedGpuBackend cost-model accounting (variant: "
        "plain-NumPy NativeBackend)",
        patch=(("backend.kind", "native"),),
    ),
)


def default_registry() -> tuple[Component, ...]:
    """The validated default component registry."""
    validate_registry(DEFAULT_COMPONENTS)
    return DEFAULT_COMPONENTS
