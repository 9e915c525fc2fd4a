"""System-wide ablation harness: which components carry the wins?

The subsystem has three parts (see ``docs/architecture.md``):

* :mod:`repro.ablation.registry` — the declarative surface: every
  ablatable component as a (name, layer, config patch, exactness
  declaration) record, validated against the real config dataclasses so
  a knob rename is caught immediately.
* :mod:`repro.ablation.study` — the enumerator and runner: baseline +
  one-component-off runs with stable deterministic run IDs, per-run
  search/serving measurement, and hard exactness enforcement (full-DTW
  oracle + bit-exact forecast digests).
* :mod:`repro.ablation.report` — the scorer: deterministic per-component
  deltas, ranked importance, the text report and the
  ``BENCH_ablation.json`` payload.

Run it via ``python -m repro.cli ablate``, which writes the committed
root ``BENCH_ablation.json`` — the repo's one deterministic-counter
bench; ``benchmarks/gate.py --fresh F.json`` regresses a fresh run
against that file (CI's ``bench-gate`` job, ``make bench-gate``).
Wall-clock is ``benchmarks/roundbench``'s job.
"""

from .registry import (
    Component,
    DEFAULT_COMPONENTS,
    default_registry,
    validate_component,
    validate_registry,
)
from .report import ComponentScore, bench_payload, render_report, score_study
from .study import (
    AblationExactnessError,
    AblationWorkload,
    PlannedRun,
    RunResult,
    StudyResult,
    apply_patch,
    check_exactness,
    enumerate_runs,
    run_id,
    run_study,
)

__all__ = [
    "AblationExactnessError",
    "AblationWorkload",
    "Component",
    "ComponentScore",
    "DEFAULT_COMPONENTS",
    "PlannedRun",
    "RunResult",
    "StudyResult",
    "apply_patch",
    "bench_payload",
    "check_exactness",
    "default_registry",
    "enumerate_runs",
    "render_report",
    "run_id",
    "run_study",
    "score_study",
    "validate_component",
    "validate_registry",
]
