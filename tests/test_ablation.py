"""The ablation harness: registry integrity, stable run IDs, scoring,
and the exactness contract.

The expensive end-to-end study path is exercised once on a micro
workload (`TestStudyEndToEnd`); everything else runs on synthetic
`RunResult` records so the determinism and failure properties are
checked without benchmark-scale runtimes.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from repro.ablation import (
    AblationExactnessError,
    AblationWorkload,
    Component,
    DEFAULT_COMPONENTS,
    RunResult,
    StudyResult,
    apply_patch,
    bench_payload,
    check_exactness,
    default_registry,
    enumerate_runs,
    render_report,
    run_id,
    run_study,
    score_study,
    validate_component,
    validate_registry,
)
from repro.backend.pool import BreakerConfig
from repro.core.config import SMiLerConfig
from repro.index.suffix_search import SuffixSearchConfig
from repro.service import ServiceConfig

#: Seconds-fast workload for the one real end-to-end study in this file.
MICRO = AblationWorkload(
    n_sensors=2, n_backends=2, n_points=600, steps=3,
    search_points=1_500, search_steps=2, search_item_lengths=(16, 32),
    search_rho=8, search_omega=8,
)


def make_serving(sim_s=1.0, mae=0.1, digest="d0", backend="simulated",
                 wall_s=1.0):
    return {
        "backend": backend, "wall_s": wall_s, "p50_batch_s": 0.01,
        "sim_s": sim_s, "sim_parallel_s": sim_s, "mae": mae,
        "degraded_forecasts": 0, "forecast_digest": digest,
    }


def make_search(sim_s=1.0, verified_rate=0.1, reference_exact=True):
    return {
        "wall_s": 1.0, "sim_s": sim_s, "candidates_total": 1000,
        "verified_rate": verified_rate, "unfiltered_rate": verified_rate,
        "prune_rates": {"kim": 0.5, "window": 0.2},
        "reference_exact": reference_exact,
    }


def make_run(rid, component, *, layer="search", claims_exact=True,
             search=None, serving=None):
    return RunResult(
        run_id=rid, component=component,
        layer=None if component is None else layer,
        claims_exact=claims_exact, search=search,
        serving=serving if serving is not None else make_serving(),
    )


class TestRegistry:
    def test_default_registry_validates(self):
        assert default_registry() == DEFAULT_COMPONENTS

    def test_covers_the_required_surface(self):
        """The ISSUE's minimum component set, by name."""
        names = {c.name for c in DEFAULT_COMPONENTS}
        required = {
            "lb-kim", "threshold-reuse",
            "engine-thread", "engine-process", "breaker", "ensemble",
            "auto-tuning", "sleep-scheduler", "simulated-backend",
        }
        assert names == required

    def test_every_patched_knob_exists_on_its_config(self):
        """The rename trip-wire: a patch must name only real dataclass
        fields, so renaming a knob breaks this test, not the study."""
        field_sets = {
            "search": {f.name for f in dataclasses.fields(SuffixSearchConfig)},
            "smiler": {f.name for f in dataclasses.fields(SMiLerConfig)},
            "service": {f.name for f in dataclasses.fields(ServiceConfig)},
            "breaker": {f.name for f in dataclasses.fields(BreakerConfig)},
            "backend": {"kind"},
        }
        for component in DEFAULT_COMPONENTS:
            for key, _ in component.patch:
                prefix, _, field_name = key.partition(".")
                assert field_name in field_sets[prefix], (
                    f"{component.name}: {key} names a missing field"
                )

    def test_every_search_switch_is_ablated_and_mirrored(self):
        """The reverse trip-wire: a ``bool`` on ``SuffixSearchConfig``
        that no component patches is a dead switch, and one that is not
        also on ``SMiLerConfig`` (or the other way round) never reaches
        the engine through the service."""
        def switches(config_cls):
            return {
                f.name for f in dataclasses.fields(config_cls)
                if isinstance(f.default, bool)
            }

        def patched(prefix):
            return {
                key.partition(".")[2]
                for component in DEFAULT_COMPONENTS
                for key, _ in component.patch
                if key.startswith(prefix + ".")
            }

        search_switches = switches(SuffixSearchConfig)
        assert search_switches and search_switches <= patched("search")
        assert switches(SMiLerConfig) - patched("smiler") == search_switches

    def test_renamed_knob_is_rejected(self):
        bogus = Component(
            name="bogus", layer="search", description="renamed knob",
            patch=(("search.cascade_enabled", False),),
        )
        with pytest.raises(ValueError, match="no field 'cascade_enabled'"):
            validate_component(bogus)

    def test_unknown_target_engine_and_backend_are_rejected(self):
        for patch, match in [
            ((("nonsense.x", 1),), "unknown patch target"),
            ((("service.engine", "quantum"),), "unknown engine"),
            ((("backend.kind", "tpu"),), "unknown backend kind"),
            ((("search", True),), "must be dotted"),
        ]:
            with pytest.raises(ValueError, match=match):
                validate_component(Component(
                    name="x", layer="l", description="d", patch=patch,
                ))

    def test_duplicate_names_are_rejected(self):
        dup = DEFAULT_COMPONENTS + (DEFAULT_COMPONENTS[0],)
        with pytest.raises(ValueError, match="duplicate"):
            validate_registry(dup)

    def test_empty_patch_is_rejected(self):
        with pytest.raises(ValueError, match="non-empty patch"):
            Component(name="x", layer="l", description="d", patch=())


class TestApplyPatch:
    def test_baseline_is_everything_on(self):
        setup = apply_patch(MICRO, None)
        assert setup.search.lb_kim and setup.search.reuse_threshold
        assert setup.backend_kind == "simulated"

    def test_search_patch_mirrors_onto_smiler_config(self):
        kim_off = next(c for c in DEFAULT_COMPONENTS if c.name == "lb-kim")
        setup = apply_patch(MICRO, kim_off)
        assert not setup.search.lb_kim
        # end-to-end, not search-only
        assert not setup.smiler.lb_kim

    def test_engine_and_backend_patches(self):
        by_name = {c.name: c for c in DEFAULT_COMPONENTS}
        setup = apply_patch(MICRO, by_name["engine-thread"])
        assert setup.service.engine == "thread"
        assert setup.service.max_workers == 4
        setup = apply_patch(MICRO, by_name["simulated-backend"])
        assert setup.backend_kind == "native"


class TestRunIds:
    def test_stable_within_process(self):
        comp = DEFAULT_COMPONENTS[0]
        assert run_id(MICRO, comp) == run_id(MICRO, comp)
        assert run_id(MICRO, None) == run_id(MICRO, None)

    def test_distinct_per_component_and_workload(self):
        ids = {run_id(MICRO, c) for c in DEFAULT_COMPONENTS}
        ids.add(run_id(MICRO, None))
        assert len(ids) == len(DEFAULT_COMPONENTS) + 1
        reseeded = dataclasses.replace(MICRO, seed=MICRO.seed + 1)
        assert run_id(reseeded, None) != run_id(MICRO, None)

    def test_stable_across_processes(self):
        """Same IDs under a different PYTHONHASHSEED in a fresh
        interpreter — the property that makes them diffable across PRs
        and CI hosts."""
        code = textwrap.dedent(
            """
            from repro.ablation import AblationWorkload, default_registry, run_id
            comps = default_registry()
            print(run_id(AblationWorkload(), None))
            print(run_id(AblationWorkload(), comps[0]))
            """
        )
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = "12345"
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env,
            capture_output=True, text=True, check=True,
        ).stdout.split()
        assert out == [
            run_id(AblationWorkload(), None),
            run_id(AblationWorkload(), default_registry()[0]),
        ]

    def test_enumerate_is_baseline_plus_one_per_component(self):
        plans = enumerate_runs(MICRO)
        assert len(plans) == len(DEFAULT_COMPONENTS) + 1
        assert plans[0].component is None
        names = [p.component.name for p in plans[1:]]
        assert names == sorted(names)
        # Registry order must not leak into the enumeration.
        shuffled = tuple(reversed(DEFAULT_COMPONENTS))
        assert enumerate_runs(MICRO, shuffled) == plans


class TestScoring:
    def test_positive_importance_for_regressing_ablation(self):
        baseline = make_run("b", None, search=make_search(sim_s=1.0))
        worse = make_run(
            "w", "tier", search=make_search(sim_s=1.5, verified_rate=0.2),
        )
        study = StudyResult(workload=MICRO, runs=[baseline, worse])
        (score,) = score_study(study)
        assert score.search_sim_delta == pytest.approx(0.5)
        assert score.verified_rate_delta == pytest.approx(0.1)
        assert score.importance > 0

    def test_ranking_is_deterministic_with_name_tiebreak(self):
        baseline = make_run("b", None)
        tied_a = make_run("a", "alpha", serving=make_serving(sim_s=1.2))
        tied_b = make_run("z", "beta", serving=make_serving(sim_s=1.2))
        big = make_run("c", "gamma", serving=make_serving(sim_s=2.0))
        study = StudyResult(
            workload=MICRO, runs=[baseline, tied_b, big, tied_a],
        )
        names = [s.component for s in score_study(study)]
        assert names == ["gamma", "alpha", "beta"]
        study.runs = [baseline, tied_a, tied_b, big]  # input order flipped
        assert [s.component for s in score_study(study)] == names

    def test_cross_backend_sim_delta_is_excluded(self):
        """NativeBackend keeps no cost ledger; its sim 'delta' would be
        a meaningless -100% and must not poison the ranking."""
        baseline = make_run("b", None)
        native = make_run(
            "n", "simulated-backend", layer="backend",
            serving=make_serving(sim_s=0.0, backend="native"),
        )
        study = StudyResult(workload=MICRO, runs=[baseline, native])
        (score,) = score_study(study)
        assert score.serving_sim_delta is None
        assert score.importance == pytest.approx(0.0)

    def test_report_and_payload_shapes(self):
        baseline = make_run("b", None, search=make_search())
        off = make_run("o", "lb-kim", search=make_search(sim_s=1.4))
        study = StudyResult(workload=MICRO, runs=[baseline, off])
        report = render_report(study)
        assert "lb-kim" in report and "importance" in report
        payload = bench_payload(study, cpu_count=1)
        assert payload["benchmark"] == "ablation"
        assert payload["baseline_run_id"] == "b"
        assert payload["host"] == {"cpu_count": 1}
        assert len(payload["runs"]) == 2
        assert [r["component"] for r in payload["ranking"]] == ["lb-kim"]
        json.dumps(payload)  # must be JSON-serialisable as-is


class TestExactnessContract:
    def test_oracle_divergence_always_fails(self):
        baseline = make_run("b", None, search=make_search())
        lossy = make_run(
            "l", "lb-kim", claims_exact=False,  # declaring it buys nothing
            search=make_search(reference_exact=False),
        )
        with pytest.raises(AblationExactnessError, match="oracle"):
            check_exactness(baseline, lossy)

    def test_declared_exact_with_diverged_digest_fails(self):
        baseline = make_run("b", None)
        impostor = make_run(
            "i", "breaker", claims_exact=True,
            serving=make_serving(digest="DIFFERENT"),
        )
        with pytest.raises(AblationExactnessError, match="declared exact"):
            check_exactness(baseline, impostor)

    def test_declared_inexact_may_change_answers(self):
        baseline = make_run("b", None)
        honest = make_run(
            "h", "ensemble", claims_exact=False,
            serving=make_serving(digest="DIFFERENT"),
        )
        check_exactness(baseline, honest)  # no raise


@pytest.mark.slow
class TestStudyEndToEnd:
    #: Two components exercise both phases: one exact search knob, one
    #: declared-inexact predict knob.
    COMPONENTS = tuple(
        c for c in DEFAULT_COMPONENTS if c.name in ("lb-kim", "ensemble")
    )

    def test_micro_study_runs(self):
        study = run_study(MICRO, components=self.COMPONENTS)
        assert [r.component for r in study.runs] == [
            None, "ensemble", "lb-kim",
        ]
        assert study.baseline.search["reference_exact"] is True
        by_name = {r.component: r for r in study.runs}
        assert (
            by_name["lb-kim"].serving["forecast_digest"]
            == study.baseline.serving["forecast_digest"]
        )

    def test_lying_component_fails_the_study(self):
        """An ablation that changes forecasts while claiming exactness
        must abort the run, not become a data point."""
        liar = Component(
            name="lying-ensemble", layer="predict",
            description="changes answers but claims it does not",
            patch=(("smiler.ensemble", False),),
            claims_exact=True,
        )
        with pytest.raises(AblationExactnessError, match="lying-ensemble"):
            run_study(MICRO, components=(liar,))
