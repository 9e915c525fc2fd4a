"""The benchmark regression gate, driven by fixture payloads.

No study runs here: the comparator tests build the JSON document
``python -m repro.cli ablate`` emits and feed it to
``benchmarks/gate.py`` directly, and the command-line tests mutate a
copy of the committed root ``BENCH_ablation.json`` — so the pass/fail
semantics (thresholds, hard invariants, exit codes) are pinned without
benchmark-scale runtimes.  The classes follow the payload: the
baseline run's ``search`` block, its ``serving`` block, the study-level
invariants, then files in / exit code out.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import sys

import pytest

from repro.ablation import AblationWorkload, enumerate_runs

_GATE_PATH = (
    pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "gate.py"
)
_spec = importlib.util.spec_from_file_location("bench_gate", _GATE_PATH)
gate = importlib.util.module_from_spec(_spec)
sys.modules["bench_gate"] = gate  # @dataclass resolves the module by name
_spec.loader.exec_module(gate)


def ablation_payload():
    def run(rid, component, search, claims_exact=True, digest="abc"):
        return {
            "run_id": rid, "component": component,
            "layer": None if component is None else "search",
            "claims_exact": claims_exact,
            "search": search,
            "serving": {
                "backend": "simulated", "wall_s": 0.1,
                "p50_batch_s": 0.015, "sim_s": 1.8e-3,
                "sim_parallel_s": 9e-4, "launches": 2336, "mae": 0.093,
                "degraded_forecasts": 0, "forecast_digest": digest,
            },
        }

    base_search = {
        "wall_s": 0.3, "sim_s": 1.3e-3, "candidates_total": 20000,
        "verified_rate": 0.039, "unfiltered_rate": 0.039,
        "prune_rates": {"kim": 0.9, "window": 0.05},
        "reference_exact": True,
    }
    return {
        "benchmark": "ablation",
        "config": {"workload": {"seed": 2015}},
        "host": {"cpu_count": 2},
        "baseline_run_id": "abl-base",
        "runs": [
            run("abl-base", None, base_search),
            run("abl-kim", "lb-kim", dict(base_search, sim_s=1.5e-3)),
            run("abl-ens", "ensemble", None, claims_exact=False,
                digest="other"),
        ],
        "ranking": [],
    }


def compare(fresh, threshold_pct=10.0):
    return gate.compare_ablation(ablation_payload(), fresh, threshold_pct)


def failures(checks):
    return [c.name for c in checks if c.failed]


class TestSearchGate:
    def test_identical_payloads_pass(self):
        checks = compare(ablation_payload())
        assert not failures(checks)
        assert {
            "baseline.search.sim_s", "baseline.search.verified_rate",
            "baseline.search.prune_rate_total", "reference_exact",
        } <= {c.name for c in checks}

    def test_sim_time_regression_fails(self):
        fresh = ablation_payload()
        fresh["runs"][0]["search"]["sim_s"] *= 1.25
        assert failures(compare(fresh)) == ["baseline.search.sim_s"]
        # A generous threshold tolerates the same delta.
        assert not failures(compare(fresh, 30.0))

    def test_prune_rate_collapse_fails(self):
        fresh = ablation_payload()
        fresh["runs"][0]["search"]["prune_rates"]["kim"] = 0.4
        assert failures(compare(fresh)) == [
            "baseline.search.prune_rate_total"
        ]

    def test_improvement_never_fails(self):
        fresh = ablation_payload()
        base_run = fresh["runs"][0]
        base_run["search"]["sim_s"] *= 0.5  # got faster
        base_run["search"]["verified_rate"] *= 0.5
        base_run["search"]["prune_rates"]["kim"] = 0.94
        base_run["serving"]["sim_parallel_s"] *= 0.5
        base_run["serving"]["mae"] *= 0.5
        assert not failures(compare(fresh))

    def test_lost_exactness_fails_at_any_threshold(self):
        for row in (0, 1):  # the baseline run or a component-off run
            fresh = ablation_payload()
            fresh["runs"][row]["search"]["reference_exact"] = False
            assert failures(compare(fresh, 1e9)) == ["reference_exact"]


class TestServingGate:
    def test_identical_payloads_pass(self):
        checks = compare(ablation_payload())
        assert not failures(checks)
        assert {
            "baseline.serving.mae", "baseline.serving.sim_s",
            "baseline.serving.sim_parallel_s", "baseline.serving.launches",
            "exact_digests",
        } <= {c.name for c in checks}

    def test_launch_count_regression_fails(self):
        """Launches creeping back per sensor is a regression even where
        the simulated seconds hide it; fewer launches never fail."""
        fresh = ablation_payload()
        fresh["runs"][0]["serving"]["launches"] = 9776
        assert failures(compare(fresh)) == ["baseline.serving.launches"]
        fresh["runs"][0]["serving"]["launches"] = 1168
        assert not failures(compare(fresh))

    def test_sim_speedup_regression_fails(self):
        """The slowest shard's ledger doubling is a lost parallel
        speedup even when the summed simulated time is unchanged."""
        fresh = ablation_payload()
        fresh["runs"][0]["serving"]["sim_parallel_s"] *= 2.0
        assert failures(compare(fresh)) == [
            "baseline.serving.sim_parallel_s"
        ]

    def test_parity_loss_fails(self):
        fresh = ablation_payload()
        fresh["runs"][1]["serving"]["forecast_digest"] = "diverged"
        assert failures(compare(fresh, 1e9)) == ["exact_digests"]


class TestAblationGate:
    def test_identical_payloads_pass(self):
        """Verdicts are pass or fail only, and wall-clock is not gated:
        the payload's wall fields are informational."""
        fresh = ablation_payload()
        for run in fresh["runs"]:
            run["serving"]["wall_s"] = 99.0
            run["serving"]["p50_batch_s"] = 9.0
        fresh["host"]["cpu_count"] = 64
        checks = compare(fresh)
        assert {c.status for c in checks} == {"pass"}

    def test_run_id_drift_fails(self):
        fresh = ablation_payload()
        fresh["runs"][1]["run_id"] = "abl-drifted"
        assert failures(compare(fresh)) == ["run_ids"]

    def test_harmful_exact_component_fails_at_any_threshold(self):
        """A pure optimisation the system measures better without is a
        failure; a declared-inexact component may rank negative."""
        def row(component, claims_exact, importance):
            return {"component": component, "claims_exact": claims_exact,
                    "importance": importance}

        fresh = ablation_payload()
        fresh["ranking"] = [row("lb-kim", True, 0.4),
                            row("ensemble", False, -0.2)]
        assert not failures(compare(fresh))
        fresh["ranking"].append(row("lb-improved", True, -0.256))
        checks = compare(fresh, 1e9)
        assert failures(checks) == ["no_harmful_exact_component"]
        (failed,) = [c for c in checks if c.failed]
        assert "lb-improved (-0.256)" in failed.detail

    def test_accuracy_regression_fails(self):
        fresh = ablation_payload()
        fresh["runs"][0]["serving"]["mae"] *= 1.25
        assert failures(compare(fresh)) == ["baseline.serving.mae"]


class TestDispatchAndDirectories:
    """Payload validation, then the command line: files in, exit code
    out, against the committed root ``BENCH_ablation.json``."""

    def test_mismatched_kinds_are_a_gate_error(self):
        other = dict(ablation_payload(), benchmark="search")
        with pytest.raises(gate.GateError, match="expected 'ablation'"):
            compare(other)

    def test_missing_field_is_a_gate_error(self):
        broken = ablation_payload()
        del broken["runs"][0]["search"]["sim_s"]
        with pytest.raises(gate.GateError, match="missing"):
            compare(broken)
        broken = ablation_payload()
        del broken["runs"]
        with pytest.raises(gate.GateError, match="missing 'runs'"):
            compare(broken)

    @staticmethod
    def _fresh_file(tmp_path, mutate=None):
        payload = json.loads(gate.BASELINE_PATH.read_text())
        if mutate is not None:
            baseline_run = next(
                run for run in payload["runs"]
                if run["run_id"] == payload["baseline_run_id"]
            )
            mutate(payload, baseline_run)
        path = tmp_path / "fresh.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_green_directories_exit_zero(self, tmp_path, capsys):
        code = gate.main(["--fresh", self._fresh_file(tmp_path)])
        assert code == 0
        assert "0 failed" in capsys.readouterr().out

    def test_regression_exits_one(self, tmp_path, capsys):
        def scale(block, field):
            def mutate(payload, run):
                run[block][field] *= 1.25
            return mutate

        def collapse_prune_rates(payload, run):
            run["search"]["prune_rates"]["kim"] = 0.4

        def lose_exactness(payload, run):
            run["search"]["reference_exact"] = False

        def drift_run_id(payload, run):
            payload["runs"][-1]["run_id"] = "abl-drifted"

        for mutate in (
            scale("search", "sim_s"), scale("serving", "mae"),
            collapse_prune_rates, lose_exactness, drift_run_id,
        ):
            code = gate.main(["--fresh", self._fresh_file(tmp_path, mutate)])
            assert code == 1
            assert "FAIL" in capsys.readouterr().out

    def test_missing_fresh_file_is_a_failure(self, tmp_path, capsys):
        code = gate.main(["--fresh", str(tmp_path / "never-written.json")])
        assert code == 1
        assert "fresh run missing" in capsys.readouterr().out

    def test_malformed_fresh_file_exits_two(self, tmp_path, capsys):
        def drop_runs(payload, run):
            del payload["runs"]

        no_runs = self._fresh_file(tmp_path, drop_runs)
        not_json = tmp_path / "truncated.json"
        not_json.write_text('{"benchmark": "ablation", "runs": [')
        for path in (no_runs, str(not_json)):
            assert gate.main(["--fresh", path]) == 2
            assert "gate error" in capsys.readouterr().err

    def test_committed_baselines_parse_and_self_compare(self):
        """The committed file is what today's registry and workload
        enumerate — checked without executing a run, so an edit to
        either that forgets ``python -m repro.cli ablate`` fails here —
        and it compares green against itself."""
        committed = json.loads(gate.BASELINE_PATH.read_text())
        plans = enumerate_runs(AblationWorkload())
        assert committed["baseline_run_id"] == plans[0].run_id
        assert [run["run_id"] for run in committed["runs"]] == [
            plan.run_id for plan in plans
        ]
        checks = gate.compare_ablation(committed, committed)
        assert checks and not failures(checks)
