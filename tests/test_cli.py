"""Tests for the command-line interface."""

import pathlib
import subprocess
import sys

import pytest

from repro.cli import EXPERIMENTS, main


class TestList:
    def test_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out


class TestRun:
    def test_run_fig1(self, capsys):
        assert main(["run", "fig1", "--preset", "tiny"]) == 0
        assert "TFLOPS" in capsys.readouterr().out

    def test_run_fig8_tiny(self, capsys):
        assert main(["run", "fig8", "--preset", "tiny"]) == 0
        assert "SMiLer-Idx" in capsys.readouterr().out

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "nested" / "fig1.txt"
        assert main(["run", "fig1", "--out", str(out)]) == 0
        assert out.exists()
        assert "TFLOPS" in out.read_text()

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "nope"])


class TestMetricsOut:
    def test_run_writes_metrics_snapshot(self, tmp_path, capsys):
        import json

        out = tmp_path / "fig8_metrics.json"
        assert main(
            ["run", "fig8", "--preset", "tiny", "--metrics-out", str(out)]
        ) == 0
        snapshot = json.loads(out.read_text())
        assert "smiler_gpu_kernel_launches_total" in snapshot

    def test_run_without_flag_stays_uninstrumented(self, capsys):
        from repro import obs

        assert main(["run", "fig1", "--preset", "tiny"]) == 0
        assert not obs.is_enabled()


class TestStats:
    def test_stats_prints_trace_and_prometheus(self, capsys):
        assert main(
            ["stats", "--dataset", "MALL", "--steps", "2",
             "--predictor", "ar"]
        ) == 0
        out = capsys.readouterr().out
        assert "forecast" in out
        assert "search" in out
        assert "smiler_gpu_kernel_launches_total" in out
        assert "smiler_forecast_latency_seconds_bucket" in out

    def test_stats_json_format(self, capsys):
        import json

        assert main(
            ["stats", "--dataset", "MALL", "--steps", "1",
             "--predictor", "ar", "--format", "json"]
        ) == 0
        out = capsys.readouterr().out
        payload = out.split("== metrics ==\n", 1)[1]
        snapshot = json.loads(payload)
        assert "smiler_forecasts_total" in snapshot

    def test_stats_validation(self):
        with pytest.raises(SystemExit):
            main(["stats", "--steps", "0"])


class TestDemo:
    def test_demo_runs(self, capsys):
        assert main(["demo", "--dataset", "MALL", "--steps", "3",
                     "--predictor", "ar"]) == 0
        out = capsys.readouterr().out
        assert "MALL sensor" in out
        assert out.count("\n") >= 4

    def test_demo_validation(self):
        with pytest.raises(SystemExit):
            main(["demo", "--steps", "0"])

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            main(["demo", "--dataset", "XX", "--steps", "2"])


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_experiment_registry_matches_harness(self):
        import repro.harness as harness

        for driver_name, _ in EXPERIMENTS.values():
            assert hasattr(harness, driver_name), driver_name


class TestRunAll:
    def test_run_all_tiny_subset(self, tmp_path, capsys, monkeypatch):
        """run-all with a trimmed registry writes every report file."""
        import repro.cli as cli

        trimmed = {
            "fig1": cli.EXPERIMENTS["fig1"],
            "fig8": cli.EXPERIMENTS["fig8"],
        }
        monkeypatch.setattr(cli, "EXPERIMENTS", trimmed)
        assert cli.main([
            "run-all", "--preset", "tiny", "--out-dir", str(tmp_path)
        ]) == 0
        assert (tmp_path / "fig1.txt").exists()
        assert (tmp_path / "fig8.txt").exists()


class TestProfileRound:
    """``tools/profile_round.py`` on the benchmark's smoke sizes, in a
    process of its own (it pins BLAS threads and freezes the collector)."""

    TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools/profile_round.py"

    def run_tool(self, *args):
        return subprocess.run(
            [sys.executable, str(self.TOOL), *args],
            capture_output=True, text=True, timeout=300,
        )

    def test_layers_prints_every_layer_and_the_glue(self):
        done = self.run_tool("fleet-stream", "--smoke", "--rounds", "3", "--layers")
        assert done.returncode == 0, done.stderr
        assert "3 rounds after 3 warm-ups" in done.stdout
        rows = {}
        for line in done.stdout.splitlines()[2:]:
            rows.setdefault(line.split()[0], line.split())  # glue row is last
        for layer in (
            "forecast_all", "ingest_many", "absorb_many", "tune", "step_many",
            "search_many", "lower_bounds_many", "_search_item",
            "dtw_verification", "k_select",
        ):
            assert float(rows[layer][1]) > 0.0, layer
        # Two shards, two item lengths: four searches a round, two
        # verification launches each.
        assert float(rows["_search_item"][2]) == 4.0
        assert float(rows["dtw_verification"][2]) == 8.0
        assert "_search_item glue" in done.stdout
        # How much reached the kernel, on the row whose wall it explains:
        # rows and DP cells per round (rho=2: min(d, 5) cells per point).
        header = done.stdout.splitlines()[1].split()
        assert header[-2:] == ["rows/round", "cells/round"]
        verified, cells = map(float, rows["dtw_verification"][-2:])
        assert len(rows["dtw_verification"]) == 6 and len(rows["k_select"]) == 4
        assert verified >= 8.0  # at least a row per launch
        assert 8 * 5 * verified <= cells <= 16 * 5 * verified
        # AR sensors: no GP training under forecast_all.
        assert rows["gp_train"][1:3] == ["0.000", "0.0"]

    def test_layers_gp_train_row(self):
        """How much training a GP round asked for: wall, trainings, and
        the objective's value and gradient evaluations per round."""
        done = self.run_tool("gp-forecast", "--smoke", "--rounds", "3", "--layers")
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert lines[2].split()[0] == "forecast_all"
        assert lines[3].startswith("  gp_train")
        _, wall, trainings, values, gradients, *note = lines[3].split()
        assert 0.0 < float(wall) < float(lines[2].split()[1])
        # One sensor, 3 x 3 cells: at most nine trainings a round.
        assert 0.0 < float(trainings) <= 9.0
        # Per training: one gradient at the start and one per accepted
        # step, a value at every line-search candidate.
        assert float(gradients) >= 2.0 * float(trainings)
        assert float(values) > float(gradients)
        assert " ".join(note) == "(value, gradient evaluations)"

    def test_default_is_a_cprofile_table(self):
        done = self.run_tool(
            "fleet-stream", "--smoke", "--rounds", "2", "--sort", "cumulative",
            "--top", "5",
        )
        assert done.returncode == 0, done.stderr
        assert "under cProfile" in done.stdout
        assert "Ordered by: cumulative time" in done.stdout

    def test_bad_arguments(self):
        assert self.run_tool("no-such-workload").returncode == 1
        assert self.run_tool("fleet-stream", "--rounds", "0").returncode == 1
        assert self.run_tool("fleet-stream", "--sort", "calls").returncode == 2
