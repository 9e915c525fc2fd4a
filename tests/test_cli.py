"""Tests for the command-line interface."""

import importlib.util
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.cli import EXPERIMENTS, main
from repro.dtw.distance import BLOCK_ROWS


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


class TestServe:
    """The one serving loop and its three reporters."""

    def test_trace_and_metrics_reporters(self, tmp_path, capsys, monkeypatch):
        import json

        from repro.obs.chrome import validate_chrome_trace

        monkeypatch.chdir(tmp_path)
        assert main(
            ["serve", "--sensors", "8", "--backends", "4", "--steps", "2",
             "--predictor", "ar", "--trace-out", "t.json",
             "--metrics-out", "m.json"]
        ) == 0
        out = capsys.readouterr().out
        assert out.count("\n   0  road-") == out.count("\n   1  road-") == 8
        payload = json.loads((tmp_path / "t.json").read_text())
        validate_chrome_trace(payload)
        lanes = {
            event["args"]["name"]
            for event in payload["traceEvents"]
            if event["ph"] == "M" and event["name"] == "thread_name"
            and event["args"]["name"].startswith("lane-")
        }
        assert len(lanes) == 4, lanes
        metrics = json.loads((tmp_path / "m.json").read_text())
        assert "smiler_lane_sensors_total" in metrics

    def test_telemetry_prints_trace_and_prometheus(self, capsys):
        assert main(
            ["serve", "--dataset", "MALL", "--steps", "2",
             "--predictor", "ar", "--telemetry", "prom"]
        ) == 0
        out = capsys.readouterr().out
        tree = out.split("== first forecast_all trace ==\n", 1)[1]
        tree = tree.split("\n\n", 1)[0]
        assert "forecast" in tree
        assert "search" in tree  # the first round is the one that searches
        assert "smiler_gpu_kernel_launches_total" in out
        assert "smiler_request_latency_seconds_bucket" in out
        assert "smiler_forecasts_total{horizon=" in out

    def test_telemetry_json_parses(self, capsys):
        import json

        assert main(
            ["serve", "--dataset", "MALL", "--steps", "1",
             "--predictor", "ar", "--telemetry", "json"]
        ) == 0
        out = capsys.readouterr().out
        snapshot = json.loads(out.split("== metrics ==\n", 1)[1])
        assert "smiler_forecasts_total" in snapshot

    def test_one_line_per_sensor_per_round(self, capsys):
        assert main(["serve", "--dataset", "MALL", "--steps", "3",
                     "--predictor", "ar"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("MALL fleet: 1 sensors")
        assert lines[1].split() == [
            "step", "sensor", "prediction", "truth", "source"
        ]
        assert [line.split()[:2] for line in lines[2:]] == [
            [str(step), "mall-000"] for step in range(3)
        ]

    def test_validation(self):
        for flag in ("--steps", "--sensors", "--backends"):
            with pytest.raises(SystemExit):
                main(["serve", flag, "0"])

    def test_telemetry_validation(self):
        from repro import obs

        for fmt in ("prom", "json"):
            with pytest.raises(SystemExit):
                main(["serve", "--steps", "0", "--telemetry", fmt])
            assert not obs.is_enabled()

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            main(["serve", "--dataset", "XX", "--steps", "2"])

    def test_without_a_reporter_stays_uninstrumented(self, capsys):
        from repro import obs

        assert main(["serve", "--steps", "1", "--predictor", "ar"]) == 0
        assert not obs.is_enabled()


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
            "forecast_all", "predict_cells", "mix", "ingest_many", "absorb_many",
            "tune",
            "step_many", "_tube_excess", "search_many", "lower_bounds_many",
            "_search_lane", "dtw_verification", "k_select",
        ):
            assert float(rows[layer][1]) > 0.0, layer
        # Two shards, one grid: the ensemble lane tunes and mixes once
        # per shard.
        assert float(rows["tune"][2]) == 2.0
        assert float(rows["mix"][2]) == 2.0
        # The family dispatch between them: once per shard (one horizon
        # asked), never per sensor or per cell.
        assert float(rows["predict_cells"][2]) == 2.0
        assert float(rows["predict_cells"][1]) >= float(rows["gp_train"][1])
        # Per window step, one LB_EQ and one LB_EC sum for the tail
        # columns and one of each for the refreshed windows.
        assert float(rows["_tube_excess"][2]) == 8.0
        # Two shards: two lane searches a round, each serving both item
        # lengths with two verification launches.
        assert float(rows["_search_lane"][2]) == 2.0
        assert float(rows["dtw_verification"][2]) == 4.0
        assert "_search_lane glue" in done.stdout
        # How much reached the kernel, on the row whose wall it explains:
        # rows, band cells and anti-diagonals per round (rho=2: a row read
        # up to d=8 computes 8*5 - 2*3 = 34 cells, up to d=16 74; a launch
        # of under 1024 rows is one block, 2*8 - 1 or 2*16 - 1 diagonals).
        header = done.stdout.splitlines()[1].split()
        assert header[-3:] == ["rows/round", "cells/round", "diagonals/round"]
        verified, cells, diagonals = map(float, rows["dtw_verification"][-3:])
        assert len(rows["dtw_verification"]) == 7 and len(rows["k_select"]) == 5
        launches = float(rows["dtw_verification"][2])
        assert 15 * launches <= diagonals <= 31 * launches
        # Two shards of four sensors, two item lengths: two selections a
        # round, a segment (one row of the stacked selection) per sensor
        # and item length.
        assert float(rows["k_select"][2]) == 2.0
        assert float(rows["k_select"][-1]) == 16.0
        assert verified >= 4.0  # at least a row per launch
        assert 34 * verified <= cells <= 74 * verified
        # AR sensors: no GP training under forecast_all.
        assert rows["gp_train"][1:3] == ["0.000", "0.0"]
        assert rows["loo_values"][1:3] == ["0.000", "0.0"]
        assert rows["loo_gradients"][1:3] == ["0.000", "0.0"]

    def test_diagonals_are_counted_per_block_of_a_launch(self):
        """``2 x longest - 1`` per ``BLOCK_ROWS`` block, each block's
        longest needed suffix, the rows taken longest first."""
        spec = importlib.util.spec_from_file_location("profile_round", self.TOOL)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        entry = [0.0, 0, 0, 0, 0, 0, 0]
        count = tool._counting_rows(lambda *args: None, entry)
        n = 2 * BLOCK_ROWS + 1
        need = np.ones(n, dtype=int)
        need[7:1107] = 2
        need[[1500, 3]] = 3
        count(None, np.zeros((n, 16)), np.zeros((n, 16)), 2, (4, 9, 16), need)
        assert entry[4] == 31 + 17 + 7
        count(None, np.zeros((n, 12)), np.zeros((n, 12)), 2)
        assert entry[4] == 55 + 3 * 23
        count(None, np.zeros((0, 12)), np.zeros((0, 12)), 2, (4, 12), need[:0])
        assert entry[2] == 2 * n and entry[4] == 55 + 3 * 23

    def test_layers_k_select_row_on_a_simulated_workload(self):
        """churn-faulted runs the simulated backend behind seeded kernel
        faults while sensors come and go: its k_select row counts the
        stacked selections and the segments they took per round."""
        done = self.run_tool("churn-faulted", "--smoke", "--rounds", "3", "--layers")
        assert done.returncode == 0, done.stderr
        assert "3 rounds after 3 warm-ups" in done.stdout
        rows = {}
        for line in done.stdout.splitlines()[2:]:
            rows.setdefault(line.split()[0], line.split())
        _, wall, calls, _, segments = rows["k_select"]
        assert float(wall) > 0.0
        # 7 selections in 3 rounds, fewer than the 9 lane searches (a
        # search a fault fails before it selects is retried), 50
        # (sensor, item length) segments.
        assert (calls, rows["_search_lane"][2], segments) == ("2.3", "3.0", "16.7")

    def test_layers_gp_train_row(self):
        """How much training a GP round asked for: wall, cells trained,
        the objective's value and gradient evaluations, and the stacked
        calls of the lane that answered them, per round."""
        done = self.run_tool("gp-forecast", "--smoke", "--rounds", "3", "--layers")
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert lines[2].split()[0] == "forecast_all"
        assert lines[3].startswith("  predict_cells")
        assert lines[4].startswith("    gp_train")
        _, wall, trainings, values, gradients, stacked_values, \
            stacked_gradients, *note = lines[4].split()
        assert 0.0 < float(wall) < float(lines[3].split()[1])
        assert float(lines[3].split()[1]) < float(lines[2].split()[1])
        # One sensor, 3 x 3 cells: at most nine trainings a round.
        assert 0.0 < float(trainings) <= 9.0
        # Per training: one gradient at the start and one per accepted
        # step the run goes on from, a value at every line-search
        # candidate.
        assert float(gradients) >= 2.0 * float(trainings)
        assert float(values) > float(gradients)
        # The lane answers many members' requests with one stacked call.
        assert 0.0 < float(stacked_values) <= float(values)
        assert 0.0 < float(stacked_gradients) <= float(gradients)
        assert " ".join(note) == (
            "(trainings; value, gradient evaluations; stacked value, "
            "gradient calls)"
        )
        # The stacked calls themselves, under gp_train: one call each.
        assert lines[5].startswith("      loo_values")
        assert lines[6].startswith("      loo_gradients")
        _, values_wall, value_calls = lines[5].split()
        _, gradients_wall, gradient_calls = lines[6].split()
        assert (value_calls, gradient_calls) == (stacked_values, stacked_gradients)
        assert 0.0 < float(values_wall) + float(gradients_wall) < float(wall)

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
