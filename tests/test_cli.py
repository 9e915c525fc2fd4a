"""Tests for the command-line interface."""

import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from repro.cli import EXPERIMENTS, main
from repro import obs
from repro.backend import make_backend
from repro.dtw.distance import BLOCK_ROWS, launch_work


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
            "step_many", "_tube_excess", "search", "lower_bounds",
            "_search_lane", "dtw_verification", "k_select",
        ):
            assert float(rows[layer][1]) > 0.0, layer
        # Two native shards on the inline engine are one lane, one grid:
        # the ensemble lane tunes and mixes once a round.
        assert float(rows["tune"][2]) == 1.0
        assert float(rows["mix"][2]) == 1.0
        # The family dispatch between them: once a round (one horizon
        # asked), never per shard, sensor or cell.
        assert float(rows["predict_cells"][2]) == 1.0
        assert float(rows["predict_cells"][1]) >= float(rows["gp_train"][1])
        # Per window step, one LB_EQ and one LB_EC sum for the tail
        # columns and one of each for the refreshed windows.
        assert float(rows["_tube_excess"][2]) == 4.0
        # Work columns of the index maintenance.  Eight sensors at rho=2:
        # a row refreshes SW_0 and those of SW_1, SW_2 whose envelope the
        # new point changed, 1 to 3 windows.  The search asks the
        # shift-sum for its one bound mode: one array per item length, two
        # a lane.  A steady lane (no sensor joined, left or was restored)
        # seeds every row from the stacked union, none alone.
        assert rows["step_many"][5:] == ["(LB_EQ", "windows", "refreshed)"]
        assert 8.0 <= float(rows["step_many"][4]) <= 24.0
        assert rows["lower_bounds"][4:] == [
            "2.0", "(bound", "arrays", "written)"
        ]
        assert rows["dtw_refine"][4:] == [
            "0.0", "(seed", "rows", "chosen", "alone)"
        ]
        # One fused lane: one search a round, serving both item lengths
        # with two verification launches.
        assert float(rows["_search_lane"][2]) == 1.0
        assert float(rows["dtw_verification"][2]) == 2.0
        assert "_search_lane glue" in done.stdout
        # How much reached the kernel, on the row whose wall it explains:
        # rows, band cells and anti-diagonals per round (rho=2: a row read
        # up to d=8 computes 8*5 - 2*3 = 34 cells, up to d=16 74; a launch
        # of under 1024 rows is one block, 2*8 - 1 or 2*16 - 1 diagonals),
        # then the cells computed and the rows abandoned under the
        # survivor launch's cutoff: fewer cells exactly when a row was.
        header = done.stdout.splitlines()[1].split()
        assert header[-5:] == [
            "rows/round", "cells/round", "diagonals/round", "computed/round",
            "abandoned/round",
        ]
        verified, cells, diagonals, computed, abandoned = map(
            float, rows["dtw_verification"][-5:]
        )
        assert len(rows["dtw_verification"]) == 9 and len(rows["k_select"]) == 5
        assert 0.0 <= abandoned <= verified and computed <= cells
        assert (abandoned == 0.0) == (computed == cells)
        launches = float(rows["dtw_verification"][2])
        assert 15 * launches <= diagonals <= 31 * launches
        # Eight sensors in one lane, two item lengths: one selection a
        # round, a segment (one row of the stacked selection) per sensor
        # and item length.
        assert float(rows["k_select"][2]) == 1.0
        assert float(rows["k_select"][-1]) == 16.0
        assert verified >= 4.0  # at least a row per launch
        assert 34 * verified <= cells <= 74 * verified
        # AR sensors: no GP training under forecast_all.
        assert rows["gp_train"][1:3] == ["0.000", "0.0"]
        assert rows["loo_values"][1:3] == ["0.000", "0.0"]
        assert rows["loo_gradients"][1:3] == ["0.000", "0.0"]

    def test_diagonals_are_counted_per_block_of_a_launch(self):
        """``2 x longest - 1`` per ``BLOCK_ROWS`` block, each block's
        longest needed suffix, the rows taken longest first: the
        ``dtw_verification`` span's attrs, summed over three launches."""
        n = 2 * BLOCK_ROWS + 1
        need = np.ones(n, dtype=int)
        need[7:1107] = 2
        need[[1500, 3]] = 3
        backend = make_backend("native")
        totals = {"rows": 0, "cells": 0, "diagonals": 0}

        def launch(*args):
            obs.enable()
            try:
                with obs.span("search") as root:
                    backend.dtw_verification(*args)
            finally:
                obs.disable()
                obs.reset()
            [span] = root.find_all("dtw_verification")
            for attr in totals:
                totals[attr] += span.attrs[attr]

        launch(np.zeros((n, 16)), np.zeros((n, 16)), 2, (4, 9, 16), need)
        assert totals["diagonals"] == 31 + 17 + 7
        assert launch_work((n, 16), 2, (4, 9, 16), need)["diagonals"] == 31 + 17 + 7
        launch(np.zeros((n, 12)), np.zeros((n, 12)), 2)
        assert totals["diagonals"] == 55 + 3 * 23
        launch(np.zeros((0, 12)), np.zeros((0, 12)), 2, (4, 12), need[:0])
        assert totals["rows"] == 2 * n and totals["diagonals"] == 55 + 3 * 23

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
        # A sensor that joined (or a search a fault failed) has no
        # stacked answers: its rows are seeded alone, not its lane's —
        # 8 of the 50 (sensor, item length) rows in 3 rounds.
        assert rows["dtw_refine"][4] == "2.7"

    def test_layers_gp_train_row(self):
        """How much training a GP round asked for: wall, cells trained,
        the objective's value and gradient evaluations, and the stacked
        calls of the lane that answered them, per round."""
        done = self.run_tool("gp-forecast", "--smoke", "--rounds", "3", "--layers")
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert lines[2].split()[0] == "forecast_all"
        at = {}  # each layer's row; the summary lines after them repeat names
        for n, line in enumerate(lines[2:], 2):
            at.setdefault(line.split()[0], n)
        depth = {
            name: (len(lines[n]) - len(lines[n].lstrip())) // 2
            for name, n in at.items()
        }
        # Each row nests under its parent in the layer table.
        chain = ("predict_cells", "gp_fit", "gp_train", "loo_values")
        assert [depth[name] for name in chain] == list(
            range(depth["predict_cells"], depth["predict_cells"] + 4)
        )
        assert depth["loo_gradients"] == depth["loo_values"]
        assert at["predict_cells"] < at["gp_fit"] < at["gp_train"]
        assert at["gp_train"] + 1 == at["loo_values"] == at["loo_gradients"] - 1
        predict_cells = lines[at["predict_cells"]].split()
        _, wall, trainings, values, gradients, stacked_values, \
            stacked_gradients, *note = lines[at["gp_train"]].split()
        assert 0.0 < float(wall) < float(predict_cells[1])
        assert float(predict_cells[1]) < float(lines[2].split()[1])
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
        _, values_wall, value_calls = lines[at["loo_values"]].split()
        _, gradients_wall, gradient_calls = lines[at["loo_gradients"]].split()
        assert (value_calls, gradient_calls) == (stacked_values, stacked_gradients)
        assert 0.0 < float(values_wall) + float(gradients_wall) < float(wall)

    def test_process_engine_rows_equal_the_inline_rows(self):
        """``fleet-stream-proc`` is ``fleet-stream``'s inputs through the
        process engine: the shard workers' spans come back with their
        lanes, so every work column counted per sensor reads the same.
        The process engine runs a lane per shard where the inline engine
        fuses the two native shards into one, so every layer a lane runs
        is called twice as often, and so is a per-launch count."""
        def columns(workload):
            done = self.run_tool(workload, "--smoke", "--rounds", "3", "--layers")
            assert done.returncode == 0, done.stderr
            rows = {}
            for line in done.stdout.splitlines()[2:]:  # the layer rows first
                name, _, calls, *rest = line.split()
                rows.setdefault(name, [calls] + [
                    word for word in rest if not word.endswith("%")
                ])
            return rows

        inline, process = columns("fleet-stream"), columns("fleet-stream-proc")
        assert process.keys() == inline.keys()
        for name, (calls, *_) in inline.items():
            if name in ("forecast_all", "ingest_many", "breaker_transition"):
                assert process[name] == inline[name], name
            else:
                assert float(process[name][0]) == 2 * float(calls), name
        for name in ("step_many", "dtw_refine", "k_select", "gp_train"):
            assert process[name][1:] == inline[name][1:], name
        verified = inline["dtw_verification"]
        assert process["dtw_verification"][1:3] == verified[1:3]
        assert float(verified[3]) < float(process["dtw_verification"][3])
        assert float(process["dtw_verification"][3]) <= 2 * float(verified[3])
        assert process["lower_bounds"][2:] == inline["lower_bounds"][2:]
        assert float(process["lower_bounds"][1]) == 2 * float(
            inline["lower_bounds"][1]
        )
        assert float(process["dtw_verification"][0]) == 4.0
        assert float(process["step_many"][1]) > 0.0

    def test_sensors_sets_the_fleet_size(self):
        """``--sensors`` serves the workload at another fleet size: three
        sensors refresh one to three LB_EQ windows each a round."""
        done = self.run_tool(
            "fleet-stream", "--smoke", "--sensors", "3", "--rounds", "2",
            "--layers",
        )
        assert done.returncode == 0, done.stderr
        assert "fleet-stream seed=7 sensors=3: 2 rounds" in done.stdout
        rows = {line.split()[0]: line.split() for line in done.stdout.splitlines()[2:]}
        assert 3.0 <= float(rows["step_many"][4]) <= 9.0

    def test_default_is_a_cprofile_table(self):
        done = self.run_tool(
            "fleet-stream", "--smoke", "--rounds", "2", "--sort", "cumulative",
            "--top", "5",
        )
        assert done.returncode == 0, done.stderr
        assert "under cProfile" in done.stdout
        assert "Ordered by: cumulative time" in done.stdout
        # The header counts calls a round without the ``<string>`` key
        # (generated methods, whose counts pstats merges); the table's
        # total keeps it, so it can only read more.
        header, total = done.stdout.splitlines()[:2]
        calls = re.search(
            r"under cProfile, ([0-9.]+) calls/round without <string> entries;",
            header,
        )
        assert calls is not None, header
        table = re.search(r"(\d+) function calls", total)
        assert 0.0 < float(calls.group(1)) <= int(table.group(1)) / 2

    def test_bad_arguments(self):
        assert self.run_tool("no-such-workload").returncode == 1
        assert self.run_tool("fleet-stream", "--rounds", "0").returncode == 1
        assert self.run_tool("fleet-stream", "--sort", "calls").returncode == 2
        assert self.run_tool("fleet-stream", "--sensors", "0").returncode == 1
