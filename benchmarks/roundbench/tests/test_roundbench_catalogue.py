"""BENCHMARK.json and the catalogue name the same things, and the file
keeps to the limits the benchmark contract sets."""

import json
import re

from catalogue import E2E, LAYER
from conftest import ROUNDBENCH
from workloads import WORKLOADS

SPEC = json.loads((ROUNDBENCH.parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_keys_and_limits():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["benchmarks/roundbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer")
             for x in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_workloads_match_the_catalogue():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert all(
        len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"]
    )


def test_end_to_end_is_the_contract_subset():
    listed = [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]]
    assert listed == [(m.name, m.unit, m.better) for m in E2E if m.contract]
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(m.bound is not None for m in E2E if not m.contract)


def test_per_layer_matches_and_every_metric_says_what_it_moves():
    listed = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert listed == [(m.name, m.unit, m.better) for m in LAYER]
    assert all(m.moves for m in LAYER)
