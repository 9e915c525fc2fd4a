"""``--smoke`` (8 sensors, 10 rounds) of every workload completes, passes
its output checks and emits every named metric."""

import json
import subprocess
import sys

import pytest

from catalogue import E2E, LAYER
from conftest import ROUNDBENCH
from workloads import WORKLOADS

#: End-to-end metrics that are null by definition on some workloads.
NULLABLE = {
    "sim_s_per_round": {"fleet-stream", "fleet-stream-proc", "gp-forecast"},
    "restore_p50_ms": set(WORKLOADS) - {"churn-faulted"},
}


def _run(*args):
    done = subprocess.run(
        [sys.executable, str(ROUNDBENCH / "run.py"), *args],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_smoke_emits_every_contract_metric(workload):
    out = _run("--workload", workload, "--seed", "5", "--smoke", "--trace", "0")
    last = json.loads(out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    assert list(last["metrics"]) == [m.name for m in E2E if m.contract]
    for name, metric in last["metrics"].items():
        assert metric["value"] > 0, name
    # the human-readable part names all thirteen, null only where stated
    for metric in E2E:
        line = next(l for l in out.splitlines() if l.split()[:1] == [metric.name])
        is_null = line.split()[1] == "null"
        assert is_null == (workload in NULLABLE.get(metric.name, ())), line


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_smoke_emits_every_layer_metric_and_a_trace(workload):
    out = _run("--workload", workload, "--seed", "5", "--smoke", "--trace", "1")
    last = json.loads(out.strip().splitlines()[-1])
    assert last["correct"] is True
    assert list(last["metrics"]) == [m.name for m in LAYER]
    assert all(
        isinstance(m["value"], float) for m in last["metrics"].values()
    )
    trace = json.loads(
        (ROUNDBENCH / "out" / f"trace-{workload}-5.json").read_text()
    )
    assert {"id", "parent", "name", "round", "sensor", "start_ns", "end_ns"} == set(
        trace["spans"][0]
    )
    names = {span["name"] for span in trace["spans"]}
    assert {"round", "service.forecast_all", "service.ingest_many", "probe",
            "core.predict", "index.search", "dtw.dtw_batch_pruned",
            "backend.k_select"} <= names
    if workload == "gp-forecast":
        assert last["metrics"]["gp.fit_ms"]["value"] > 0
    else:
        assert last["metrics"]["gp.fit_ms"]["value"] == 0
