import json

from compare import bounds_table, compare_sets, format_rows, load_set, spread
from conftest import ROUNDBENCH

BENCHMARK_JSON = ROUNDBENCH.parent.parent / "BENCHMARK.json"


def _write_set(path, scale=1.0, failed_share=0.0):
    runs = []
    for jitter in (0.99, 1.0, 1.01, 1.0, 0.995):
        runs.append({"fleet-stream": {"metrics": {
            "round_p50_ms": {"value": 120.0 * jitter * scale, "unit": "ms"},
            "sensor_ticks_per_s": {"value": 400.0 / jitter, "unit": "1/s"},
            "failed_share": {"value": failed_share, "unit": "ratio"},
            "sim_s_per_round": {"value": None, "unit": "s"},
        }}})
    path.write_text(json.dumps({"runs": runs}))
    return path


def _verdicts(a, b, **bounds):
    """Rows by metric; ``bounds`` override BENCHMARK.json's, so the logic
    is tested apart from whatever the A/A runs last set the bounds to."""
    table = {
        **bounds_table(BENCHMARK_JSON),
        **{name: (bound, False) for name, bound in bounds.items()},
    }
    rows = compare_sets(load_set(a), load_set(b), table)
    return {row.metric: row for row in rows}


def test_identical_pair_passes(tmp_path):
    a = _write_set(tmp_path / "a.json")
    rows = _verdicts(a, a)
    assert set(rows) == {"round_p50_ms", "sensor_ticks_per_s", "failed_share"}
    assert all(row.verdict == "pass" for row in rows.values())
    assert all(row.worse_by == 0 for row in rows.values())


def test_fifteen_percent_slower_round_is_flagged(tmp_path):
    a = _write_set(tmp_path / "a.json")
    b = _write_set(tmp_path / "b.json", scale=1.15)
    rows = _verdicts(a, b, round_p50_ms=0.10)
    assert rows["round_p50_ms"].verdict == "fail"
    assert abs(rows["round_p50_ms"].worse_by - 0.15) < 1e-9
    assert _verdicts(a, b, round_p50_ms=0.20)["round_p50_ms"].verdict == "pass"
    assert rows["sensor_ticks_per_s"].verdict == "pass"
    assert "1 fail" in format_rows(list(rows.values()))


def test_faster_is_never_a_failure_and_direction_is_respected(tmp_path):
    a = _write_set(tmp_path / "a.json", scale=1.15)
    b = _write_set(tmp_path / "b.json")
    assert _verdicts(a, b)["round_p50_ms"].verdict == "pass"


def test_absolute_bound_on_failed_share(tmp_path):
    a = _write_set(tmp_path / "a.json")
    b = _write_set(tmp_path / "b.json", failed_share=0.001)
    row = _verdicts(a, b)["failed_share"]
    assert row.absolute and row.verdict == "fail"


def test_spread_wider_than_the_bound_is_unresolved():
    table = {"round_p50_ms": (0.10, False)}
    noisy = {"w": {"round_p50_ms": [100.0, 140.0, 90.0, 130.0, 100.0]}}
    rows = compare_sets(noisy, noisy, {**bounds_table(BENCHMARK_JSON), **table})
    assert [r.verdict for r in rows] == ["unresolved"]
    assert spread([1.0]) == 0.0
