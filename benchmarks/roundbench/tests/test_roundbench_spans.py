import pytest

from spans import (
    Tracer,
    durations_ms,
    self_times_ns,
    supported_percentile,
)


def _span(id, parent, start, end, name="x"):
    return {"id": id, "parent": parent, "name": name, "round": 0,
            "sensor": None, "start_ns": start, "end_ns": end}


def test_self_time_is_duration_minus_what_children_cover():
    spans = [
        _span(0, None, 0, 100),
        _span(1, 0, 10, 30),
        _span(2, 0, 40, 70),
        _span(3, 2, 45, 50),
    ]
    selfs = self_times_ns(spans)
    assert selfs == {0: 100 - 20 - 30, 1: 20, 2: 30 - 5, 3: 5}


def test_overlapping_and_overhanging_children_are_counted_once():
    spans = [
        _span(0, None, 0, 100),
        _span(1, 0, 10, 60),
        _span(2, 0, 40, 80),    # overlaps child 1 on [40, 60)
        _span(3, 0, 90, 130),   # overhangs the parent's end
    ]
    assert self_times_ns(spans)[0] == 100 - 70 - 10


def test_tracer_nests_and_numbers_spans():
    tracer = Tracer()
    tracer.round = 4
    with tracer.span("round"):
        with tracer.span("probe", sensor="s001"):
            pass
        tracer.add("service.forecast_all", 5, 9)
    by_name = {s["name"]: s for s in tracer.spans}
    assert by_name["round"]["parent"] is None
    assert by_name["probe"]["parent"] == by_name["round"]["id"]
    assert by_name["service.forecast_all"]["parent"] == by_name["round"]["id"]
    assert by_name["probe"]["sensor"] == "s001"
    assert {s["round"] for s in tracer.spans} == {4}
    assert by_name["round"]["end_ns"] >= by_name["probe"]["end_ns"]
    assert durations_ms(tracer.spans, "service.forecast_all") == [4e-6]


@pytest.mark.parametrize("n, expected", [
    (10, None), (19, None), (20, 50), (39, 50), (40, 75), (99, 75),
    (100, 90), (199, 90), (200, 95), (999, 95), (1000, 99),
])
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    assert supported_percentile(n) == expected
