import numpy as np

from workloads import (
    MAX_ROUNDS,
    WARMUP_ROUNDS,
    WORKLOADS,
    generate,
    n_streams,
    smoke_variant,
)


def test_generator_is_a_pure_function_of_workload_and_seed():
    for workload in WORKLOADS.values():
        if workload.history > 5000:
            continue  # same code path; keep the test quick
        first = generate(workload, 2015)
        assert np.array_equal(first, generate(workload, 2015))
        assert not np.array_equal(first, generate(workload, 7))
        assert first.shape == (
            n_streams(workload), workload.history + WARMUP_ROUNDS + MAX_ROUNDS
        )
        assert np.isfinite(first).all()


def test_process_workload_gets_byte_identical_inputs():
    inline = generate(WORKLOADS["fleet-stream"], 11)
    process = generate(WORKLOADS["fleet-stream-proc"], 11)
    assert inline.tobytes() == process.tobytes()


def test_workloads_with_other_inputs_get_other_streams():
    fleet = generate(WORKLOADS["fleet-stream"], 11)
    churn = generate(WORKLOADS["churn-faulted"], 11)
    assert not np.array_equal(fleet[0, :280], churn[0, :280])


def test_smoke_streams_are_the_full_runs_first_streams():
    workload = WORKLOADS["fleet-stream"]
    smoke = smoke_variant(workload)
    assert smoke.sensors == 8 and smoke.min_rounds == 10
    assert np.array_equal(generate(smoke, 3), generate(workload, 3)[:8])


def test_churn_has_a_fresh_stream_for_every_replacement():
    workload = WORKLOADS["churn-faulted"]
    assert n_streams(workload) == workload.sensors + MAX_ROUNDS // 2
