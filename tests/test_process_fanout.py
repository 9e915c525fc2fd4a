"""Process engine fan-out: every shard worker starts its lane at dispatch.

On a small host the first shard worker the parent wakes with its batch
command used to preempt the parent before it had sent the next shard
its command, so lanes meant to run side by side ran one after the
other.  Shard workers therefore run under ``SCHED_BATCH``, which Linux
grants without privileges and which never preempts on wake-up.  Where
the policy is refused the workers run as before and serve the same
bits.
"""

import os
import sys

import pytest

from .test_exec_parity import (
    assert_batches_identical,
    build_service,
    drive,
    make_workload,
)

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux") or not hasattr(os, "SCHED_BATCH"),
    reason="SCHED_BATCH is a Linux scheduling policy",
)


def test_every_shard_worker_runs_under_sched_batch():
    histories, _ = make_workload(n_sensors=8)
    service = build_service("native", "process", n_backends=2)
    try:
        for sensor_id, history in histories.items():
            service.register(sensor_id, history)
        batch = service.forecast_all()
        assert not batch.errors and set(batch) == set(histories)
        pids = service.engine.worker_pids()
        assert len(pids) == 2
        assert {
            pid: os.sched_getscheduler(pid) for pid in pids.values()
        } == {pid: os.SCHED_BATCH for pid in pids.values()}
        # The parent keeps its own policy: only the workers yield to it.
        assert os.sched_getscheduler(0) != os.SCHED_BATCH
    finally:
        service.close()


def test_a_refused_policy_serves_the_inline_bits(monkeypatch):
    """``sched_setscheduler`` refused in the worker (a seccomp filter, a
    container policy): the worker carries on under the policy it
    inherited and the batches stay bit-identical to the inline
    engine's."""
    calls = []

    def refuse(*args):
        calls.append(args)
        raise PermissionError(1, "Operation not permitted")

    histories, futures = make_workload(n_sensors=12)
    reference = drive(
        build_service("native", "inline", n_backends=2), histories, futures
    )
    # Patched before the fork: every worker inherits the refusal.
    monkeypatch.setattr(os, "sched_setscheduler", refuse)
    service = build_service("native", "process", n_backends=2)
    inherited = os.sched_getscheduler(0)
    policies = []
    real_forecast_all = service.forecast_all

    def forecast_all_and_look(*args, **kwargs):
        batch = real_forecast_all(*args, **kwargs)
        policies.extend(
            os.sched_getscheduler(pid)
            for pid in service.engine.worker_pids().values()
        )
        return batch

    service.forecast_all = forecast_all_and_look
    batches, singles, placements, elapsed, ledgers = drive(
        service, histories, futures
    )
    assert policies and set(policies) == {inherited}
    assert not calls  # the refusals happened in the workers, not here
    assert_batches_identical(reference[0], batches)
    assert singles == reference[1]
    assert placements == reference[2]
    assert elapsed == reference[3]
    assert ledgers == reference[4]
