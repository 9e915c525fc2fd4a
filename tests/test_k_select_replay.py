"""The one stacked k-selection against the per-segment kernel it replaced.

Both backends answer ``k_select`` with ``repro.gpu.kernels.k_smallest``
(one stable argsort, every segment a row); the simulated kernel's only
extra work is its ledger, the distributive-partitioning passes replayed
for every segment in lock step on the sorted rows.  ``_partition_select``
and ``oracle_kernel`` below are the simulated device's previous per-block
selection and the loop that launched it, kept verbatim as the oracle for
the answer and for the pass count the launch is charged with.
"""

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.backend import NativeBackend, SimulatedGpuBackend
from repro.gpu.costmodel import GpuCostModel
from repro.gpu.kernels import (
    OPS_PER_SELECT_ELEM,
    THREADS_PER_BLOCK,
    k_select_kernel,
    k_smallest,
)


# ------------------------------------------------------------------ oracle
def _partition_select(values: np.ndarray, k: int) -> tuple[np.ndarray, int]:
    """One block's selection: ``(indices of the k smallest, passes)``.

    The algorithm range-partitions into 256 buckets, keeps every bucket
    strictly below the one containing the k-th value, and recurses into
    that pivot bucket; each pass touches the surviving elements once.
    """
    n_buckets = 256
    selected: list[np.ndarray] = []
    active = np.arange(values.size)
    remaining = k
    passes = 0
    # Guaranteed to terminate: each pass either resolves ties exactly or
    # strictly shrinks the active pivot bucket.
    while remaining > 0:
        passes += 1
        active_values = values[active]
        lo = float(active_values.min())
        hi = float(active_values.max())
        if lo == hi or passes > 64:
            # All remaining candidates tie (or precision exhausted):
            # take the first `remaining` of them.
            selected.append(active[:remaining])
            remaining = 0
            break
        scale = (n_buckets - 1) / (hi - lo)
        buckets = np.minimum(
            ((active_values - lo) * scale).astype(np.int64), n_buckets - 1
        )
        counts = np.bincount(buckets, minlength=n_buckets)
        cumulative = np.cumsum(counts)
        pivot = int(np.searchsorted(cumulative, remaining))
        below = buckets < pivot
        selected.append(active[below])
        remaining -= int(below.sum())
        active = active[buckets == pivot]

    chosen = np.concatenate(selected) if selected else np.empty(0, dtype=int)
    order = np.argsort(values[chosen], kind="stable")
    return chosen[order], passes


def oracle_kernel(
    cost: GpuCostModel, values: np.ndarray, k: int, offsets
) -> list[np.ndarray]:
    """The previous ``k_select_kernel``: one ``_partition_select`` per
    segment, one launch charged at the slowest block."""
    chosen: list[np.ndarray] = []
    slowest = 0
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        indices, passes = _partition_select(values[lo:hi], min(k, hi - lo))
        chosen.append(indices)
        slowest = max(slowest, passes * (hi - lo))
    cost.launch(
        "k_select",
        n_blocks=len(chosen),
        ops_per_thread=slowest * OPS_PER_SELECT_ELEM / THREADS_PER_BLOCK,
        threads_per_block=THREADS_PER_BLOCK,
    )
    return chosen


class RecordingCost(GpuCostModel):
    """A cost model that also keeps every launch's arguments."""

    def __init__(self):
        super().__init__()
        self.recorded = []

    def launch(self, name, n_blocks, ops_per_thread, threads_per_block=256):
        self.recorded.append((name, n_blocks, ops_per_thread, threads_per_block))
        return super().launch(name, n_blocks, ops_per_thread, threads_per_block)


def ledger(cost: RecordingCost):
    return (
        cost.recorded,
        cost.elapsed_s.hex(),
        {name: s.hex() for name, s in cost.per_kernel_s.items()},
        cost.launches,
    )


def stable_answer(values, k, offsets):
    return [
        np.argsort(values[lo:hi], kind="stable")[:k]
        for lo, hi in zip(offsets[:-1], offsets[1:])
    ]


def assert_same(found, expected, offsets):
    """``found``, one flat array of indices into the values, holds the
    per-segment answers ``expected`` (segment-relative), in order."""
    assert found.ndim == 1
    flat = [index + lo for lo, chosen in zip(offsets, expected) for index in chosen]
    assert found.tolist() == flat


# -------------------------------------------------------------- the inputs
@st.composite
def selections(draw):
    """Ragged segments, ``k`` above and below their sizes, ties made by
    rounding and flooring, constant segments, magnitudes 1e-300..1e300."""
    sizes = draw(st.lists(st.integers(1, 300), min_size=1, max_size=40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["continuous", "rounded", "floored"]))
    values = rng.normal(scale=draw(st.sampled_from([1.0, 50.0])), size=sum(sizes))
    if shape == "rounded":
        values = np.round(values, draw(st.integers(0, 2)))
    elif shape == "floored":
        values = np.floor(values)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    constant = rng.random(len(sizes)) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    for lo, hi in zip(offsets[:-1][constant], offsets[1:][constant]):
        values[lo:hi] = values[lo]
    values = values * 10.0 ** draw(st.integers(-300, 300))
    k = draw(st.integers(1, max(sizes) + 8))
    return values, k, offsets.tolist()


class TestAgainstTheOracle:
    @settings(max_examples=300, deadline=None)
    @given(selections())
    def test_answer_and_charge_equal_the_per_segment_kernel(self, case):
        values, k, offsets = case
        new, old = RecordingCost(), RecordingCost()
        found = k_select_kernel(new, values, k, offsets)
        assert_same(found, stable_answer(values, k, offsets), offsets)
        event("over 10 segments" if len(offsets) > 11 else "up to 10 segments")
        try:
            with np.errstate(invalid="ignore"):
                expected = oracle_kernel(old, values, k, offsets)
        except ValueError:
            # The old kernel could not run this input: a pivot bucket's
            # span too narrow for ``255 / span`` (scale overflows, its
            # bucket indices are garbage and ``np.bincount`` refuses
            # them).  The selection still answers, with one launch.
            event("the per-segment kernel failed")
            assert new.launches == 1
            return
        assert_same(found, expected, offsets)
        assert ledger(new) == ledger(old)

    @settings(max_examples=150, deadline=None)
    @given(selections())
    def test_backends_answer_alike(self, case):
        values, k, offsets = case
        native = NativeBackend().k_select(values, k, offsets)
        simulated = SimulatedGpuBackend().k_select(values, k, offsets)
        assert native.tolist() == simulated.tolist()
        if len(offsets) == 2:
            for backend in (NativeBackend(), SimulatedGpuBackend()):
                assert backend.k_select(values, k).tolist() == native.tolist()

    @pytest.mark.parametrize("k", [1, 7, 300])
    def test_plain_call_is_a_segment_of_one(self, k):
        values = np.round(np.random.default_rng(5).normal(size=120), 1)
        new, old = RecordingCost(), RecordingCost()
        found = k_select_kernel(new, values, k, (0, values.size))
        assert_same(found, oracle_kernel(old, values, k, (0, values.size)), [0])
        assert ledger(new) == ledger(old)


class TestWhereThePassesStop:
    def charge(self, values, k, offsets):
        cost = RecordingCost()
        found = k_select_kernel(cost, values, k, offsets)
        (_, n_blocks, ops_per_thread, _), = cost.recorded
        return found, ops_per_thread * THREADS_PER_BLOCK / OPS_PER_SELECT_ELEM

    def test_constant_segments_take_one_pass(self):
        values = np.array([2.0] * 5 + [-1.5] * 9)
        found, slowest = self.charge(values, 3, [0, 5, 14])
        assert slowest == 1 * 9
        assert found.tolist() == [0, 1, 2, 5, 6, 7]

    def test_the_64_pass_cap_charges_65_and_answers_exactly(self):
        """Values spread over 600 decades narrow about 2.4 decades a
        pass, so no block resolves within 64 passes.  The launch is
        charged 65 passes, as before; the answer is the exact k smallest,
        where the old block took the first of its pivot bucket by index."""
        values = 10.0 ** np.random.default_rng(0).uniform(-300, 300, size=300)
        old = RecordingCost()
        previous = oracle_kernel(old, values, 3, [0, 300])
        found, slowest = self.charge(values, 3, [0, 300])
        assert slowest == 65 * 300
        assert ledger(old)[0] == [("k_select", 1, slowest * 2.0 / 256, 256)]
        assert_same(found, stable_answer(values, 3, [0, 300]), [0])
        assert previous[0].tolist() != found.tolist()

    def test_a_span_too_narrow_to_scale_ends_the_block(self):
        """``255 / 5e-324`` overflows: the old block computed NaN bucket
        indices and failed in ``np.bincount``; the replay ends the block
        on that pass (the second) and the answer is the smallest value."""
        values = np.array([0.0, 5e-324, 1.0])
        with pytest.raises(ValueError), np.errstate(invalid="ignore"):
            oracle_kernel(GpuCostModel(), values, 1, [0, 3])
        found, slowest = self.charge(values, 1, [0, 3])
        assert slowest == 2 * 3
        assert found.tolist() == [0]

    def test_k_smallest_pads_rows_behind_a_segments_own_infinities(self):
        values = np.array([np.inf, 1.0, np.inf, 5.0, -np.inf])
        chosen, rows, sizes = k_smallest(values, 4, [0, 3, 5])
        assert sizes.tolist() == [[3], [2]]
        # One column past the longest segment: every row ends in +inf.
        assert rows.tolist() == [
            [np.inf, 1.0, np.inf, np.inf], [5.0, -np.inf, np.inf, np.inf]
        ]
        # Indices into the values: the second segment's start at 3.
        assert chosen.tolist() == [1, 0, 2, 4, 3]
