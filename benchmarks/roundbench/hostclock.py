"""A yardstick for the host's speed, timed beside every round.

Wall-clock on a shared 2-core VM drifts with what the neighbours do: the
same commit on the same seed read 128 ms and 188 ms per round minutes
apart, and a fixed loop's time swings +-20 % from one second to the
next (no steal time is reported; the cores themselves get slower).  A
median over the rounds of one run cannot remove a drift that outlasts
the run.

So the benchmark times a fixed NumPy/Python kernel — many small array
calls over a few megabytes plus an interpreter loop, the mix the serving
round is made of, but none of the program's code — right before and
after every round, and reports end-to-end timings in *reference
milliseconds*: ``wall x REFERENCE_MS / kernel wall``.  The kernel's time
follows the drift (r about 0.7 per round) and dividing by it cut the
spread between 3-second stretches of one run from 10-11 % to 2.5-3 %.
A change to the program moves the round and not the kernel, so it shows
in full.  Raw wall medians are printed beside the normalised ones.
"""

from __future__ import annotations

import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["REFERENCE_MS", "HostClock"]

#: What one kernel pass takes on this class of host when it is quiet;
#: timings are scaled to a host where it takes exactly this long.
REFERENCE_MS = 2.0


class HostClock:
    """The yardstick kernel.  ``sample()`` runs one pass and returns its
    wall in milliseconds."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        # 64 x 6000 doubles: 3 MB, walked 16 arrays per pass.
        self._pool = [rng.normal(size=6000) for _ in range(64)]
        self._picks = np.arange(0, 5000, 7)
        self._next = 0

    def sample(self) -> float:
        t0 = time.perf_counter_ns()
        first = self._next
        for offset in range(16):
            values = self._pool[(first + offset) % 64]
            segments = sliding_window_view(values, 16)[self._picks]
            distances = ((segments - values[:16]) ** 2).sum(axis=1)
            np.argpartition(distances, 8)[:8]
            np.maximum.accumulate(values[:800])
            np.minimum(values[:3000], values[3000:]).sum()
            sums = np.cumsum(values)
            (sums[16:] - sums[:-16]).max()
        self._next = first + 16
        total = 0
        for i in range(3000):
            total += i * i
        return (time.perf_counter_ns() - t0) / 1e6

    def round_ms(self, driver, between=None):
        """Drive one round with the yardstick on either side; returns the
        round's record and its wall in reference milliseconds.  A first,
        discarded pass reloads the kernel's working set, so the sample
        before the round reads the same whatever ran before it (a probe
        leaves the caches colder than a plain round does)."""
        self.sample()
        before = self.sample()
        record = driver.round(between)
        host_ms = (before + self.sample()) / 2.0
        return record, record.round_ms * REFERENCE_MS / host_ms
