"""Warping envelopes (Definition B.1), vectorised + streaming maintenance.

``U_i = max(c_{i-rho} .. c_{i+rho})`` and ``L_i`` the analogous minimum,
with the window clipped at sequence boundaries.  Three construction
paths, all producing bit-identical envelopes:

* :func:`compute_envelope` — one sequence, vectorised: pad with
  ``±inf`` sentinels and take the sliding ``2*rho + 1`` max/min by
  log-step doubling (``ceil(log2(2*rho + 1))`` element-wise passes),
* :func:`compute_envelope_batch` — the same passes over a whole
  ``(n_candidates, d)`` batch at once; this is what lets the
  search cascade evaluate Lemire's ``LB_Improved`` second pass for every
  surviving candidate in one NumPy expression,
* :func:`envelope_shift` — streaming reuse for continuous queries:
  sliding a fixed-length query by one point only changes the first
  ``rho`` and last ``rho + 1`` positions, everything in between is the
  old envelope shifted left by one.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Envelope",
    "compute_envelope",
    "compute_envelope_batch",
    "envelope_shift",
]


class Envelope:
    """Upper/lower envelope pair of one sequence for a given warping width."""

    __slots__ = ("upper", "lower", "rho")

    def __init__(self, upper: np.ndarray, lower: np.ndarray, rho: int) -> None:
        self.upper = upper
        self.lower = lower
        self.rho = rho

    def __len__(self) -> int:
        return self.upper.shape[-1]


def _check_rho(rho: int) -> int:
    if rho < 0:
        raise ValueError(f"warping width must be non-negative, got {rho}")
    return int(rho)


def _window_extreme(
    values: np.ndarray, rho: int, extreme, sentinel: float
) -> np.ndarray:
    """``extreme`` over the ``2*rho + 1`` window around every position of
    the last axis, the window clipped at the boundaries.

    ``sentinel`` padding (``-inf`` for a maximum, ``inf`` for a minimum)
    reproduces the clipping exactly.  Log-step doubling: a pass that
    combines the array with itself shifted by ``span`` turns per-position
    extremes over ``span`` points into extremes over ``2 * span``; the
    largest power of two not above the width is reached that way and one
    overlapping pass closes the gap — ``ceil(log2(2*rho + 1))``
    element-wise passes in all.  max/min are exact, so the result equals
    the direct per-window reduction.
    """
    pad = np.full(values.shape[:-1] + (rho,), sentinel)
    out = np.concatenate([pad, values, pad], axis=-1)
    width = 2 * rho + 1
    span = 1
    while 2 * span <= width:
        out = extreme(out[..., :-span], out[..., span:])
        span *= 2
    if span < width:
        gap = width - span
        out = extreme(out[..., :-gap], out[..., gap:])
    return out


def _envelope_arrays(
    values: np.ndarray, rho: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(upper, lower)`` along the last axis of a 1-D or 2-D array."""
    if rho == 0 or values.size == 0:
        return values.copy(), values.copy()
    return (
        _window_extreme(values, rho, np.maximum, -np.inf),
        _window_extreme(values, rho, np.minimum, np.inf),
    )


def compute_envelope(values, rho: int) -> Envelope:
    """Build the envelope of ``values`` with warping width ``rho``."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError("envelope expects a 1-D sequence")
    rho = _check_rho(rho)
    return Envelope(*_envelope_arrays(values, rho), rho)


def compute_envelope_batch(
    values: np.ndarray, rho: int
) -> tuple[np.ndarray, np.ndarray]:
    """Envelopes of many equal-length sequences at once.

    ``values`` has shape ``(n, d)``; returns ``(upper, lower)`` of the
    same shape where row ``i`` is the envelope of ``values[i]``.  The
    passes run over the whole batch — the shape the cascade's
    ``LB_Improved`` tier computes per filter pass.
    """
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    return _envelope_arrays(values, _check_rho(rho))


def envelope_shift(values, old: Envelope) -> Envelope:
    """Envelope of a query slid one step forward, reusing the old one.

    ``values`` is the new query; the caller guarantees
    ``values[:-1] == old_values[1:]`` (the continuous-search slide:
    drop the oldest point, append the newest).  Every interior centre
    ``rho <= i <= n - 2 - rho`` sees exactly the window the old envelope
    saw at ``i + 1``, so only the first ``rho`` positions (whose old
    windows included the dropped point) and the last ``rho + 1``
    positions (whose windows include the appended point) are recomputed.
    The result is the *exact* envelope, not a conservative widening.

    Works along the last axis: a ``(n_queries, n)`` stack of queries with
    an ``old`` envelope of the same shape slides every row at once.
    """
    values = np.asarray(values, dtype=np.float64)
    rho = old.rho
    n = values.shape[-1]
    if values.shape != old.upper.shape:
        raise ValueError(
            f"old envelope covers {len(old)} points but the slid query has {n}"
        )
    head = min(rho, n)          # recompute [0, head)
    tail = max(n - 1 - rho, 0)  # recompute [tail, n)
    if head >= tail:
        return Envelope(*_envelope_arrays(values, rho), rho)
    upper = np.empty(values.shape)
    lower = np.empty(values.shape)
    upper[..., head:tail] = old.upper[..., head + 1 : tail + 1]
    lower[..., head:tail] = old.lower[..., head + 1 : tail + 1]
    # Head: centres [0, head) only see values[0 : head + rho).
    head_upper, head_lower = _envelope_arrays(values[..., : head + rho], rho)
    upper[..., :head] = head_upper[..., :head]
    lower[..., :head] = head_lower[..., :head]
    # Tail: centres [tail, n) only see values[tail - rho :).
    tail_upper, tail_lower = _envelope_arrays(values[..., tail - rho :], rho)
    upper[..., tail:] = tail_upper[..., rho:]
    lower[..., tail:] = tail_lower[..., rho:]
    return Envelope(upper, lower, rho)
