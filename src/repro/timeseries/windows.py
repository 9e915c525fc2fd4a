"""Window decomposition used by the SMiLer Index (Section 4.3.1).

Following the DualMatch framework the series ``C`` is divided into
*disjoint windows* ``DW_r = C[r*omega : (r+1)*omega]`` and the master query
``MQ`` into *sliding windows* ``SW_b`` enumerated right-to-left:
``SW_b`` holds the ``omega`` query points whose distance from the right end
of MQ is ``b .. b+omega-1``.

The module is pure geometry — no lower bounds here — so both the index and
its tests can reason about alignments independently of DTW.
"""

from __future__ import annotations

__all__ = [
    "disjoint_window_count",
    "csg_size",
    "aligned_segment_start",
]


def disjoint_window_count(series_length: int, omega: int) -> int:
    """Number of complete disjoint windows in a series."""
    _check_omega(omega)
    return series_length // omega


def csg_size(item_length: int, b: int, omega: int) -> int:
    """``|CSG_{i,b}|`` — windows in the Catenated Sliding Window Group.

    ``CSG_{i,b} = {SW_b, SW_{b+omega}, ...}`` is the maximal set of
    non-overlapping sliding windows of the item query of length
    ``item_length`` whose rightmost member is ``SW_b`` (Definition 4.2).
    """
    _check_omega(omega)
    if b < 0:
        raise ValueError(f"b must be non-negative, got {b}")
    if item_length - b < omega:
        return 0
    return (item_length - b) // omega


def aligned_segment_start(
    item_length: int, b: int, r: int, omega: int
) -> int:
    """Lemma 4.1: start index ``t`` of the candidate segment ``C_{t,d_i}``.

    When ``CSG_{i,b}`` is aligned with the contiguous disjoint windows whose
    *rightmost* member is ``DW_r``, the item query of length ``item_length``
    is aligned with the segment starting at::

        t = (r - |CSG_{i,b}| + 1) * omega - (d_i - b) % omega

    The caller must check ``t >= 0`` and ``t + d_i <= len(C)``.
    """
    size = csg_size(item_length, b, omega)
    if size == 0:
        raise ValueError(
            f"CSG of item length {item_length} with b={b} is empty "
            f"(omega={omega}); no alignment exists"
        )
    return (r - size + 1) * omega - (item_length - b) % omega


def _check_omega(omega: int) -> None:
    if omega <= 0:
        raise ValueError(f"omega must be positive, got {omega}")
