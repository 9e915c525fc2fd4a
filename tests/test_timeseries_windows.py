"""Tests for the DualMatch window geometry and CSG alignment math."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.timeseries import (
    aligned_segment_start,
    csg_size,
    disjoint_window_count,
)


def csg_window_ids(item_length, b, omega):
    """``CSG_{i,b} = {SW_b, SW_{b+omega}, ...}`` (Definition 4.2), as
    sliding-window ids: ``csg_size`` of them, ``omega`` apart."""
    return [b + j * omega for j in range(csg_size(item_length, b, omega))]


class TestDisjointWindows:
    def test_count(self):
        assert disjoint_window_count(12, 4) == 3
        assert disjoint_window_count(13, 4) == 3
        assert disjoint_window_count(3, 4) == 0

    def test_bad_omega(self):
        with pytest.raises(ValueError):
            disjoint_window_count(10, 0)


class TestCsg:
    def test_example_4_1(self):
        # Paper Example 4.1: |MQ| = 9, omega = 3.
        # CSG_0 = {SW_0, SW_3, SW_6}, CSG_1 = {SW_1, SW_4}, CSG_2 = {SW_2, SW_5}.
        assert csg_window_ids(9, 0, 3) == [0, 3, 6]
        assert csg_window_ids(9, 1, 3) == [1, 4]
        assert csg_window_ids(9, 2, 3) == [2, 5]
        # Item query IQ_0 with d_0 = 6 (prefix property).
        assert csg_window_ids(6, 0, 3) == [0, 3]
        assert csg_window_ids(6, 1, 3) == [1]
        assert csg_window_ids(6, 2, 3) == [2]

    def test_csg_prefix_property(self):
        # CSG_{i,b} is always a prefix of CSG_b of the master query.
        for b in range(3):
            short = csg_window_ids(6, b, 3)
            long = csg_window_ids(9, b, 3)
            assert long[: len(short)] == short

    def test_empty_csg(self):
        assert csg_size(4, 3, 3) == 0
        assert csg_window_ids(4, 3, 3) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            csg_size(9, -1, 3)
        with pytest.raises(ValueError):
            aligned_segment_start(4, 3, 2, 3)


class TestAlignment:
    def test_example_4_2(self):
        # Paper Example 4.2 (Fig. 4/5): omega = 3, IQ_0 has d = 6 and the
        # thread pairs (SW_0, DW_3) + (SW_3, DW_2) giving segment C_{6,6};
        # adding (SW_6, DW_1) extends to IQ_1 (d = 9) giving C_{3,9}.
        assert aligned_segment_start(6, 0, 3, 3) == 6
        assert aligned_segment_start(9, 0, 3, 3) == 3

    @given(
        d=st.integers(4, 64),
        omega=st.integers(2, 8),
        series_len=st.integers(64, 200),
    )
    def test_theorem_4_2_unique_alignment(self, d, omega, series_len):
        """Every valid segment start t has exactly one (b, r) alignment."""
        seen: dict[int, tuple[int, int]] = {}
        for b in range(omega):
            m = csg_size(d, b, omega)
            if m == 0:
                continue
            for r in range(m - 1, disjoint_window_count(series_len, omega)):
                t = aligned_segment_start(d, b, r, omega)
                if t < 0 or t + d > series_len:
                    continue
                assert t not in seen, (
                    f"t={t} aligned twice: {seen[t]} and {(b, r)}"
                )
                seen[t] = (b, r)
        if d >= 2 * omega - 1:
            # When every candidate has a non-empty CSG the enumeration
            # covers every start position.
            expected = set(range(series_len - d + 1))
            assert set(seen) == expected

    @given(
        d=st.integers(6, 40),
        omega=st.integers(2, 6),
    )
    def test_lemma_4_1_alignment_geometry(self, d, omega):
        """The aligned segment fully covers its CSG's disjoint windows."""
        series_len = 120
        for b in range(omega):
            m = csg_size(d, b, omega)
            if m == 0:
                continue
            for r in range(m - 1, disjoint_window_count(series_len, omega)):
                t = aligned_segment_start(d, b, r, omega)
                if t < 0 or t + d > series_len:
                    continue
                # Leftmost aligned DW starts at (r - m + 1) * omega and the
                # rightmost ends at (r + 1) * omega; both inside [t, t+d).
                assert t <= (r - m + 1) * omega
                assert (r + 1) * omega <= t + d
                # The query points to the right of DW_r number exactly b.
                assert (t + d) - (r + 1) * omega == b
