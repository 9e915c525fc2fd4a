"""Tests for LB_Kim / LB_Keogh / LB_EQ / LB_EC (LB_en is their max) and the
profile helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.dtw import (
    compute_envelope,
    dtw_distance,
    lb_ec,
    lb_eq,
    lb_keogh,
    lb_kim,
    lb_profile,
    window_pair_lb_matrices,
)
from repro.dtw.lower_bounds import _tube_excess

floats = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def seq(length):
    return arrays(np.float64, (length,), elements=floats)


class TestLowerBoundProperty:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), length=st.integers(2, 24), rho=st.integers(0, 6))
    def test_lb_never_exceeds_dtw(self, data, length, rho):
        q = data.draw(seq(length))
        c = data.draw(seq(length))
        dist = dtw_distance(q, c, rho=rho)
        assert lb_eq(q, c, rho) <= dist + 1e-9
        assert lb_ec(q, c, rho) <= dist + 1e-9

    def test_lb_en_tighter_than_parts(self):
        rng = np.random.default_rng(1)
        tighter_than_eq = tighter_than_ec = 0
        for _ in range(50):
            q, c = rng.normal(size=20), rng.normal(size=20)
            eq_, ec_ = lb_eq(q, c, 2), lb_ec(q, c, 2)
            en = max(eq_, ec_)  # LB_en, Theorem 4.1
            tighter_than_eq += en > eq_
            tighter_than_ec += en > ec_
        # On random data each one-sided bound loses sometimes.
        assert tighter_than_eq > 0
        assert tighter_than_ec > 0

    def test_identical_sequences_zero(self):
        x = np.arange(8.0)
        assert lb_eq(x, x, 2) == lb_ec(x, x, 2) == 0.0

    def test_lb_keogh_zero_inside_envelope(self):
        x = np.array([0.0, 1.0, 0.0, -1.0])
        env = compute_envelope(x, 1)
        inside = np.array([0.5, 0.5, -0.5, -0.5])
        assert lb_keogh(env, inside) == 0.0

    def test_lb_keogh_length_mismatch(self):
        env = compute_envelope(np.arange(4.0), 1)
        with pytest.raises(ValueError):
            lb_keogh(env, np.arange(5.0))


class TestLbProfile:
    @settings(max_examples=25, deadline=None)
    @given(
        data=st.data(),
        d=st.integers(3, 12),
        n=st.integers(16, 48),
        rho=st.integers(0, 4),
    )
    def test_profile_bounds_every_segment(self, data, d, n, rho):
        q = data.draw(seq(d))
        series = data.draw(seq(n))
        lbeq, lbec = lb_profile(q, series, rho)
        assert lbeq.size == n - d + 1
        for t in range(n - d + 1):
            dist = dtw_distance(q, series[t : t + d], rho=rho)
            assert lbeq[t] <= dist + 1e-9
            assert lbec[t] <= dist + 1e-9

    def test_profile_query_too_long(self):
        with pytest.raises(ValueError):
            lb_profile(np.arange(10.0), np.arange(5.0), 2)

    def test_profile_exact_match_is_zero(self):
        series = np.sin(np.arange(50.0))
        q = series[20:30].copy()
        lbeq, lbec = lb_profile(q, series, 3)
        assert lbeq[20] == 0.0
        assert lbec[20] == 0.0


class TestWindowPairMatrices:
    def _build(self, query, series, omega, rho):
        q_env = compute_envelope(query, rho)
        s_env = compute_envelope(series, rho)
        # SW_0, SW_1, ... right to left, and the complete DW blocks.
        d = query.size
        n_sw = max(d - omega + 1, 0)
        sw = np.array(
            [query[d - b - omega : d - b] for b in range(n_sw)]
        ).reshape(n_sw, omega)
        sw_upper = np.stack(
            [q_env.upper[d - b - omega : d - b] for b in range(n_sw)]
        )
        sw_lower = np.stack(
            [q_env.lower[d - b - omega : d - b] for b in range(n_sw)]
        )
        n_dw = series.size // omega
        dw = series[: n_dw * omega].reshape(n_dw, omega)
        dw_upper = s_env.upper[: n_dw * omega].reshape(n_dw, omega)
        dw_lower = s_env.lower[: n_dw * omega].reshape(n_dw, omega)
        return window_pair_lb_matrices(sw, sw_upper, sw_lower, dw, dw_upper, dw_lower)

    def test_shapes(self):
        rng = np.random.default_rng(0)
        query, series = rng.normal(size=12), rng.normal(size=40)
        lbeq, lbec = self._build(query, series, omega=4, rho=2)
        assert lbeq.shape == (9, 10)
        assert lbec.shape == (9, 10)
        assert (lbeq >= 0).all() and (lbec >= 0).all()

    def test_empty(self):
        lbeq, lbec = window_pair_lb_matrices(
            np.empty((0, 4)), np.empty((0, 4)), np.empty((0, 4)),
            np.empty((0, 4)), np.empty((0, 4)), np.empty((0, 4)),
        )
        assert lbeq.shape == (0, 0)

    def test_entries_match_scalar_computation(self):
        """Entry (b, r) equals the omega-point partial LB computed directly."""
        rng = np.random.default_rng(1)
        query, series = rng.normal(size=10), rng.normal(size=24)
        omega, rho = 3, 2
        lbeq, lbec = self._build(query, series, omega, rho)
        q_env = compute_envelope(query, rho)
        s_env = compute_envelope(series, rho)
        d = query.size
        for b in range(lbeq.shape[0]):
            sw_slice = slice(d - b - omega, d - b)
            for r in range(lbeq.shape[1]):
                dw_slice = slice(r * omega, (r + 1) * omega)
                dwv = series[dw_slice]
                above = np.clip(dwv - q_env.upper[sw_slice], 0, None)
                below = np.clip(q_env.lower[sw_slice] - dwv, 0, None)
                assert lbeq[b, r] == pytest.approx((above**2 + below**2).sum())
                swv = query[sw_slice]
                above = np.clip(swv - s_env.upper[dw_slice], 0, None)
                below = np.clip(s_env.lower[dw_slice] - swv, 0, None)
                assert lbec[b, r] == pytest.approx((above**2 + below**2).sum())


def _two_clip_tube_excess(values, upper, lower):
    """``_tube_excess`` as it was before its one-sided form, verbatim."""
    above = np.clip(values - upper, 0.0, None)
    below = np.clip(lower - values, 0.0, None)
    return (above**2 + below**2).sum(axis=-1)


#: Small integers, halves and signed zeros: tube edges, ``lower ==
#: upper`` and ±0.0 excesses come up in most draws.
_grid = st.sampled_from([-3.0, -1.5, -0.0, 0.0, 0.5, 1.0, 2.0]) | floats


class TestTubeExcessOneSided:
    @settings(max_examples=120, deadline=None)
    @given(
        data=st.data(),
        omega=st.sampled_from([1, 4, 7, 8, 16, 17]),
        shape=st.sampled_from([(), (3,), (2, 5), (2, 1, 3)]),
    )
    def test_equals_the_two_clip_form_bit_for_bit(self, data, omega, shape):
        """Any tube with ``lower <= upper`` (equal included), values
        inside, outside and on its edge, operands that broadcast."""
        full = shape + (omega,)
        a = data.draw(arrays(np.float64, full, elements=_grid))
        b = data.draw(arrays(np.float64, full, elements=_grid))
        lower, upper = np.minimum(a, b), np.maximum(a, b)
        values = data.draw(arrays(np.float64, full, elements=_grid))
        on_edge = data.draw(arrays(np.int8, full, elements=st.integers(0, 3)))
        values = np.where(on_edge == 1, upper, np.where(on_edge == 2, lower, values))
        cases = [(values, upper, lower)]
        if shape:  # the posting refresh's pairing: values x tubes
            cases.append((
                values[..., None, :, :], upper[..., :, None, :],
                lower[..., :, None, :],
            ))
        for v, u, lo in cases:
            ours = _tube_excess(v, u, lo)
            theirs = _two_clip_tube_excess(v, u, lo)
            assert ours.shape == theirs.shape
            assert ours.tobytes() == theirs.tobytes()

    def test_the_refresh_shape(self):
        """The posting refresh's stacked operands: ``(S, n_sw, n_dw, omega)``."""
        rng = np.random.default_rng(3)
        values = rng.normal(size=(2, 1, 60, 16))
        centre = rng.normal(size=(2, 25, 1, 16))
        width = np.abs(rng.normal(size=(2, 25, 1, 16))) * (rng.random((2, 25, 1, 16)) < 0.8)
        ours = _tube_excess(values, centre + width, centre - width)
        assert ours.shape == (2, 25, 60)
        assert np.array_equal(
            ours, _two_clip_tube_excess(values, centre + width, centre - width)
        )

    def test_the_omega_major_refresh_shape(self):
        """``fleet-stream``'s refresh, ``omega = 4``: summed omega-major,
        the same bytes as the last-axis oracle."""
        rng = np.random.default_rng(4)
        values = rng.normal(size=(24, 1, 75, 4))
        centre = rng.normal(size=(24, 3, 1, 4))
        width = np.abs(rng.normal(size=(24, 3, 1, 4))) * (rng.random((24, 3, 1, 4)) < 0.8)
        ours = _tube_excess(values, centre + width, centre - width)
        theirs = _two_clip_tube_excess(values, centre + width, centre - width)
        assert ours.shape == (24, 3, 75) and ours.flags.c_contiguous
        assert ours.tobytes() == theirs.tobytes()


class TestLbKim:
    def test_known_value(self):
        assert lb_kim([1.0, 5.0, 2.0], [0.0, 9.0, 4.0]) == pytest.approx(1.0 + 4.0)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 500),
        n=st.integers(2, 20),
        rho=st.integers(0, 6),
    )
    def test_lower_bounds_dtw(self, seed, n, rho):
        rng = np.random.default_rng(seed)
        q, c = rng.normal(size=n), rng.normal(size=n)
        assert lb_kim(q, c) <= dtw_distance(q, c, rho=rho) + 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            lb_kim([], [])
