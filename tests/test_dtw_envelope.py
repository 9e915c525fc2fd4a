"""Tests for envelope construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.dtw import compute_envelope

floats = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)


def naive_envelope(values, rho):
    n = len(values)
    upper = np.empty(n)
    lower = np.empty(n)
    for i in range(n):
        lo = max(0, i - rho)
        hi = min(n, i + rho + 1)
        upper[i] = values[lo:hi].max()
        lower[i] = values[lo:hi].min()
    return upper, lower


class TestComputeEnvelope:
    def test_rho_zero_is_identity(self):
        x = np.array([3.0, -1.0, 2.0])
        env = compute_envelope(x, 0)
        np.testing.assert_array_equal(env.upper, x)
        np.testing.assert_array_equal(env.lower, x)

    def test_simple_case(self):
        x = np.array([0.0, 5.0, 1.0, 1.0])
        env = compute_envelope(x, 1)
        np.testing.assert_array_equal(env.upper, [5.0, 5.0, 5.0, 1.0])
        np.testing.assert_array_equal(env.lower, [0.0, 0.0, 1.0, 1.0])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 80), rho=st.integers(0, 12))
    def test_matches_naive(self, data, n, rho):
        x = data.draw(arrays(np.float64, (n,), elements=floats))
        env = compute_envelope(x, rho)
        upper, lower = naive_envelope(x, rho)
        np.testing.assert_array_equal(env.upper, upper)
        np.testing.assert_array_equal(env.lower, lower)

    @given(data=st.data(), n=st.integers(1, 40), rho=st.integers(0, 6))
    @settings(max_examples=30, deadline=None)
    def test_envelope_sandwiches_values(self, data, n, rho):
        x = data.draw(arrays(np.float64, (n,), elements=floats))
        env = compute_envelope(x, rho)
        assert (env.upper >= x).all()
        assert (env.lower <= x).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            compute_envelope(np.arange(4.0), -1)
        with pytest.raises(ValueError):
            compute_envelope(np.zeros((2, 2)), 1)
