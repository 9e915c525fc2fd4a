"""Fault-profile spec grammar: the parser covers its whole image.

The property pinned here is the round trip over the parser's entire
image: for every profile the spec grammar can express,
``parse_fault_profile(spec_of(p)) == p`` — including bit-exact float
rates (``repr`` round-tripping) and the ``burst`` window.  ``spec_of``
writes the spec a user would type; registered profiles parse from their
bare name.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.faults import FAULT_PROFILE_NAMES, FaultProfile, parse_fault_profile


def spec_of(profile: FaultProfile) -> str:
    """A spec string for ``profile``: a registered profile's bare name,
    else ``seed=…`` plus every non-default field (floats by ``repr``, so
    the text round trip is bit-exact)."""
    for name in FAULT_PROFILE_NAMES:
        if profile == parse_fault_profile(name):
            return name
    assert profile.name == "custom", "the grammar cannot carry other names"
    parts = [f"seed={profile.seed}"]
    for key, field in (
        ("kernel_error", "kernel_error_rate"), ("nan", "kernel_nan_rate"),
        ("malloc_error", "malloc_error_rate"), ("latency", "added_latency_s"),
    ):
        if getattr(profile, field) != 0.0:
            parts.append(f"{key}={getattr(profile, field)!r}")
    if profile.dies_at_tick is not None:
        parts.append(f"dies_at={profile.dies_at_tick}")
    if profile.burst is not None:
        parts.append("burst={}:{}".format(*profile.burst))
    return ",".join(parts)


rates = st.floats(
    min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False
)
latencies = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)
ticks = st.integers(min_value=0, max_value=2**40)

#: Every profile the spec grammar can express (the parser's image):
#: ad-hoc profiles are always named "custom".
custom_profiles = st.builds(
    FaultProfile,
    name=st.just("custom"),
    seed=st.integers(min_value=-(2**31), max_value=2**63),
    kernel_error_rate=rates,
    kernel_nan_rate=rates,
    malloc_error_rate=rates,
    added_latency_s=latencies,
    dies_at_tick=st.none() | ticks,
    burst=st.none() | st.tuples(
        st.integers(min_value=0, max_value=2**30),
        st.integers(min_value=1, max_value=2**30),
    ).map(lambda p: (p[0], p[0] + p[1])),
)


@given(custom_profiles)
def test_round_trip_over_the_parser_image(profile):
    assert parse_fault_profile(spec_of(profile)) == profile


@pytest.mark.parametrize("name", FAULT_PROFILE_NAMES)
def test_registered_profiles_format_as_their_name(name):
    profile = parse_fault_profile(name)
    assert profile.name == name
    assert spec_of(profile) == name


def test_near_named_profile_falls_back_to_spec():
    """Equal rates but the ad-hoc name: must not format as the
    registered name (parse would return a different ``name`` field)."""
    flaky = parse_fault_profile("flaky-kernels")
    twin = dataclasses.replace(flaky, name="custom")
    spec = spec_of(twin)
    assert spec != "flaky-kernels"
    assert parse_fault_profile(spec) == twin


def test_default_profile_survives_despite_empty_overrides():
    """The all-defaults profile must format to a non-empty spec (the
    parser rejects empty strings)."""
    profile = FaultProfile()
    spec = spec_of(profile)
    assert spec
    assert parse_fault_profile(spec) == profile
