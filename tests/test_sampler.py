"""Seeded sampling: substream determinism and sample validity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mms.geometry import is_even_point
from mms.sampler import (
    SamplerConfig,
    sample_simplex,
    sample_stream,
)


def test_config_rejects_bad_dimension():
    with pytest.raises(ValueError):
        SamplerConfig(n=0, two_d=4, seed=1, count=1)


def test_config_rejects_odd_degree():
    with pytest.raises(ValueError):
        SamplerConfig(n=2, two_d=5, seed=1, count=1)


def test_config_rejects_degree_below_two():
    with pytest.raises(ValueError):
        SamplerConfig(n=2, two_d=0, seed=1, count=1)


def test_config_rejects_nonpositive_count():
    with pytest.raises(ValueError):
        SamplerConfig(n=2, two_d=4, seed=1, count=0)


def test_config_rejects_oversized_seed():
    with pytest.raises(ValueError):
        SamplerConfig(n=2, two_d=4, seed=2**64, count=1)
    with pytest.raises(ValueError):
        SamplerConfig(n=2, two_d=4, seed=-1, count=1)


# frozen draws; any change here is a break in the determinism contract
@pytest.mark.parametrize(
    "n,two_d,seed,index,expected",
    [
        (2, 6, 0, 0, "0,0;4,2;6,0"),
        (2, 6, 0, 1, "0,0;2,4;4,0"),
        (3, 4, 42, 0, "0,0,0;0,0,4;2,2,0;4,0,0"),
        (4, 16, 20240514, 5, "0,0,0,0;0,10,0,2;2,0,8,0;6,0,8,2;6,8,0,2"),
    ],
)
def test_sample_simplex_golden(n, two_d, seed, index, expected):
    assert str(sample_simplex(n, two_d, seed, index)) == expected


def test_stream_golden_prefix():
    cfg = SamplerConfig(n=2, two_d=6, seed=7, count=6)
    assert [str(s) for s in sample_stream(cfg)] == [
        "0,0;0,6;4,2",
        "0,0;2,2;4,0",
        "0,0;2,0;2,4",
        "0,0;2,2;6,0",
        "0,0;0,2;2,4",
        "0,0;2,2;2,4",
    ]


def test_stream_matches_per_index_regeneration():
    cfg = SamplerConfig(n=3, two_d=6, seed=99, count=40)
    streamed = [str(s) for s in sample_stream(cfg)]
    regenerated = [str(sample_simplex(3, 6, 99, i)) for i in range(40)]
    assert streamed == regenerated


def test_stream_repeatable_across_runs():
    cfg = SamplerConfig(n=2, two_d=8, seed=1234, count=50)
    assert [str(s) for s in sample_stream(cfg)] == [
        str(s) for s in sample_stream(cfg)
    ]


def test_prefix_stability_under_count():
    # growing the count never changes earlier draws
    short = [str(s) for s in sample_stream(SamplerConfig(2, 6, 5, 10))]
    long = [str(s) for s in sample_stream(SamplerConfig(2, 6, 5, 25))]
    assert long[:10] == short


def test_distinct_seeds_disagree():
    a = [str(s) for s in sample_stream(SamplerConfig(3, 8, 1, 20))]
    b = [str(s) for s in sample_stream(SamplerConfig(3, 8, 2, 20))]
    assert a != b


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=4),
    two_d=st.sampled_from([2, 4, 6, 8]),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    index=st.integers(min_value=0, max_value=500),
)
def test_sampled_simplices_are_valid(n, two_d, seed, index):
    s = sample_simplex(n, two_d, seed, index)
    assert s.ambient_dim == n
    assert s.simplex_dim == n
    assert (0,) * n in s.points
    assert s.points == tuple(sorted(s.points))
    assert s.max_degree <= two_d
    for p in s.points:
        assert is_even_point(p)
