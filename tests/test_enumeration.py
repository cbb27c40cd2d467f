import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mms.canon import hnf, transpose
from mms.enumeration import _iter_full_rank_sets, enumerate_simplices, vertex_list
from mms.geometry import SimplicialSet, is_even_point, linear_rank, one_norm


def test_vertex_list_2_4_golden():
    assert vertex_list(2, 4) == ((0, 2), (0, 4), (2, 0), (2, 2), (4, 0))


@pytest.mark.parametrize("n, two_d", [(1, 2), (1, 6), (2, 4), (2, 10), (3, 6), (4, 4)])
def test_vertex_list_count(n, two_d):
    rows = vertex_list(n, two_d)
    assert len(rows) == math.comb(n + two_d // 2, n) - 1
    assert list(rows) == sorted(rows)
    for p in rows:
        assert is_even_point(p) and any(p) and one_norm(p) <= two_d


def test_vertex_list_is_built_once_per_shape():
    # every sample draw reads the vertex list of its shape
    assert vertex_list(3, 8) is vertex_list(3, 8)


def test_vertex_list_validation():
    with pytest.raises(ValueError):
        vertex_list(0, 4)
    with pytest.raises(ValueError):
        vertex_list(2, 3)
    with pytest.raises(ValueError):
        vertex_list(2, 0)


def test_enumerate_2_4_golden_list():
    got = [str(s) for s in enumerate_simplices(2, 4)]
    assert got == [
        "0,0;0,2;2,0",
        "0,0;0,2;2,2",
        "0,0;0,2;4,0",
        "0,0;0,4;2,0",
        "0,0;0,4;2,2",
        "0,0;0,4;4,0",
        "0,0;2,0;2,2",
        "0,0;2,2;4,0",
    ]


@pytest.mark.parametrize(
    "n, two_d, expected",
    [(2, 2, 1), (2, 4, 8), (2, 6, 30), (2, 8, 78), (2, 10, 169), (3, 4, 51)],
)
def test_enumeration_counts(n, two_d, expected):
    assert sum(1 for _ in enumerate_simplices(n, two_d)) == expected


@pytest.mark.parametrize("n, two_d", [(1, 6), (2, 6), (3, 4), (4, 4), (5, 4)])
def test_enumeration_matches_brute_force(n, two_d):
    # n = 1: the walk's first level is its last
    rows = vertex_list(n, two_d)
    origin = (0,) * n
    brute = sorted(
        tuple(sorted((origin,) + combo))
        for combo in itertools.combinations(rows, n)
        if linear_rank(combo) == n
    )
    got = [s.points for s in enumerate_simplices(n, two_d)]
    assert got == brute


def test_enumerated_simplices_are_valid_and_ordered():
    serials = []
    for s in enumerate_simplices(3, 4):
        SimplicialSet.of(s.points)  # re-validate the trusted constructor path
        assert s.simplex_dim == s.ambient_dim == 3
        assert s.max_degree <= 4
        assert s.points[0] == (0, 0, 0)
        serials.append(s.points)
    assert len(set(serials)) == len(serials)


@pytest.mark.parametrize("n, two_d", [(2, 8), (3, 4)])
def test_partitions_are_disjoint_and_exhaustive(n, two_d):
    m = len(vertex_list(n, two_d))
    seen = []
    for p in range(m):
        part = [s.points for s in enumerate_simplices(n, two_d, partition=p)]
        # within one partition the smallest nonzero vertex is fixed
        for pts in part:
            assert pts[1] == vertex_list(n, two_d)[p]
        seen.extend(part)
    full = [s.points for s in enumerate_simplices(n, two_d)]
    assert sorted(seen) == sorted(full)
    assert len(seen) == len(set(seen))


def test_partition_out_of_range():
    with pytest.raises(ValueError):
        list(enumerate_simplices(2, 4, partition=5))


@given(st.integers(min_value=1, max_value=3), st.sampled_from([2, 4, 6]))
def test_enumeration_is_strictly_lex_ordered(n, two_d):
    prev = None
    for s in enumerate_simplices(n, two_d):
        if prev is not None:
            assert s.points > prev
        prev = s.points


@pytest.mark.parametrize("n, two_d", [(2, 16), (3, 6), (4, 4)])
def test_walk_yields_the_hnf_of_each_vertex_matrix(n, two_d):
    rows = vertex_list(n, two_d)
    walked = 0
    for p in range(len(rows)):
        for pts, cols in _iter_full_rank_sets(rows, n, p):
            assert pts[0] == (0,) * n
            assert pts[1] == rows[p]
            assert transpose(cols) == hnf(transpose(pts[1:]))
            walked += 1
    assert walked == sum(1 for _ in enumerate_simplices(n, two_d))
