import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mms import canon
from mms.canon import _key_of_hnf, generator_matrix, hnf, member_hnfs
from mms.enumeration import (
    ORBIT_WORDS,
    _iter_full_rank_sets,
    enumerate_simplices,
    orbit_codes,
    vertex_list,
)
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
def test_member_hnfs_are_the_hnfs_of_the_walked_members(monkeypatch, n, two_d):
    # the plain walk, then the orderly one, whose orbit sizes sum to the same
    rows = vertex_list(n, two_d)
    for codes in (None, orbit_codes(n, two_d)):
        members, walked = [], 0
        for p in range(len(rows)):
            for pts, greatest, size in _iter_full_rank_sets(rows, n, p, codes):
                assert pts[0] == (0,) * n
                assert pts[1] == rows[p]
                members.append(pts)
                walked += size
                if codes is None:
                    assert (size, greatest) == (1, pts)
        assert walked == sum(1 for _ in enumerate_simplices(n, two_d))
        expected = [hnf(generator_matrix(SimplicialSet(pts))) for pts in members]
        assert member_hnfs(members) == expected
        # stacks of 3 matrices; one of the two lists ends in a partial stack
        monkeypatch.setattr(canon, "ORBIT_BATCH", 3)
        assert member_hnfs(members) == expected
        assert member_hnfs(members[1:]) == expected[1:]
        monkeypatch.undo()
    assert member_hnfs([]) == []


def test_member_hnfs_move_past_the_int64_bound_to_python_ints():
    big = ((0, 0), (0, 2), (2**70, 2))
    assert member_hnfs([big]) == [hnf(generator_matrix(SimplicialSet(big)))]


@pytest.mark.parametrize("n, two_d", [(3, 6), (2, 20)])  # 19 rows in one word, 65 in two
def test_orbit_codes_code_each_row_by_its_permuted_row(n, two_d):
    rows = vertex_list(n, two_d)
    codes = orbit_codes(n, two_d)
    words = -(-len(rows) // 64)
    assert codes.shape == (math.factorial(n), len(rows), words)
    # the identity first; row j sets bit 63 - j % 64 of word j // 64
    for s, perm in enumerate(itertools.permutations(range(n))):
        for i, row in enumerate(rows):
            j = rows.index(tuple(row[k] for k in perm))
            expected = [0] * words
            expected[j // 64] = 1 << (63 - j % 64)
            assert codes[s, i].tolist() == expected
    assert orbit_codes(n, two_d) is codes  # built once per shape


def test_orbit_codes_are_refused_past_their_word_bound():
    # 8x4 fits (8! * 44 rows * 1 word); 9x4 does not, and nothing is allocated
    assert math.factorial(8) * len(vertex_list(8, 4)) <= ORBIT_WORDS
    assert math.factorial(9) * len(vertex_list(9, 4)) > ORBIT_WORDS
    assert orbit_codes(9, 4) is None


def _orbit(pts):
    """Every vertex tuple that a coordinate permutation makes of ``pts``."""
    return {
        tuple(sorted(tuple(p[j] for j in perm) for p in pts))
        for perm in itertools.permutations(range(len(pts[0])))
    }


@pytest.mark.parametrize("n, two_d", [(2, 8), (3, 4), (3, 6), (4, 4)])
def test_orderly_walk_yields_each_orbit_once_by_its_least_member(n, two_d):
    # brute force: the least member of every orbit of full-rank sets, with
    # the orbit's size and greatest member, in lex order
    expected = {}
    for delta in enumerate_simplices(n, two_d):
        orbit = _orbit(delta.points)
        expected[min(orbit)] = (len(orbit), max(orbit))
    rows = vertex_list(n, two_d)
    got = [
        (pts, (size, greatest))
        for pts, greatest, size in _iter_full_rank_sets(rows, n, None, orbit_codes(n, two_d))
    ]
    assert got == sorted(expected.items())


def _by_key(walk):
    """Key -> (count, least, greatest) of a walk: the orbit sizes summed,
    the least set and the greatest of the orbits' greatest members."""
    walk = list(walk)
    by_key = {}
    for key, (pts, greatest, size) in zip(_key_of_hnf(member_hnfs([w[0] for w in walk])), walk):
        count, least, top = by_key.get(key, (0, pts, greatest))
        by_key[key] = (count + size, min(least, pts), max(top, greatest))
    return by_key


@pytest.mark.parametrize("n, two_d", [(2, 16), (3, 6), (3, 10), (4, 4), (5, 4), (6, 4)])
def test_orderly_walk_gives_each_key_the_plain_walks_count_and_members(n, two_d):
    # the plain walk is the oracle.  One HNF does not do: the sets of an
    # orbit share a key, but their column orders and so their HNFs differ
    rows = vertex_list(n, two_d)
    codes = orbit_codes(n, two_d)
    ascending = [p for p, row in enumerate(rows) if list(row) == sorted(row)]
    orderly = itertools.chain.from_iterable(
        _iter_full_rank_sets(rows, n, p, codes) for p in ascending
    )
    assert _by_key(orderly) == _by_key(_iter_full_rank_sets(rows, n))
