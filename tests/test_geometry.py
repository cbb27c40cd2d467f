import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from strategies import small_simplices

from mms import geometry
from mms.geometry import (
    SimplicialSet,
    affinely_independent,
    barycentric_coordinates,
    contains,
    even_lattice_points,
    format_point,
    is_even_point,
    lattice_points,
    linear_rank,
    midpoint_set,
    one_norm,
    parse_point,
    strictly_interior,
    _det_and_adjugate,
    _integral_points,
    _nonneg_ball,
)

MOTZKIN = SimplicialSet.parse("0,0;2,4;4,2")
HURWITZ2 = SimplicialSet.parse("0,0;4,0;0,4")


def test_parse_format_round_trip():
    assert parse_point("3,0,12") == (3, 0, 12)
    assert format_point((3, 0, 12)) == "3,0,12"
    assert parse_point(format_point((0,))) == (0,)


@pytest.mark.parametrize(
    "point, expected",
    [((0, 0), True), ((2, 4), True), ((1, 2), False), ((0,), True), ((3,), False)],
)
def test_is_even_point(point, expected):
    assert is_even_point(point) is expected


def test_one_norm():
    assert one_norm((0, 0)) == 0
    assert one_norm((2, 4)) == 6
    assert one_norm((1, 2, 3, 4)) == 10


def test_linear_rank_small():
    assert linear_rank([]) == 0
    assert linear_rank([(0, 0)]) == 0
    assert linear_rank([(2, 4)]) == 1
    assert linear_rank([(2, 4), (4, 8)]) == 1
    assert linear_rank([(2, 4), (4, 2)]) == 2
    assert linear_rank([(2, 0, 0), (0, 2, 0), (2, 2, 0)]) == 2


def test_affinely_independent():
    assert affinely_independent([(0, 0), (2, 4), (4, 2)])
    assert not affinely_independent([(0, 0), (2, 2), (4, 4)])
    # translation invariance: an affine criterion, not a linear one
    assert affinely_independent([(2, 2), (4, 6), (6, 4)])


def test_simplicial_set_of_validates():
    with pytest.raises(ValueError):
        SimplicialSet.of([])
    with pytest.raises(ValueError):
        SimplicialSet.of([(0, 0), (1, 2)])  # odd vertex
    with pytest.raises(ValueError):
        SimplicialSet.of([(0, 0), (2, 2), (4, 4)])  # dependent
    with pytest.raises(ValueError):
        SimplicialSet.of([(0, 0), (2, 2, 0)])  # mixed dims


def test_simplicial_set_sorts_and_round_trips():
    d = SimplicialSet.of([(4, 2), (0, 0), (2, 4)])
    assert d.points == ((0, 0), (2, 4), (4, 2))
    assert str(d) == "0,0;2,4;4,2"
    assert SimplicialSet.parse(str(d)) == d


def test_simplicial_set_properties():
    assert MOTZKIN.ambient_dim == 2
    assert MOTZKIN.simplex_dim == 2
    assert MOTZKIN.max_degree == 6
    assert MOTZKIN.is_trellis is False
    assert SimplicialSet.parse("2,4;4,2").is_trellis is True
    assert SimplicialSet.parse("0,0;0,2;2,0").max_degree == 2


def test_transformed_applies_affine_map():
    shear = ((1, 0), (1, 1))
    image = MOTZKIN.transformed(shear, (0, 2))
    assert image.points == ((0, 2), (2, 8), (4, 8))
    with pytest.raises(ValueError):
        MOTZKIN.transformed(((1, 0), (2, 0)))  # singular image


def test_midpoint_set_motzkin():
    assert midpoint_set(MOTZKIN.points) == {(1, 2), (2, 1), (3, 3)}


def test_midpoint_set_skips_odd_members():
    # only pairs of distinct even points produce midpoints
    assert midpoint_set([(0, 0), (2, 4), (1, 2)]) == {(1, 2)}
    assert midpoint_set([(1, 1), (3, 3)]) == set()
    assert midpoint_set([(2, 2)]) == set()


def test_barycentric_coordinates_motzkin():
    lam = barycentric_coordinates(MOTZKIN, (2, 2))
    assert lam is not None and sum(lam) == 1
    # outside the hull the coordinates still exist but go negative
    outside = barycentric_coordinates(MOTZKIN, (6, 6))
    assert outside is not None and min(outside) < 0
    # lower-dimensional set: points off the affine hull get None
    seg = SimplicialSet.parse("0,0;2,2")
    assert barycentric_coordinates(seg, (1, 1)) is not None
    assert barycentric_coordinates(seg, (1, 0)) is None


def test_contains_and_strictly_interior():
    assert contains(MOTZKIN, (2, 2))
    assert contains(MOTZKIN, (0, 0))
    assert not contains(MOTZKIN, (4, 4))
    assert strictly_interior(MOTZKIN, (2, 2))
    assert not strictly_interior(MOTZKIN, (0, 0))  # vertex
    assert not strictly_interior(MOTZKIN, (1, 2))  # on an edge
    assert strictly_interior(HURWITZ2, (1, 1))


def test_lattice_points_motzkin_golden():
    pts = lattice_points(MOTZKIN)
    assert len(pts) == 10
    assert pts == {
        (0, 0), (1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2),
    }


def test_lattice_points_hurwitz_count():
    assert len(lattice_points(HURWITZ2)) == 15


def test_lattice_points_lower_dimensional():
    assert _integral_points(((0, 0), (2, 2))).tolist() == [[0, 0], [1, 1], [2, 2]]


def test_even_lattice_points_motzkin():
    assert even_lattice_points(MOTZKIN) == [(0, 0), (2, 2), (2, 4), (4, 2)]


def test_nonneg_ball_counts():
    # points of 1-norm <= deg in N^n number C(n+deg, n)
    import math

    for n, deg in [(1, 3), (2, 4), (3, 5), (4, 3)]:
        assert len(_nonneg_ball(n, deg)) == math.comb(n + deg, n)


@given(small_simplices())
def test_lattice_points_agree_with_brute_force(delta):
    n = delta.ambient_dim
    hi = [max(p[i] for p in delta.points) for i in range(n)]
    brute = {
        p
        for p in itertools.product(*[range(h + 1) for h in hi])
        if contains(delta, p)
    }
    assert lattice_points(delta) == brute


@given(small_simplices())
def test_even_lattice_points_agree_with_filter(delta):
    expected = sorted(p for p in lattice_points(delta) if is_even_point(p))
    assert even_lattice_points(delta) == expected


@given(small_simplices())
def test_vertices_are_lattice_points(delta):
    pts = lattice_points(delta)
    for v in delta.points:
        assert v in pts


@given(small_simplices())
def test_midpoints_of_vertices_are_contained(delta):
    for q in midpoint_set(delta.points):
        assert contains(delta, q)


def _leibniz_det(m):
    """Reference determinant: the permutation expansion."""
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(m[i][perm[i]] for i in range(n))
    return total


def _square_matrices(max_n=6):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )


@given(_square_matrices())
def test_det_and_adjugate_matches_definition(m):
    n = len(m)
    det = _leibniz_det(m)
    if det == 0:
        with pytest.raises(ValueError):
            _det_and_adjugate(m)
        return
    d, adj = _det_and_adjugate(m)
    assert d == det
    identity = [[det * int(i == j) for j in range(n)] for i in range(n)]
    assert [[sum(adj[i][k] * m[k][j] for k in range(n)) for j in range(n)] for i in range(n)] == identity
    assert [[sum(m[i][k] * adj[k][j] for k in range(n)) for j in range(n)] for i in range(n)] == identity


@given(_square_matrices(), st.integers(-3, 3), st.integers(-3, 3))
def test_det_and_adjugate_rejects_singular(m, a, b):
    # the last row becomes a combination of the others (a zero row when n = 1)
    n = len(m)
    m[-1] = [a * x + b * y for x, y in zip(m[0], m[max(n - 2, 0)])] if n > 1 else [0]
    with pytest.raises(ValueError):
        _det_and_adjugate(m)


def test_det_and_adjugate_goldens():
    assert _det_and_adjugate([[0, 2], [3, 1]]) == (-6, [[1, -2], [-3, 0]])
    assert _det_and_adjugate([[5]]) == (5, [[1]])
    assert _det_and_adjugate([]) == (1, [])


@given(small_simplices(full_dim_only=True, degrees=(2, 4, 6, 8)), st.data())
def test_full_dim_scan_python_int_branch_matches_int64_branch(delta, data):
    offset = tuple(2 * data.draw(st.integers(-3, 3)) for _ in range(delta.ambient_dim))
    verts = delta.translated(offset).points
    fast = _integral_points(verts)
    with pytest.MonkeyPatch.context() as mp:
        # no bound passes the int64 guard, so the object-array branch runs
        mp.setattr(geometry, "_INT64_SAFE", 0)
        slow = _integral_points(verts)
    assert slow.dtype == fast.dtype == np.int64
    assert slow.tolist() == fast.tolist()
