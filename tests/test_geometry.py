import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from strategies import _leibniz_det, mapped, small_simplices

from mms import geometry
from mms.geometry import (
    SimplicialSet,
    affinely_independent,
    even_lattice_points,
    format_point,
    is_even_point,
    lattice_points,
    linear_rank,
    midpoint_set,
    one_norm,
    parse_point,
    strictly_interior,
    _affine_frame,
    _box_grid,
    _det_and_adjugate,
    _integral_points,
    _nonneg_ball,
)

MOTZKIN = SimplicialSet.parse("0,0;2,4;4,2")
HURWITZ2 = SimplicialSet.parse("0,0;4,0;0,4")


def fraction_barycentric(delta, point):
    """Reference barycentric coordinates: Gauss-Jordan over Fractions on
    sum(lam_i v_i) = p, sum(lam_i) = 1.  None when the point is off the
    affine hull.  Independent of the integer frame the library uses."""
    verts = delta.points
    k = len(verts)
    rows = [[Fraction(v[i]) for v in verts] + [Fraction(point[i])] for i in range(len(point))]
    rows.append([Fraction(1)] * (k + 1))
    for col in range(k):
        # the vertex columns are independent, so every column has a pivot
        piv = next(i for i in range(col, len(rows)) if rows[i][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        prow = [x / rows[col][col] for x in rows[col]]
        rows = [
            prow if i == col else [x - r[col] * y for x, y in zip(r, prow)]
            for i, r in enumerate(rows)
        ]
    if any(r[-1] != 0 for r in rows[k:]):
        return None
    return tuple(r[-1] for r in rows[:k])


def reference_contains(delta, point):
    lam = fraction_barycentric(delta, point)
    return lam is not None and min(lam) >= 0


def reference_strictly_interior(delta, point):
    lam = fraction_barycentric(delta, point)
    return lam is not None and min(lam) > 0


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


def fraction_pivot_columns(vectors):
    """Reference pivot columns: Gauss-Jordan over Fractions, column by
    column; a column is a pivot when it is independent of the earlier ones.
    Independent of the integer HNF step the library uses."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        rows = [
            row if i == r else [x - row[col] / prow[col] * y for x, y in zip(row, prow)]
            for i, row in enumerate(rows)
        ]
        pivots.append(col)
    return pivots


@st.composite
def integer_matrices(draw):
    """Small integer matrices, with zero, duplicate and summed rows mixed in
    so that rank-deficient ones are common."""
    ncols = draw(st.integers(min_value=1, max_value=5))
    row = st.lists(st.integers(min_value=-4, max_value=4), min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=1, max_size=4))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        kind = draw(st.sampled_from(["zero", "duplicate", "sum"]))
        if kind == "zero":
            extra = [0] * ncols
        elif kind == "duplicate":
            extra = list(draw(st.sampled_from(rows)))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            extra = [x + 2 * y for x, y in zip(a, b)]
        rows.insert(draw(st.integers(min_value=0, max_value=len(rows))), extra)
    return rows


@given(integer_matrices())
def test_rank_and_pivot_columns_agree_with_fraction_reference(vectors):
    want = fraction_pivot_columns(vectors)
    assert linear_rank(vectors) == len(want)
    assert geometry._hnf_pivots([list(v) for v in vectors]) == want
    origin = (0,) * len(vectors[0])
    verts = (origin,) + tuple(map(tuple, vectors))
    if len(want) < len(vectors):
        with pytest.raises(ValueError, match="affinely dependent"):
            _affine_frame(verts)
    else:
        # adj(A) of the nonsingular pivot minor A has no zero column, so the
        # frame's nonzero weight rows are exactly the pivot columns
        _, weights, _ = _affine_frame(verts)
        assert [i for i, w in enumerate(weights) if any(w)] == want


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
    assert SimplicialSet.parse("0,0;0,2;2,0").max_degree == 2


def test_transformed_applies_affine_map():
    # the map behind the invariance tests must move points, or they pass vacuously
    shear = ((1, 0), (1, 1))
    image = mapped(MOTZKIN, shear, (0, 2))
    assert image.points == ((0, 2), (2, 8), (4, 8))
    assert mapped(MOTZKIN, offset=(2, 0)).points == ((2, 0), (4, 4), (6, 2))
    with pytest.raises(ValueError):
        mapped(MOTZKIN, ((1, 0), (2, 0)))  # singular image


def test_midpoint_set_motzkin():
    assert midpoint_set(MOTZKIN.points) == {(1, 2), (2, 1), (3, 3)}


def test_midpoint_set_skips_odd_members():
    # only pairs of distinct even points produce midpoints
    assert midpoint_set([(0, 0), (2, 4), (1, 2)]) == {(1, 2)}
    assert midpoint_set([(1, 1), (3, 3)]) == set()
    assert midpoint_set([(2, 2)]) == set()


def test_contains_and_strictly_interior():
    # hull membership of an integral point is membership in lattice_points
    assert (2, 2) in lattice_points(MOTZKIN)
    assert (0, 0) in lattice_points(MOTZKIN)
    assert (4, 4) not in lattice_points(MOTZKIN)
    assert strictly_interior(MOTZKIN, (2, 2))
    assert not strictly_interior(MOTZKIN, (0, 0))  # vertex
    assert not strictly_interior(MOTZKIN, (1, 2))  # on an edge
    assert strictly_interior(HURWITZ2, (1, 1))
    # lower-dimensional set: points off the affine hull are never inside
    seg = SimplicialSet.parse("0,0;2,2")
    assert lattice_points(seg) == {(0, 0), (1, 1), (2, 2)}
    assert strictly_interior(seg, (1, 1)) and not strictly_interior(seg, (1, 0))
    with pytest.raises(ValueError):
        strictly_interior(MOTZKIN, (1, 1, 1))
    with pytest.raises(ValueError):
        strictly_interior(seg, (1,))


@given(small_simplices(), st.data())
def test_point_tests_agree_with_fraction_reference(delta, data):
    n = delta.ambient_dim
    lo = [min(p[i] for p in delta.points) - 2 for i in range(n)]
    hi = [max(p[i] for p in delta.points) + 2 for i in range(n)]
    # lattice points, reflections of vertices through v_0 (on the affine hull,
    # outside the hull), and points of a box reaching past the hull (off the
    # affine hull too, when delta is lower-dimensional)
    v0 = delta.points[0]
    points = list(lattice_points(delta))
    points += [tuple(2 * a - b for a, b in zip(v0, v)) for v in delta.points[1:]]
    points += data.draw(
        st.lists(
            st.tuples(*[st.integers(a, b) for a, b in zip(lo, hi)]), min_size=1, max_size=20
        )
    )
    hull = lattice_points(delta)
    for p in points:
        assert (p in hull) == reference_contains(delta, p)
        assert strictly_interior(delta, p) == reference_strictly_interior(delta, p)


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
    # a triangle in Z^4: 6 of the 4,006 candidates of its ball lie on it
    tri = SimplicialSet.parse("0,0,0,0;4,6,2,8;6,2,8,4")
    assert lattice_points(tri) == {
        (0, 0, 0, 0), (2, 3, 1, 4), (3, 1, 4, 2), (4, 6, 2, 8), (5, 4, 5, 6), (6, 2, 8, 4),
    }


def test_frame_is_reduced_by_gcd():
    # 0, 4e_1..4e_30: det 4^30 and adjugate 4^29 I share the factor 4^29, so
    # the frame is (4, I) and the 46,376-candidate scan stays in int64
    n = 30
    verts = ((0,) * n,) + tuple(tuple(4 * (i == j) for j in range(n)) for i in range(n))
    det, weights, _ = _affine_frame(verts)
    assert det == 4
    assert weights == tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    assert len(lattice_points(SimplicialSet(tuple(sorted(verts))))) == math.comb(34, 4)


def test_even_lattice_points_motzkin():
    assert even_lattice_points(MOTZKIN) == [(0, 0), (2, 2), (2, 4), (4, 2)]


def test_nonneg_ball_counts():
    # points of 1-norm <= deg in N^n number C(n+deg, n); the rows are those
    # of the box [0, deg]^n, filtered, in the same lex order
    for n, deg in [(1, 0), (1, 3), (2, 4), (3, 5), (4, 3), (5, 0)]:
        ball = _nonneg_ball(n, deg)
        grid = _box_grid([0] * n, [deg] * n)
        assert ball.dtype == np.int64
        assert len(ball) == math.comb(n + deg, n)
        assert ball.tolist() == grid[grid.sum(axis=1) <= deg].tolist()


def test_candidate_sets_hold_at_most_scan_entries(monkeypatch):
    # a set at the limit is built; a larger one is refused before allocating
    monkeypatch.setattr(geometry, "SCAN_ENTRIES", 12)
    assert _box_grid([0, 0], [2, 1]).shape == (6, 2)
    assert _nonneg_ball.__wrapped__(2, 2).shape == (6, 2)
    with pytest.raises(ValueError, match=r"^7 candidate lattice points in Z\^2 need 14 int64 entries, past the limit of 12$"):
        _box_grid([0, 0], [6, 0])
    with pytest.raises(ValueError, match=r"^10 candidate lattice points in Z\^2 need 20 int64"):
        _nonneg_ball.__wrapped__(2, 3)


@given(small_simplices())
def test_lattice_points_agree_with_brute_force(delta):
    n = delta.ambient_dim
    hi = [max(p[i] for p in delta.points) for i in range(n)]
    brute = {
        p
        for p in itertools.product(*[range(h + 1) for h in hi])
        if reference_contains(delta, p)
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
    assert midpoint_set(delta.points) <= lattice_points(delta)


def _square_matrices(max_n=6):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )


def _hnf_inverse(m):
    """``(|det m|, |det m| * m^-1)`` through one HNF pass over ``[m | I]``
    and :func:`_det_and_adjugate`, as the affine frame computes it; None when
    a pivot lands past m, i.e. m is singular."""
    n = len(m)
    rows = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(m)]
    pivots = geometry._hnf_pivots(rows)
    if pivots and pivots[-1] >= n:
        return None
    return _det_and_adjugate([[row[p] for p in pivots] for row in rows], [row[n:] for row in rows])


@given(_square_matrices())
def test_det_and_adjugate_matches_definition(m):
    n = len(m)
    det = _leibniz_det(m)
    got = _hnf_inverse(m)
    if det == 0:
        assert got is None
        return
    d, inv = got
    assert d == abs(det)
    identity = [[d * int(i == j) for j in range(n)] for i in range(n)]
    assert [[sum(inv[i][k] * m[k][j] for k in range(n)) for j in range(n)] for i in range(n)] == identity
    assert [[sum(m[i][k] * inv[k][j] for k in range(n)) for j in range(n)] for i in range(n)] == identity


@given(_square_matrices(), st.integers(-3, 3), st.integers(-3, 3))
def test_det_and_adjugate_rejects_singular(m, a, b):
    # the last row becomes a combination of the others (a zero row when n = 1):
    # the HNF pass puts a pivot past m, and the frame refuses the vertex set
    n = len(m)
    m[-1] = [a * x + b * y for x, y in zip(m[0], m[max(n - 2, 0)])] if n > 1 else [0]
    assert _hnf_inverse(m) is None
    with pytest.raises(ValueError, match="affinely dependent"):
        _affine_frame(((0,) * n,) + tuple(map(tuple, m)))


def test_det_and_adjugate_goldens():
    # |det| and |det| * inverse, whatever the sign of det
    assert _det_and_adjugate([[2, 1], [0, 3]], [[1, 0], [0, 1]]) == (6, [[3, -1], [0, 2]])
    assert _hnf_inverse([[0, 2], [3, 1]]) == (6, [[-1, 2], [3, 0]])
    assert _hnf_inverse([[5]]) == (5, [[1]])
    assert _hnf_inverse([]) == (1, [])


def fraction_inverse(m):
    """Reference inverse of a nonsingular square matrix: Gauss-Jordan over
    Fractions on [m | I]."""
    n = len(m)
    rows = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(m)]
    for col in range(n):
        piv = next(i for i in range(col, n) if rows[i][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        prow = [x / rows[col][col] for x in rows[col]]
        rows = [
            prow if i == col else [x - r[col] * y for x, y in zip(r, prow)]
            for i, r in enumerate(rows)
        ]
    return [r[n:] for r in rows]


@st.composite
def vertex_sets(draw, max_n=6):
    """k + 1 integer points in Z^n, k <= n <= max_n, often affinely
    dependent: one edge may be replaced by a combination of the others."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    k = draw(st.integers(min_value=0, max_value=n))
    coord = st.integers(min_value=-6, max_value=6)
    base = tuple(draw(coord) for _ in range(n))
    edges = [[draw(coord) for _ in range(n)] for _ in range(k)]
    if k and draw(st.booleans()):
        i = draw(st.integers(min_value=0, max_value=k - 1))
        coeffs = [draw(st.integers(min_value=-2, max_value=2)) for _ in range(k)]
        coeffs[i] = 0
        edges[i] = [sum(c * e[j] for c, e in zip(coeffs, edges)) for j in range(n)]
    return (base,) + tuple(tuple(a + b for a, b in zip(e, base)) for e in edges)


@given(vertex_sets())
def test_affine_frame_is_the_reduced_inverse_of_the_pivot_minor(verts):
    # the frame's weights on the pivot rows P are L * E_P^-1 and its det is
    # L, the least common denominator of the Fraction inverse of E_P
    base, n = verts[0], len(verts[0])
    edges = [tuple(a - b for a, b in zip(v, base)) for v in verts[1:]]
    pivots = fraction_pivot_columns(edges)
    if len(pivots) < len(edges):
        with pytest.raises(ValueError, match="affinely dependent"):
            _affine_frame(verts)
        return
    inv = fraction_inverse([[e[p] for p in pivots] for e in edges])
    lcd = math.lcm(*(x.denominator for row in inv for x in row))
    weights = [(0,) * len(edges)] * n
    for p, row in zip(pivots, inv):
        weights[p] = tuple(int(lcd * x) for x in row)
    assert _affine_frame(verts) == (lcd, tuple(weights), tuple(edges))


@given(small_simplices(degrees=(2, 4, 6, 8)), st.data())
def test_full_dim_scan_python_int_branch_matches_int64_branch(delta, data):
    offset = tuple(2 * data.draw(st.integers(-3, 3)) for _ in range(delta.ambient_dim))
    verts = mapped(delta, offset=offset).points
    fast = _integral_points(verts)
    with pytest.MonkeyPatch.context() as mp:
        # no bound passes the int64 guard, so the object-array branch runs
        mp.setattr(geometry, "_INT64_SAFE", 0)
        slow = _integral_points(verts)
    assert slow.dtype == fast.dtype == np.int64
    assert slow.tolist() == fast.tolist()
