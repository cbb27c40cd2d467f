import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mms import engine
from mms.engine import (
    Classification,
    HRatio,
    MmsResult,
    boundary_h_counts,
    compute_mms,
    floor_set,
    mms_fixed_point,
    mms_removal,
)
from mms.geometry import SimplicialSet, is_even_point, lattice_points, midpoint_set

from strategies import mapped, small_simplices

MOTZKIN = SimplicialSet.parse("0,0;2,4;4,2")
HURWITZ2 = SimplicialSet.parse("0,0;4,0;0,4")
CHOI_LAM = SimplicialSet.parse("0,0,0;0,2,2;2,0,2;2,2,0")
DIM4 = SimplicialSet.parse("0,0,0,0;0,0,0,4;0,2,2,0;2,0,2,0;2,2,0,0")
TETRA = SimplicialSet.parse("0,0,0;4,0,0;0,6,0;0,0,10")


def test_hratio_basic():
    r = HRatio(3, 4)
    assert str(r) == "3/4"
    assert r.value == Fraction(3, 4)
    assert HRatio(0, 0).value == Fraction(1)
    assert HRatio(0, 4).value == Fraction(0)


def test_motzkin_is_the_lower_bound_case():
    result = compute_mms(MOTZKIN)
    assert set(result.mms_points) == {(0, 0), (1, 2), (2, 1), (2, 4), (3, 3), (4, 2)}
    assert set(result.mms_points) == set(MOTZKIN.points) | midpoint_set(MOTZKIN.points)
    assert result.conv_count == 10
    assert result.floor_count == 6
    assert result.classification is Classification.M
    assert str(result.h_ratio) == "0/4"


def test_hurwitz_scaled_is_the_upper_bound_case():
    result = compute_mms(HURWITZ2)
    assert result.mms_size == 15
    assert set(result.mms_points) == lattice_points(HURWITZ2)
    assert result.classification is Classification.H
    assert str(result.h_ratio) == "9/9"
    assert result.h_ratio.value == 1


def test_choi_lam_support_misses_center_only():
    result = compute_mms(CHOI_LAM)
    assert result.conv_count == 11
    assert result.floor_count == 10
    assert result.mms_size == 10
    missing = lattice_points(CHOI_LAM) - set(result.mms_points)
    assert missing == {(1, 1, 1)}
    assert result.classification is Classification.M
    assert str(result.h_ratio) == "0/1"


def test_four_dim_simplex_sits_strictly_between_bounds():
    result = compute_mms(DIM4)
    assert result.conv_count == 22
    assert result.floor_count == 15
    assert result.mms_size == 20
    missing = lattice_points(DIM4) - set(result.mms_points)
    assert missing == {(1, 1, 1, 0), (1, 1, 1, 1)}
    assert result.classification is Classification.INTERMEDIATE
    assert str(result.h_ratio) == "5/7"


def test_rectangular_tetrahedron_misses_one_point():
    result = compute_mms(TETRA)
    assert result.conv_count == 81
    assert result.mms_size == 80
    missing = lattice_points(TETRA) - set(result.mms_points)
    assert missing == {(1, 2, 4)}
    assert result.classification is Classification.INTERMEDIATE
    assert str(result.h_ratio) == "70/71"


def test_degenerate_denominator_counts_as_h():
    # floor == conv: both labels apply, H wins and the ratio is 1
    seg = SimplicialSet.parse("0;2")
    result = compute_mms(seg)
    assert result.floor_count == result.conv_count
    assert result.classification is Classification.H
    assert result.h_ratio.value == 1
    assert str(result.h_ratio) == "0/0"


def test_single_vertex_is_its_own_mms():
    # a 0-simplex: the vertex is the hull, the floor and the MMS
    result = compute_mms(SimplicialSet.of([(2, 4)]))
    assert result.mms_points == ((2, 4),)
    assert result.mms_size == result.conv_count == result.floor_count == 1


def test_floor_set_is_vertices_plus_midpoints():
    assert floor_set(MOTZKIN) == set(MOTZKIN.points) | midpoint_set(MOTZKIN.points)


def test_method_dispatch():
    a = compute_mms(MOTZKIN, method="removal")
    b = compute_mms(MOTZKIN, method="fixed-point")
    assert a.mms_points == b.mms_points
    with pytest.raises(ValueError):
        compute_mms(MOTZKIN, method="newton")


def test_result_json_round_trip():
    result = compute_mms(CHOI_LAM)
    payload = json.loads(result.to_json_line())
    back = MmsResult(
        delta=SimplicialSet.parse(payload["delta"]),
        mms_points=tuple(map(tuple, payload["mms_points"])),
        conv_count=payload["conv_count"],
        floor_count=payload["floor_count"],
    )
    assert back == result
    assert payload["classification"] == result.classification.value
    assert payload["h_ratio"] == str(result.h_ratio)


@given(small_simplices(degrees=(2, 4, 6, 8, 10)), st.data())
def test_removal_agrees_with_fixed_point(delta, data):
    # negative even offsets move the per-coordinate shift of the point codes
    offset = tuple(2 * data.draw(st.integers(-4, 0)) for _ in range(delta.ambient_dim))
    delta = mapped(delta, offset=offset)
    mms = mms_fixed_point(delta)
    assert mms_removal(delta) == mms
    result = compute_mms(delta)
    assert result.mms_points == tuple(sorted(mms))
    assert result.conv_count == len(lattice_points(delta))
    assert result.floor_count == len(floor_set(delta))


@given(small_simplices(degrees=(4, 6, 8)), st.integers(1, 40), st.booleans())
# removals that take 5 and 4 rounds, the second ending INTERMEDIATE: each
# round must test against the closure of the points still alive
@example(SimplicialSet.parse("0,0;2,4;10,2"), 7, False)
@example(SimplicialSet.parse("0,0,0;0,6,2;4,0,4;6,2,0"), 40, True)
def test_removal_in_small_blocks_and_python_int_codes(delta, block, python_ints):
    with pytest.MonkeyPatch.context() as mp:
        # tiny blocks split each round's pair sums into many pieces
        mp.setattr(engine, "_BLOCK", block)
        if python_ints:
            mp.setattr(engine, "_INT64_SAFE", 0)
        mms = mms_fixed_point(delta)
        assert mms_removal(delta) == mms
        # compute_mms feeds the kernel the even rows of its own full scan
        assert compute_mms(delta).mms_points == tuple(sorted(mms))


def test_removal_past_int64_codes():
    # the half simplex of 0, 4e_1, ..., 4e_28 has radix 5 per coordinate, and
    # codes up to 5^28 overflow int64
    n = 28
    assert 5**n > 2**63
    delta = SimplicialSet.of(
        [(0,) * n] + [tuple(4 * (i == j) for j in range(n)) for i in range(n)]
    )
    result = compute_mms(delta)
    assert set(result.mms_points) == mms_fixed_point(delta)
    assert result.mms_size == result.conv_count == math.comb(n + 4, 4)


@given(small_simplices())
def test_mms_is_sandwiched_between_bounds(delta):
    mms = mms_removal(delta)
    assert floor_set(delta) <= mms
    assert mms <= lattice_points(delta)


@given(small_simplices())
def test_mms_is_mediated(delta):
    # every non-vertex member is the midpoint of two distinct even members
    mms = mms_removal(delta)
    evens = sorted(p for p in mms if is_even_point(p))
    even_set = set(evens)
    for p in mms:
        if p in delta.points:
            continue
        doubled = tuple(2 * c for c in p)
        ok = any(
            tuple(d - q for d, q in zip(doubled, q)) in even_set
            and tuple(d - c for d, c in zip(doubled, q)) != q
            for q in evens
        )
        assert ok, p


@given(small_simplices())
def test_h_ratio_is_within_unit_interval(delta):
    result = compute_mms(delta)
    assert 0 <= result.h_ratio.value <= 1
    if result.classification is Classification.H:
        assert result.h_ratio.value == 1
    if result.classification is Classification.M and result.floor_count != result.conv_count:
        assert result.h_ratio.value == 0


@given(small_simplices())
def test_classification_matches_counts(delta):
    result = compute_mms(delta)
    if result.classification is Classification.H:
        assert result.mms_size == result.conv_count
    elif result.classification is Classification.M:
        assert result.mms_size == result.floor_count < result.conv_count
    else:
        assert result.floor_count < result.mms_size < result.conv_count


def test_boundary_h_counts_is_picks_count_of_an_h_triangle():
    # the halved triangle 0,0;2,0;0,2 has 6 boundary points: conv = 8 + 6 + 1
    result = compute_mms(HURWITZ2)
    assert result.classification is Classification.H
    assert boundary_h_counts(HURWITZ2.points) == (15, 15, 6)
    assert (result.mms_size, result.conv_count, result.floor_count) == (15, 15, 6)


@pytest.mark.parametrize(
    "vertices",
    [
        MOTZKIN.points,  # halved: 3 boundary points
        ((0, 0), (4, 0), (8, 0)),  # degenerate
        ((1, 0), (5, 0), (1, 4)),  # odd vertices, though their edges have gcd 4
        CHOI_LAM.points,  # n = 3
        DIM4.points,
        ((0, 0), (8, 4)),  # a segment in the plane
        ((0,), (8,)),
    ],
    ids=["three", "degenerate", "odd", "n3", "n4", "segment", "n1"],
)
def test_boundary_h_counts_declines_outside_the_rule(vertices):
    assert boundary_h_counts(vertices) is None
