import itertools

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from strategies import _leibniz_det, mapped, small_simplices

from mms.canon import (
    CanonicalLatticeKey,
    canonical_key,
    canonical_key_of_matrix,
    generator_matrix,
    hnf,
    hnf_orbit,
    serialize_matrix,
    transpose,
    _text_order,
)
from mms.geometry import SimplicialSet

MOTZKIN = SimplicialSet.parse("0,0;2,4;4,2")
LATTICE_TWIN = SimplicialSet.parse("0,0;2,0;4,6")


def test_generator_matrix_columns_are_vertices():
    g = generator_matrix(MOTZKIN)
    assert g == ((2, 4), (4, 2))
    assert transpose(g) == ((2, 4), (4, 2))  # symmetric here; columns are vertices
    g2 = generator_matrix(SimplicialSet.parse("0,0;2,0;2,6"))
    assert transpose(g2) == ((2, 0), (2, 6))


def test_generator_matrix_translates_to_origin():
    shifted = mapped(MOTZKIN, offset=(2, 2))
    assert generator_matrix(shifted) == generator_matrix(MOTZKIN)


@pytest.mark.parametrize(
    "mat, expected",
    [
        (((2, 4), (4, 2)), ((2, 4), (0, 6))),
        (((2, 0), (2, 6)), ((2, 0), (0, 6))),
        (((0, 2), (6, 2)), ((6, 0), (0, 2))),
        (((1, 0), (0, 1)), ((1, 0), (0, 1))),
    ],
)
def test_hnf_goldens(mat, expected):
    assert hnf(mat) == expected


def test_hnf_orbit_motzkin_collapses():
    # both column orders reduce to the same normal form here
    assert hnf_orbit(generator_matrix(MOTZKIN)) == [((2, 4), (0, 6))]


def test_serialize_matrix_format():
    assert serialize_matrix(((2, 4), (0, 6))) == "2x2w1:2,4;0,6"
    assert serialize_matrix(((6, 0), (0, 12))) == "2x2w2:06,00;00,12"


# widths 1, 2, 9 and 10 in one shape: "w10:" sorts before "w1:" and "w9:"
_entries = st.sampled_from([0, 1, 9, 10, 10**8, 10**9 - 1, 10**9, 2 * 10**9])


@given(
    st.lists(
        st.tuples(st.tuples(_entries, _entries), st.tuples(_entries, _entries)),
        min_size=2,
        max_size=12,
    )
)
def test_orbit_order_is_serialized_text_order(mats):
    assert sorted(mats, key=_text_order) == sorted(mats, key=serialize_matrix)


def test_orbit_order_puts_width_ten_before_width_one():
    narrow, wide = ((9, 0), (0, 9)), ((10**9, 0), (0, 1))
    assert serialize_matrix(wide) < serialize_matrix(narrow)
    assert _text_order(wide) < _text_order(narrow)


@pytest.mark.parametrize(
    "mat", [((2, 4), (1, 2)), ((0, 0), (0, 0)), ((2, 4, 6), (0, 2, 4)), ((2,), (4,))]
)
def test_canonical_key_of_matrix_refuses_singular_or_non_square(mat):
    with pytest.raises(ValueError, match="canonical key requires"):
        canonical_key_of_matrix(mat)


def test_canonical_key_motzkin():
    key = canonical_key(MOTZKIN)
    assert isinstance(key, CanonicalLatticeKey)
    assert key.key_text == "2x2w1:2,4;0,6"
    assert key.key_bytes == b"2x2w1:2,4;0,6"


def test_shared_lattice_pair_has_equal_keys():
    assert canonical_key(MOTZKIN) == canonical_key(LATTICE_TWIN)


def test_same_invariants_different_lattice():
    # same |det| and column gcd multiset, so only the key comparison decides
    other = SimplicialSet.parse("0,0;2,0;2,6")
    assert abs(_leibniz_det(generator_matrix(other))) == 12
    assert canonical_key(other).key_text == "2x2w1:2,2;0,6"
    assert canonical_key(other) != canonical_key(MOTZKIN)


def test_different_determinant_is_never_equivalent():
    assert canonical_key(SimplicialSet.parse("0,0;4,0;0,4")) != canonical_key(MOTZKIN)


def test_axis_scaled_pairs():
    b = SimplicialSet.parse("0,0;2,0;2,2")
    c = SimplicialSet.parse("0,0;0,2;2,0")
    assert canonical_key(b) == canonical_key(c)
    assert canonical_key(b).key_text == "2x2w1:2,0;0,2"


def test_canonical_key_requires_full_dimension():
    with pytest.raises(ValueError):
        canonical_key(SimplicialSet.parse("0,0;2,2"))


def test_equivalent_dimension_mismatch():
    # keys of different dimensions differ in their shape prefix
    cube = SimplicialSet.parse("0,0,0;2,0,0;0,2,0;0,0,2")
    assert canonical_key(cube).key_text.startswith("3x3")
    assert canonical_key(cube) != canonical_key(MOTZKIN)


square_matrices = st.integers(min_value=2, max_value=3).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    ).map(lambda rows: tuple(tuple(r) for r in rows))
)


@st.composite
def unimodular_matrices(draw, n):
    mat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        op = draw(st.sampled_from(["swap", "negate", "add"]))
        i = draw(st.integers(min_value=0, max_value=n - 1))
        j = draw(st.integers(min_value=0, max_value=n - 1))
        if op == "swap":
            mat[i], mat[j] = mat[j], mat[i]
        elif op == "negate":
            mat[i] = [-x for x in mat[i]]
        elif i != j:
            k = draw(st.integers(min_value=-2, max_value=2))
            mat[i] = [a + k * b for a, b in zip(mat[i], mat[j])]
    return tuple(tuple(r) for r in mat)


@given(square_matrices)
def test_hnf_shape_invariants(mat):
    assume(_leibniz_det(mat) != 0)
    h = hnf(mat)
    n = len(mat)
    for i in range(n):
        assert h[i][i] > 0
        for j in range(i):
            assert h[i][j] == 0
        for r in range(i):
            assert 0 <= h[r][i] < h[i][i]
    assert abs(_leibniz_det(h)) == abs(_leibniz_det(mat))
    assert hnf(h) == h


@given(st.data())
def test_hnf_invariant_under_left_unimodular(data):
    mat = data.draw(square_matrices)
    assume(_leibniz_det(mat) != 0)
    n = len(mat)
    u = data.draw(unimodular_matrices(n))
    prod = tuple(
        tuple(sum(u[i][k] * mat[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )
    assert hnf(prod) == hnf(mat)


@given(square_matrices)
def test_canonical_key_is_minimum_over_column_orders(mat):
    assume(_leibniz_det(mat) != 0)
    n = len(mat)
    serials = set()
    for perm in itertools.permutations(range(n)):
        permuted = tuple(tuple(row[p] for p in perm) for row in mat)
        serials.add(serialize_matrix(hnf(permuted)))
    assert canonical_key_of_matrix(mat).key_text == min(serials)


@given(small_simplices(full_dim_only=True), st.data())
def test_canonical_key_invariant_under_coordinate_maps(delta, data):
    n = delta.ambient_dim
    u = data.draw(unimodular_matrices(n))
    image = mapped(delta, u)
    assert canonical_key(image) == canonical_key(delta)


@given(small_simplices(full_dim_only=True))
def test_canonical_key_invariant_under_even_translation(delta):
    shifted = mapped(delta, offset=(2,) * delta.ambient_dim)
    assert canonical_key(shifted) == canonical_key(delta)


def reference_key(delta):
    """Least serialized HNF over every column order of the generator matrix,
    computed here without the library's orbit table."""
    g = generator_matrix(delta)
    return min(
        serialize_matrix(hnf(tuple(tuple(row[p] for p in perm) for row in g)))
        for perm in itertools.permutations(range(len(g)))
    )


@given(small_simplices(full_dim_only=True), st.data())
def test_cached_keys_match_uncached_reference(delta, data):
    n = delta.ambient_dim
    want = reference_key(delta)
    u = data.draw(unimodular_matrices(n))
    # non-negative, so the translated origin stays the anchor (lex-minimal)
    shift = tuple(data.draw(st.sampled_from((0, 2, 4))) for _ in range(n))
    # the first call may fill the orbit table; the images then resolve by hits
    for image in (delta, mapped(delta, u), mapped(delta, offset=shift)):
        key = canonical_key(image)
        assert key.key_text == reference_key(image) == want
        assert serialize_matrix(key.hnf) == want
    scaled = mapped(delta, [[3 * (i == j) for j in range(n)] for i in range(n)])
    assert reference_key(scaled) != want
    assert canonical_key(scaled).key_text != want
    other = data.draw(small_simplices(full_dim_only=True))
    assert (canonical_key(other).key_text == want) == (reference_key(other) == want)
