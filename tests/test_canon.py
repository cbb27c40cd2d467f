import itertools
import random

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from strategies import _leibniz_det, mapped, row_major, small_simplices

from mms import canon
from mms.canon import (
    CanonicalLatticeKey,
    _key_of_hnf,
    canonical_key,
    generator_matrix,
    hnf,
    hnf_orbit,
    member_hnfs,
    serialize_matrix,
    _text_order,
)
from mms.enumeration import _iter_full_rank_sets, orbit_codes, vertex_list
from mms.geometry import SimplicialSet
from mms.sampler import sample_simplex

MOTZKIN = SimplicialSet.parse("0,0;2,4;4,2")
LATTICE_TWIN = SimplicialSet.parse("0,0;2,0;4,6")


def test_generator_matrix_columns_are_vertices():
    g = generator_matrix(MOTZKIN)
    assert g == ((2, 4), (4, 2))
    assert tuple(zip(*g)) == ((2, 4), (4, 2))  # symmetric here; columns are vertices
    g2 = generator_matrix(SimplicialSet.parse("0,0;2,0;2,6"))
    assert tuple(zip(*g2)) == ((2, 0), (2, 6))


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
    assert hnf_orbit([row_major(generator_matrix(MOTZKIN))]) == [{(2, 4, 0, 6)}]


def orbit_oracle(m):
    """The distinct HNFs of every column order of m, one ``hnf`` call each."""
    return {
        hnf(tuple(tuple(row[p] for p in perm) for row in m))
        for perm in itertools.permutations(range(len(m)))
    }


def row_major_orbit(m):
    """``orbit_oracle(m)`` with each HNF in row-major order."""
    return set(map(row_major, orbit_oracle(m)))


def seeded_matrices(n, count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n))
        if any(hnf(m)[-1]):
            out.append(m)
    return out


@pytest.fixture
def fresh_table(monkeypatch):
    """An empty orbit table, and the size of every stack the kernel runs."""
    monkeypatch.setattr(canon, "_orbit_keys", {})
    stacks = []
    real = canon._hnf_stack
    monkeypatch.setattr(canon, "_hnf_stack", lambda a, bound: stacks.append(len(a)) or real(a, bound))
    return stacks


@pytest.mark.parametrize("n", range(1, 8))
def test_hnf_orbit_equals_the_per_order_oracle_on_seeded_matrices(n):
    ms = seeded_matrices(n, 3 if n < 7 else 1, seed=n)
    assert hnf_orbit(list(map(row_major, ms))) == [row_major_orbit(m) for m in ms]


@pytest.mark.parametrize("n, classes", [(6, 14), (7, 19)])
def test_orbit_table_of_every_census_class_equals_the_oracle(fresh_table, n, classes):
    rows = vertex_list(n, 4)
    walk = _iter_full_rank_sets(rows, n, None, orbit_codes(n, 4))
    keys = _key_of_hnf(list(set(member_hnfs([pts for pts, _, _ in walk]))))
    assert len(set(keys)) == classes
    for key in set(keys):
        orbit = orbit_oracle(key.hnf)
        assert {h for h, k in canon._orbit_keys.items() if k == key} == set(map(row_major, orbit))
        assert key.key_text == min(map(serialize_matrix, orbit))
    assert max(fresh_table) <= canon.ORBIT_BATCH


def test_hnf_orbit_equals_the_oracle_on_seeded_8x4_samples():
    ms = [hnf(generator_matrix(sample_simplex(8, 4, 3, i))) for i in range(3)]
    assert hnf_orbit(list(map(row_major, ms))) == [row_major_orbit(m) for m in ms]


# two HNFs of one class, ((2, 0), (0, 6)) and ((6, 0), (0, 2)) in row-major
# order: those of ((2, 0), (2, 6)) and of it with its columns swapped
TWINS = ((2, 0, 0, 6), (6, 0, 0, 2))


def test_one_batch_keys_two_hnfs_of_one_class(fresh_table, monkeypatch):
    batches = []
    real = canon.hnf_orbit
    monkeypatch.setattr(canon, "hnf_orbit", lambda ms: batches.append(list(ms)) or real(ms))
    first, second = _key_of_hnf(list(TWINS))
    assert batches == [list(TWINS)]
    assert first == second and first.key_text == "2x2w1:2,0;0,6"
    assert canon._orbit_keys == dict.fromkeys(TWINS, first)
    # both matrices of the batch get the whole orbit
    assert real(list(TWINS)) == [set(TWINS), set(TWINS)]


def test_a_chunk_boundary_between_two_hnfs_of_one_class(fresh_table, monkeypatch):
    # one orbit per batch at n = 2: the second HNF is a hit by its turn
    monkeypatch.setattr(canon, "ORBIT_BATCH", 2)
    batches = []
    real = canon.hnf_orbit
    monkeypatch.setattr(canon, "hnf_orbit", lambda ms: batches.append(list(ms)) or real(ms))
    first, second = _key_of_hnf(list(TWINS))
    assert batches == [[TWINS[0]]]
    assert first == second and first.key_text == "2x2w1:2,0;0,6"


@pytest.mark.parametrize("limit, n, count", [(5, 3, 4), (100, 4, 12), (2048, 4, 200)])
def test_every_stack_holds_at_most_orbit_batch_matrices(fresh_table, monkeypatch, limit, n, count):
    # at limit 5 the 6 column orders of n = 3 run in chunks of 5 and 1
    monkeypatch.setattr(canon, "ORBIT_BATCH", limit)
    hs = [hnf(generator_matrix(sample_simplex(n, 16, 5, i))) for i in range(count)]
    keys = _key_of_hnf(list(map(row_major, hs)))
    assert fresh_table and max(fresh_table) <= limit
    for h, key in zip(hs, keys):
        assert key.key_text == min(map(serialize_matrix, orbit_oracle(h)))


def test_object_path_keys_entries_past_int64():
    delta = SimplicialSet.parse("0,0;2,0;0,2000000000000000000000")
    assert canonical_key(delta).key_text == "2x2w22:" + ";".join(
        ["0000000000000000000002,0000000000000000000000", "0000000000000000000000,2000000000000000000000"]
    )


def test_a_stack_moves_to_python_ints_before_int64_overflows():
    # entries below 2^62, but 5 * 2^61 in the first column step is not
    m = ((1, 2**61), (5, 2**61 + 7))
    assert hnf_orbit([row_major(m)]) == [row_major_orbit(m)]


def test_distinct_keeps_every_row_when_two_rows_share_a_weighted_sum():
    # weights 1000003 and 1000003^2 mod 2^61: both rows sum to their product
    w1, w2 = 1000003, 1000003**2 % (1 << 61)
    rows = np.array([[0, w1], [w2, 0]], dtype=np.int64)
    assert canon._distinct(rows, np.zeros(2, dtype=np.int64)).tolist() == [0, 1]


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
    assert sorted(mats, key=lambda m: _text_order(row_major(m))) == sorted(mats, key=serialize_matrix)


def test_orbit_order_puts_width_ten_before_width_one():
    narrow, wide = ((9, 0), (0, 9)), ((10**9, 0), (0, 1))
    assert serialize_matrix(wide) < serialize_matrix(narrow)
    assert _text_order(row_major(wide)) < _text_order(row_major(narrow))


@pytest.mark.parametrize("mat", [((2, 4), (1, 2)), ((0, 0), (0, 0))])
def test_canonical_key_of_matrix_refuses_singular_or_non_square(mat):
    # the simplex at (2, 2) whose generator matrix is mat; its vertices are
    # dependent, which only the trusting constructor lets through
    base = (2, 2)
    delta = SimplicialSet((base, *(tuple(b + c for b, c in zip(base, col)) for col in zip(*mat))))
    assert generator_matrix(delta) == mat
    with pytest.raises(ValueError, match="requires a nonsingular matrix"):
        canonical_key(delta)


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
    assert _key_of_hnf([row_major(hnf(mat))])[0].key_text == min(serials)


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
    return min(map(serialize_matrix, orbit_oracle(generator_matrix(delta))))


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
