"""Shared hypothesis strategies and reference oracles for the test suite."""

import itertools
import math

from hypothesis import assume
from hypothesis import strategies as st

from mms.geometry import SimplicialSet, affinely_independent, _nonneg_ball


@st.composite
def small_simplices(draw, max_n=3, degrees=(2, 4, 6), full_dim_only=False):
    n = draw(st.integers(min_value=1, max_value=max_n))
    two_d = draw(st.sampled_from(degrees))
    ball = [tuple(int(c) for c in row) for row in _nonneg_ball(n, two_d // 2)]
    evens = [tuple(2 * c for c in p) for p in ball if any(p)]
    k = n if full_dim_only else draw(st.integers(min_value=1, max_value=n))
    idx = draw(
        st.lists(
            st.integers(min_value=0, max_value=len(evens) - 1),
            min_size=k,
            max_size=k,
            unique=True,
        )
    )
    pts = [(0,) * n] + [evens[i] for i in idx]
    assume(affinely_independent(sorted(set(pts))))
    return SimplicialSet.of(pts)


def _leibniz_det(m):
    """Reference determinant: the permutation expansion."""
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(m[i][perm[i]] for i in range(n))
    return total


def mapped(delta, matrix=None, offset=None):
    """The image of ``delta`` under x -> Ax + b, validated by
    ``SimplicialSet.of``; A defaults to the identity and b to zero."""
    n = delta.ambient_dim
    a = matrix or [[int(i == j) for j in range(n)] for i in range(n)]
    b = offset or (0,) * n
    return SimplicialSet.of(
        [tuple(sum(x * c for x, c in zip(row, p)) + o for row, o in zip(a, b)) for p in delta.points]
    )


def row_major(m):
    """The entries of the nested matrix ``m`` in row-major order, the form
    the orbit table and the stacked HNFs of ``mms.canon`` use."""
    return tuple(e for row in m for e in row)
