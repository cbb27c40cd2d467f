"""Exact integer and rational geometry for even lattice simplices.

Points are plain tuples of ints; hull scans return lex-sorted int64 arrays.
Everything here is exact, never floats.  The hull scan tests candidates
against the integer adjugate of the edge matrix, which a fraction-free
elimination computes; Fraction arithmetic remains only in
``barycentric_coordinates`` (the per-point test used for lower-dimensional
simplices).  Bulk containment scans run in numpy on int64 when a bound
shows it cannot overflow; otherwise the same formula runs on Python ints in
numpy object arrays.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterable, Sequence

import numpy as np

Point = tuple[int, ...]

# conservative ceiling for intermediate products in the int64 scan path
_INT64_SAFE = 2**62


def parse_point(text: str) -> Point:
    """Parse "a,b,c" into an integer tuple."""
    try:
        return tuple(int(part) for part in text.strip().split(","))
    except ValueError as exc:
        raise ValueError(f"bad lattice point {text!r}") from exc


def format_point(point: Point) -> str:
    return ",".join(str(c) for c in point)


def is_even_point(point: Point) -> bool:
    """True iff every coordinate is divisible by 2."""
    return all(c % 2 == 0 for c in point)


def one_norm(point: Sequence[int]) -> int:
    return sum(abs(c) for c in point)


def linear_rank(vectors: Sequence[Sequence[int]]) -> int:
    """Rank over Q of a list of integer vectors (fraction-free elimination)."""
    basis: list[list[int]] = []
    pivots: list[int] = []
    for vec in vectors:
        red = _reduce_against(basis, pivots, vec)
        if red is not None:
            row, col = red
            basis.append(row)
            pivots.append(col)
    return len(basis)


def _reduce_against(
    basis: list[list[int]], pivots: list[int], vec: Sequence[int]
) -> tuple[list[int], int] | None:
    """Cross-multiply ``vec`` against pivot rows; return (reduced row, pivot col)
    or None when the vector is linearly dependent on the basis."""
    v = list(vec)
    for row, c in zip(basis, pivots):
        vc = v[c]
        if vc:
            rc = row[c]
            v = [rc * x - vc * y for x, y in zip(v, row)]
    for c, x in enumerate(v):
        if x:
            return v, c
    return None


def affinely_independent(points: Sequence[Point]) -> bool:
    pts = list(points)
    if not pts:
        return False
    base = pts[0]
    diffs = [[a - b for a, b in zip(p, base)] for p in pts[1:]]
    return linear_rank(diffs) == len(diffs)


@dataclass(frozen=True)
class SimplicialSet:
    """A set of affinely independent even lattice points, stored lex-sorted.

    The plain constructor trusts its argument.  Use :meth:`of` (or
    :meth:`parse`) for validated construction from untrusted data.
    """

    points: tuple[Point, ...]

    @classmethod
    def of(cls, points: Iterable[Sequence[int]]) -> "SimplicialSet":
        pts = sorted({tuple(int(c) for c in p) for p in points})
        if not pts:
            raise ValueError("empty simplicial set")
        n = len(pts[0])
        if any(len(p) != n for p in pts):
            raise ValueError("mixed ambient dimensions")
        for p in pts:
            if not is_even_point(p):
                raise ValueError(f"vertex {format_point(p)} is not even")
        if not affinely_independent(pts):
            raise ValueError("points are affinely dependent")
        return cls(tuple(pts))

    @classmethod
    def parse(cls, text: str) -> "SimplicialSet":
        parts = [p for p in text.strip().split(";") if p]
        return cls.of(parse_point(p) for p in parts)

    def __str__(self) -> str:
        return ";".join(format_point(p) for p in self.points)

    @property
    def ambient_dim(self) -> int:
        return len(self.points[0])

    @property
    def simplex_dim(self) -> int:
        return len(self.points) - 1

    @property
    def max_degree(self) -> int:
        return max(one_norm(p) for p in self.points)

    @property
    def is_trellis(self) -> bool:
        """True when all members share the same 1-norm."""
        return len({one_norm(p) for p in self.points}) == 1

    def translated(self, offset: Sequence[int]) -> "SimplicialSet":
        # translation preserves lex order, so sortedness survives
        return SimplicialSet(
            tuple(tuple(a + b for a, b in zip(p, offset)) for p in self.points)
        )

    def transformed(
        self, matrix: Sequence[Sequence[int]], offset: Sequence[int] | None = None
    ) -> "SimplicialSet":
        """Apply x -> Ax + b.  Validates the image (A must keep points even
        and independent, which holds for integral A of full rank and even b)."""
        n = self.ambient_dim
        off = tuple(offset) if offset is not None else (0,) * n
        out = []
        for p in self.points:
            q = tuple(
                sum(matrix[i][j] * p[j] for j in range(n)) + off[i] for i in range(n)
            )
            out.append(q)
        return SimplicialSet.of(out)


def midpoint_set(points: Iterable[Sequence[int]]) -> set[Point]:
    """Midpoints of unordered pairs of distinct even members of ``points``."""
    pts = [tuple(p) for p in points]
    if pts:
        n = len(pts[0])
        if any(len(p) != n for p in pts):
            raise ValueError("mixed ambient dimensions")
    evens = [p for p in pts if is_even_point(p)]
    out: set[Point] = set()
    for i, s in enumerate(evens):
        for t in evens[i + 1 :]:
            out.add(tuple((a + b) // 2 for a, b in zip(s, t)))
    return out


def barycentric_coordinates(
    delta: SimplicialSet, point: Sequence[int]
) -> tuple[Fraction, ...] | None:
    """Exact barycentric coordinates of ``point`` w.r.t. the vertices of
    ``delta``, or None when the point lies outside the affine hull.

    Solves sum(lam_i * v_i) = p with sum(lam_i) = 1 over Fractions.  The
    vertex columns have full column rank by the simplicial-set invariant.
    """
    verts = delta.points
    n = delta.ambient_dim
    if len(point) != n:
        raise ValueError("dimension mismatch")
    k = len(verts)
    rows: list[list[Fraction]] = [
        [Fraction(v[i]) for v in verts] + [Fraction(point[i])] for i in range(n)
    ]
    rows.append([Fraction(1)] * k + [Fraction(1)])
    # forward elimination; every column gets a pivot (rank k)
    r = 0
    for col in range(k):
        piv = next(i for i in range(r, len(rows)) if rows[i][col] != 0)
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        inv = 1 / prow[col]
        rows[r] = prow = [x * inv for x in prow]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], prow)]
        r += 1
    # consistency: remaining rows must have zero residual
    for i in range(r, len(rows)):
        if rows[i][-1] != 0:
            return None
    return tuple(rows[i][-1] for i in range(k))


def contains(delta: SimplicialSet, point: Sequence[int]) -> bool:
    """Exact test for point membership in conv(delta)."""
    bc = barycentric_coordinates(delta, tuple(point))
    return bc is not None and all(lam >= 0 for lam in bc)


def strictly_interior(delta: SimplicialSet, point: Sequence[int]) -> bool:
    """True when the point lies in the relative interior of conv(delta)."""
    bc = barycentric_coordinates(delta, tuple(point))
    return bc is not None and all(lam > 0 for lam in bc)


@lru_cache(maxsize=256)
def _nonneg_ball(n: int, deg: int) -> np.ndarray:
    """All p in Z^n with p >= 0 and |p|_1 <= deg, lex-sorted, as an int64
    array of shape (comb(n + deg, n), n).  Cached: the pipeline hits the same
    (n, deg) pairs over and over."""
    rows: list[tuple[int, ...]] = []
    prefix = [0] * n

    def rec(i: int, left: int) -> None:
        if i == n - 1:
            for v in range(left + 1):
                prefix[i] = v
                rows.append(tuple(prefix))
            return
        for v in range(left + 1):
            prefix[i] = v
            rec(i + 1, left - v)

    rec(0, deg)
    rows.sort()
    arr = np.array(rows, dtype=np.int64).reshape(len(rows), n)
    assert len(rows) == comb(n + deg, n)
    return arr


def _box_grid(mins: Sequence[int], maxs: Sequence[int]) -> np.ndarray:
    """Every integral point of the box [mins, maxs], lex-sorted."""
    shape = [hi - lo + 1 for lo, hi in zip(mins, maxs)]
    grid = np.indices(shape, dtype=np.int64).reshape(len(shape), -1).T
    return grid + np.array(mins, dtype=np.int64)


def _candidate_array(verts: Sequence[Point]) -> np.ndarray:
    """A lex-sorted superset of conv(verts) cap Z^n as an int64 array.

    conv is inside the 1-norm ball of radius max |v|_1 (convexity of the
    norm) and inside the coordinate bounding box; whichever candidate set is
    smaller wins.
    """
    n = len(verts[0])
    maxdeg = max(one_norm(v) for v in verts)
    mins = [min(v[i] for v in verts) for i in range(n)]
    maxs = [max(v[i] for v in verts) for i in range(n)]
    box_volume = 1
    for lo, hi in zip(mins, maxs):
        box_volume *= hi - lo + 1
    if all(lo >= 0 for lo in mins):
        ball = _nonneg_ball(n, maxdeg)
        if len(ball) <= box_volume:
            return ball
    grid = _box_grid(mins, maxs)
    keep = np.abs(grid).sum(axis=1) <= maxdeg
    return grid[keep]


def _det_and_adjugate(mat: Sequence[Sequence[int]]) -> tuple[int, list[list[int]]]:
    """Exact determinant and adjugate of a nonsingular integer matrix.

    Fraction-free Gauss-Jordan (Bareiss 1968) on ``[M | I]``: step k turns
    every other row into ``(p_k * row - a_ik * pivot_row) / p_(k-1)``, where
    p_k is the k-th pivot and p_(-1) = 1.  Every entry stays a minor of the
    augmented matrix, so each division is exact.  At the end the left block
    is ``p * I`` and the right block is ``p * M^-1``, with p the last pivot,
    which is det(M) up to the sign of the row swaps.  Raises ValueError when
    M is singular.
    """
    n = len(mat)
    aug = [[int(x) for x in row] + [int(i == j) for j in range(n)] for i, row in enumerate(mat)]
    sign = 1
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if aug[i][k] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        if piv != k:
            aug[k], aug[piv] = aug[piv], aug[k]
            sign = -sign
        prow = aug[k]
        p = prow[k]
        for i in range(n):
            if i != k:
                f = aug[i][k]
                aug[i] = [(p * x - f * y) // prev for x, y in zip(aug[i], prow)]
        prev = p
    return sign * prev, [[sign * x for x in row[n:]] for row in aug]


def _integral_points(verts: tuple[Point, ...]) -> np.ndarray:
    """conv(verts) cap Z^n as a lex-sorted int64 array of shape (m, n).
    ``verts`` must be affinely independent (need not be even: internal
    callers pass halved vertices)."""
    n = len(verts[0])
    k = len(verts) - 1
    if k == n:
        return _full_dim_points(verts)
    # lower-dimensional simplex: exact per-candidate solve
    cands = _candidate_array(verts)
    delta = SimplicialSet(tuple(sorted(verts)))
    keep = [contains(delta, tuple(row)) for row in cands.tolist()]
    return cands[np.array(keep, dtype=bool)]


def _full_dim_points(verts: tuple[Point, ...]) -> np.ndarray:
    n = len(verts[0])
    base = verts[0]
    cols = [tuple(v[i] - base[i] for i in range(n)) for v in verts[1:]]
    mat = [[cols[j][i] for j in range(n)] for i in range(n)]
    det, adj = _det_and_adjugate(mat)
    if det < 0:
        det = -det
        adj = [[-e for e in row] for row in adj]
    cands = _candidate_array(verts)
    shifted = cands - np.array(base, dtype=np.int64)
    abs_adj = sum(abs(e) for row in adj for e in row)
    max_c = int(np.abs(shifted).max()) if len(shifted) else 0
    # every partial sum of y_j, and of the row sum of y, is at most
    # max_c * sum |adj_ji| in absolute value; past int64, use Python ints
    dtype = np.int64 if abs_adj * max_c < _INT64_SAFE else object
    y = shifted.astype(dtype) @ np.array(adj, dtype=dtype).T
    return cands[(y >= 0).all(axis=1) & (y.sum(axis=1) <= det)]


def lattice_points(delta: SimplicialSet) -> set[Point]:
    """All integral points of conv(delta)."""
    return set(map(tuple, _integral_points(delta.points).tolist()))


def _half_vertices(delta: SimplicialSet) -> tuple[Point, ...]:
    """The vertices of ``delta`` halved (exact: they are even)."""
    return tuple(tuple(c // 2 for c in p) for p in delta.points)


def even_lattice_points(delta: SimplicialSet) -> list[Point]:
    """Even integral points of conv(delta), lex-sorted.

    p is even and in conv(delta) iff p/2 lies in the half-scaled simplex, so
    the scan runs over the (much smaller) half simplex.
    """
    return list(map(tuple, (2 * _integral_points(_half_vertices(delta))).tolist()))

