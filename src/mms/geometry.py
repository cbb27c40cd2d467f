"""Exact integer geometry for even lattice simplices.

Points are plain tuples of ints; hull scans return lex-sorted int64 arrays.
Everything here is exact integer arithmetic, with no floats and no Fraction
left, and it rests on one integer core: the Hermite normal form column step
(:func:`_hnf_column`).  It has two implementations, each with one job.
The Python :func:`_hnf_column` works on one matrix at a time:
:func:`linear_rank`, ``canon.hnf``, the affine frame and the enumeration
walk's unimodular U run it.  ``canon._hnf_stack`` runs the same step in
numpy on a stack of matrices at once, for the orbit keys and for the HNFs
of a pipeline task's members; the oracle test
``test_hnf_orbit_equals_the_per_order_oracle_on_seeded_matrices`` in
``tests/test_canon.py`` checks it against ``canon.hnf`` of every column
order.  One integer affine frame (:func:`_affine_frame`: one HNF
pass over the edges, then back substitution on its triangular block)
decides membership for simplices of every dimension, in the hull scan and
in the point test :func:`strictly_interior` alike.
Scans run in numpy on int64 when a bound shows they cannot overflow;
otherwise the same formula runs on Python ints in numpy object arrays.

Memory: a set of candidate lattice points (the 1-norm ball or the box of a
hull scan, and the ball behind ``enumeration.vertex_list``) holds at most
``SCAN_ENTRIES`` = 2^24 int64 entries, candidate rows times n (128 MiB).
A larger one is refused with a ValueError that names its size and the
limit, before anything is allocated.  A hull scan near the limit, of the
triangle ``0,0;4000,0;0,4000`` (8,006,001 rows, 16,012,002 entries), adds
about 0.45 GiB of address space to that of an interpreter that has
imported numpy (Python 3.11, numpy 2.4).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, gcd, prod
from typing import Iterable, Sequence

import numpy as np

Point = tuple[int, ...]

# conservative ceiling for intermediate products in the int64 scan path
_INT64_SAFE = 2**62

# the most int64 entries (rows times n) one candidate point set may hold
SCAN_ENTRIES = 1 << 24


def parse_point(text: str) -> Point:
    """Parse "a,b,c" into an integer tuple."""
    if not isinstance(text, str):
        raise ValueError(f"bad lattice point {text!r}: not a string")
    try:
        return tuple(int(part) for part in text.strip().split(","))
    except ValueError as exc:
        raise ValueError(f"bad lattice point {text!r}") from exc


def format_point(point: Point) -> str:
    return ",".join(map(str, point))


def is_even_point(point: Point) -> bool:
    """True iff every coordinate is divisible by 2."""
    return all(c % 2 == 0 for c in point)


def one_norm(point: Sequence[int]) -> int:
    return sum(abs(c) for c in point)


def linear_rank(vectors: Sequence[Sequence[int]]) -> int:
    """Rank over Q of a list of integer vectors: the number of pivot
    columns of their Hermite normal form."""
    return len(_hnf_pivots([list(v) for v in vectors]))


def _hnf_column(rows: list[list[int]], r: int, j: int) -> int:
    """One column step of the row-style Hermite normal form, in place.

    Rows r and below are combined until only row r is nonzero in column j:
    the entry of least |x| becomes the pivot and the others drop by floor
    quotients, repeatedly (a gcd loop).  The pivot row is then made positive
    at j and the rows above it are reduced into [0, pivot) at j.  Every
    operation is unimodular and acts on whole rows.  Returns r + 1, or r
    (with nothing changed) when column j is zero from row r down.
    """
    nrows = len(rows)
    while True:
        piv = None
        for i in range(r, nrows):
            if rows[i][j] != 0 and (piv is None or abs(rows[i][j]) < abs(rows[piv][j])):
                piv = i
        if piv is None:
            return r
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        p = prow[j]
        done = True
        for i in range(r + 1, nrows):
            if rows[i][j] != 0:
                q = rows[i][j] // p
                rows[i] = [a - q * b for a, b in zip(rows[i], prow)]
                if rows[i][j] != 0:
                    done = False
        if done:
            break
    if p < 0:
        prow = rows[r] = [-a for a in prow]
        p = -p
    for i in range(r):
        q = rows[i][j] // p
        if q:
            rows[i] = [a - q * b for a, b in zip(rows[i], prow)]
    return r + 1


def _hnf_pivots(rows: list[list[int]]) -> list[int]:
    """Bring ``rows`` to row-style Hermite normal form in place, one
    :func:`_hnf_column` step per column from left to right, and return the
    pivot columns: the lex-first set of linearly independent columns."""
    pivots: list[int] = []
    r = 0
    for j in range(len(rows[0]) if rows else 0):
        if r == len(rows):
            break
        if _hnf_column(rows, r, j) > r:
            pivots.append(j)
            r += 1
    return pivots


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
        if not isinstance(text, str):
            raise ValueError(f"bad simplex {text!r}: not a string")
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


def strictly_interior(delta: SimplicialSet, point: Sequence[int]) -> bool:
    """True when the point lies in the relative interior of conv(delta)."""
    if len(point) != delta.ambient_dim:
        raise ValueError("dimension mismatch")
    row = np.array([[int(c) for c in point]], dtype=object)
    return bool(_hull_mask(delta.points, row, strict=True)[0])


def _check_scan(rows: int, n: int) -> None:
    """ValueError, before anything is allocated, when ``rows`` points of
    Z^n would hold more than ``SCAN_ENTRIES`` int64 entries."""
    if rows * n > SCAN_ENTRIES:
        raise ValueError(
            f"{rows} candidate lattice points in Z^{n} need {rows * n} int64 entries,"
            f" past the limit of {SCAN_ENTRIES}"
        )


@lru_cache(maxsize=256)
def _nonneg_ball(n: int, deg: int) -> np.ndarray:
    """All p in Z^n with p >= 0 and |p|_1 <= deg, lex-sorted, as an int64
    array of shape (comb(n + deg, n), n).  Built one coordinate at a time:
    each row is followed by its extensions by 0..(budget left), in order,
    so the rows stay lex-sorted.  Cached: the pipeline hits the same
    (n, deg) pairs over and over."""
    _check_scan(comb(n + deg, n), n)
    rows = np.zeros((1, 0), dtype=np.int64)
    left = np.array([deg], dtype=np.int64)
    for _ in range(n):
        counts = left + 1
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        values = np.arange(len(starts), dtype=np.int64) - starts
        rows = np.column_stack([np.repeat(rows, counts, axis=0), values])
        left = np.repeat(left, counts) - values
    return rows


def _box_grid(mins: Sequence[int], maxs: Sequence[int]) -> np.ndarray:
    """Every integral point of the box [mins, maxs], lex-sorted."""
    shape = [hi - lo + 1 for lo, hi in zip(mins, maxs)]
    _check_scan(prod(shape), len(shape))
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
    if all(lo >= 0 for lo in mins) and comb(n + maxdeg, n) <= box_volume:
        return _nonneg_ball(n, maxdeg)
    grid = _box_grid(mins, maxs)
    keep = np.abs(grid).sum(axis=1) <= maxdeg
    return grid[keep]


def _det_and_adjugate(
    tri: Sequence[Sequence[int]], unimodular: Sequence[Sequence[int]]
) -> tuple[int, list[list[int]]]:
    """``(|det A|, |det A| * A^-1)`` for the nonsingular integer matrix A
    with Hermite normal form T = U A, given the upper-triangular T (positive
    diagonal) and the unimodular U.

    |det A| = d is the product of the diagonal of T, and d A^-1 = d T^-1 U
    comes by back substitution, bottom row first.  Every division is exact:
    d T^-1 is the adjugate of T, so each solved row is integral.
    """
    det = 1
    for i, row in enumerate(tri):
        det *= row[i]
    inv: list[list[int]] = [[]] * len(tri)
    for i in reversed(range(len(tri))):
        acc = [det * x for x in unimodular[i]]
        for j in range(i + 1, len(tri)):
            t = tri[i][j]
            if t:
                acc = [a - t * b for a, b in zip(acc, inv[j])]
        p = tri[i][i]
        inv[i] = [a // p for a in acc]
    return det, inv


@lru_cache(maxsize=256)
def _affine_frame(verts: tuple[Point, ...]) -> tuple[int, tuple[Point, ...], tuple[Point, ...]]:
    """Integer frame ``(det, weights, edges)`` of the k-simplex ``verts`` in Z^n.

    One :func:`_hnf_pivots` pass over ``[E | I_k]``, where the rows of E
    are the edges e_i = v_i - v_0, gives the pivot columns P, the
    upper-triangular block T = H[:, P] and U with H = U E.  When E has rank
    k, P is the lex-first set of k independent coordinate columns and the
    k x k minor E_P is nonsingular; a pivot at column n or beyond means the
    edges are dependent.  :func:`_det_and_adjugate` turns T and U into
    d = |det E_P| and d E_P^-1.  ``weights`` is the n x k matrix whose rows P
    hold d E_P^-1 and whose other rows are zero, so a point x of the affine
    hull has barycentric coordinates lam_i = y_i / d (i = 1..k) and
    lam_0 = 1 - sum(lam), with y = (x - v_0) weights.  d and the weights are
    divided by their gcd, which leaves every lam unchanged.  Cached per
    vertex tuple, so repeated point tests on one simplex build one frame;
    the matrices are tuples because every caller shares them.  Raises
    ValueError when ``verts`` are affinely dependent.
    """
    base = verts[0]
    n, k = len(base), len(verts) - 1
    edges = tuple(tuple(a - b for a, b in zip(v, base)) for v in verts[1:])
    rows = [list(e) + [int(i == j) for j in range(k)] for i, e in enumerate(edges)]
    pivots = _hnf_pivots(rows)
    if pivots and pivots[-1] >= n:
        raise ValueError("points are affinely dependent")
    det, inv = _det_and_adjugate(
        [[row[p] for p in pivots] for row in rows], [row[n:] for row in rows]
    )
    g = gcd(det, *(x for row in inv for x in row))
    weights = [(0,) * k] * n
    for p, row in zip(pivots, inv):
        weights[p] = tuple(x // g for x in row)
    return det // g, tuple(weights), edges


def _hull_mask(verts: tuple[Point, ...], pts: np.ndarray, strict: bool = False) -> np.ndarray:
    """Mask of the rows x of the integer array ``pts`` that lie in
    conv(verts), or in its relative interior when ``strict``.

    With (det, W, E) the frame of :func:`_affine_frame` and y = (x - v_0) W,
    x is in conv(verts) iff y >= 0, sum(y) <= det and, when k < n, x is on
    the affine hull: det (x - v_0) = y E.  Strict inequalities give the
    relative interior."""
    det, weights, edges = _affine_frame(verts)
    k, n = len(edges), len(verts[0])
    shifted = pts - np.array(verts[0], dtype=pts.dtype)
    max_c = int(np.abs(shifted).max()) if shifted.size else 0
    # every partial sum of y_j, and of the row sum of y, is at most y_bound
    # in absolute value; the hull test's det * x and partial sums of y E stay
    # within det * max_c and y_bound * sum |E_ji|.  Past int64, use Python ints
    y_bound = max_c * sum(abs(x) for row in weights for x in row)
    bound = y_bound
    if k < n:
        e_abs = sum(abs(x) for row in edges for x in row)
        bound = max(y_bound * e_abs, det * max_c)
    dtype = np.int64 if bound < _INT64_SAFE else object
    shifted = shifted.astype(dtype)
    y = shifted @ np.array(weights, dtype=dtype).reshape(n, k)
    if strict:
        mask = (y > 0).all(axis=1) & (y.sum(axis=1) < det)
    else:
        mask = (y >= 0).all(axis=1) & (y.sum(axis=1) <= det)
    if k < n:
        image = y @ np.array(edges, dtype=dtype).reshape(k, n)
        mask &= (det * shifted == image).all(axis=1)
    return mask


def _integral_points(verts: tuple[Point, ...]) -> np.ndarray:
    """conv(verts) cap Z^n as a lex-sorted int64 array of shape (m, n).
    ``verts`` must be affinely independent (need not be even: internal
    callers pass halved vertices) and may span any dimension k <= n."""
    cands = _candidate_array(verts)
    return cands[_hull_mask(verts, cands)]


def lattice_points(delta: SimplicialSet) -> set[Point]:
    """All integral points of conv(delta)."""
    return set(map(tuple, _integral_points(delta.points).tolist()))


def _half_vertices(delta: SimplicialSet) -> tuple[Point, ...]:
    """The vertices of ``delta`` halved (exact: they are even)."""
    return tuple(tuple(c // 2 for c in p) for p in delta.points)


def even_lattice_points(delta: SimplicialSet) -> list[Point]:
    """Even integral points of conv(delta), lex-sorted, as tuples.

    p is even and in conv(delta) iff p/2 lies in the half-scaled simplex, so
    the scan runs over the (much smaller) half simplex.  Public API only:
    the MMS kernel reads the same points as an array, without this list.
    """
    return list(map(tuple, (2 * _integral_points(_half_vertices(delta))).tolist()))

