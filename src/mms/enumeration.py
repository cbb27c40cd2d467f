"""Enumeration of full-dimensional even simplices {0, v_1..v_n} with
nonnegative vertices of 1-norm at most 2d.

The walk picks n rows of the lex-ordered vertex list in lex order, with
exact integer rank pruning: once a prefix of rows is rank-deficient, every
simplex extending it is skipped.  It keeps a stack with one entry for the
root and one per chosen row: the candidates left (an iterator over the
row indices that may come next), the vertices so far (origin first) and
the unimodular U that brings the prefix to Hermite normal form (one
``geometry._hnf_column`` step per row taken).  A candidate v is
independent iff U v is nonzero at or below row ``depth``; an independent
one pushes an entry, an exhausted iterator pops one.  At the last level
only row n-1 lies below the pivots, so a candidate there is only tested.
Each simplex is yielded as its vertex tuple, which is its
``SimplicialSet.points``.  The stack holds only the current path, so the
walk streams in bounded memory.

The orderly walk.  S_n permutes coordinates, so it permutes the vertex
list and acts on row sets.  Given the shape's :func:`orbit_codes`, the
walk visits only the row sets that are lex-least in their orbit and
yields each with its orbit size and the greatest vertex tuple of its
orbit.  Every prefix of such a set is lex-least in its own orbit (adding
rows can only lower a set's order statistics), so a prefix that is not is
pruned with its whole subtree.  Permuting coordinates multiplies the
vertex matrix on the left by a permutation matrix (and, once the vertices
are sorted again, on the right by another), so the simplices of an orbit
share their lattice key, though not always their HNF.  So per key, the
orbit sizes of the yielded sets sum to the plain walk's count, the least
yielded set is the key's least simplex (it is least in its orbit, so it
is walked), and the greatest over the yielded orbits is its greatest
simplex.  Without the codes the walk is the plain walk, which yields
every simplex with orbit size 1 and itself as its greatest.
"""
from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .geometry import Point, SimplicialSet, _hnf_column, _nonneg_ball

# the largest orbit_codes table in 64-bit words (16 MiB), n! * m * words for
# m rows; it also bounds each node's batch of candidate codes
ORBIT_WORDS = 1 << 21


def check_shape(n: int, two_d: int) -> None:
    """ValueError naming the parameter unless n >= 1 and 2d is even and >= 2."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if two_d < 2 or two_d % 2 != 0:
        raise ValueError("maximal degree must be an even integer >= 2")


@lru_cache(maxsize=64)
def vertex_list(n: int, two_d: int) -> tuple[Point, ...]:
    """Lex-ordered even nonzero points of N^n with 1-norm <= 2d.

    Built by doubling the 1-norm ball of radius d (doubling preserves lex
    order) and dropping the origin.
    """
    check_shape(n, two_d)
    half = _nonneg_ball(n, two_d // 2)
    return tuple(tuple(2 * c for c in q) for q in map(tuple, half.tolist()) if any(q))


@lru_cache(maxsize=8)
def orbit_codes(n: int, two_d: int) -> np.ndarray | None:
    """The rows of ``vertex_list(n, 2d)`` under the n! coordinate
    permutations, identity first, as one-row set codes: entry [s, i] codes
    row i permuted by the s-th permutation.  A set of row indices is coded
    in ceil(m / 64) uint64 words, index i setting bit 63 - i % 64 of word
    i // 64, so a set's code is the OR of its rows' codes, and of two sets
    of one size the one with the greater code (words compared in order) is
    lex-less.  Built once per process per shape; None when the table,
    n! * m * words, would exceed ORBIT_WORDS, and the census walks every
    simplex."""
    rows = vertex_list(n, two_d)
    m, words = len(rows), -(-len(rows) // 64)
    if math.factorial(n) * m * words > ORBIT_WORDS:
        return None
    arr = np.array(rows, dtype=np.int64)
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    # coordinates are at most 2d, so base 2d + 1 keeps the lex order
    weights = (two_d + 1) ** np.arange(n - 1, -1, -1, dtype=np.int64)
    images = np.searchsorted(arr @ weights, arr[:, perms] @ weights).T
    codes = np.zeros(images.shape + (words,), dtype=np.uint64)
    bits = np.left_shift(np.uint64(1), (63 - images % 64).astype(np.uint64))
    np.put_along_axis(codes, (images // 64)[..., None], bits[..., None], axis=2)
    return codes


def _least_in_orbit(table: np.ndarray, prefix: np.ndarray, lo: int, hi: int):
    """The candidates c in lo..hi-1 whose set, a prefix plus row c, is
    lex-least in its orbit, and the codes of those sets under every
    permutation, shape (n!, kept, words).  ``table`` is the shape's
    :func:`orbit_codes` and ``prefix`` the prefix's codes, (n!, words)."""
    img = prefix[:, None, :] | table[:, lo:hi]
    ident = img[0]
    # img[s, j] > ident[j], word by word from the last: a lex-less image
    greater = img[..., -1] > ident[:, -1]
    for w in range(img.shape[2] - 2, -1, -1):
        a, b = img[..., w], ident[:, w]
        greater = (a > b) | ((a == b) & greater)
    keep = ~greater.any(axis=0)
    return np.arange(lo, hi)[keep], img[:, keep]


def _orbit_leaves(img: np.ndarray, n: int):
    """Per n-row set with codes ``img`` (n!, sets, words): its orbit size and
    the row indices of its orbit's lex-greatest set, the image with the
    least code."""
    sizes = len(img) // (img == img[0]).all(axis=2).sum(axis=0)
    least = np.ones(img.shape[:2], dtype=bool)
    for w in range(img.shape[2]):
        v = np.where(least, img[..., w], np.iinfo(np.uint64).max)
        least &= v == v.min(axis=0)
    top = img[least.argmax(axis=0), np.arange(img.shape[1])]
    # big-endian bytes unpacked: column i is the bit of row index i
    bits = np.unpackbits(top.astype(">u8").view(np.uint8), axis=1)
    return zip(sizes.tolist(), np.nonzero(bits)[1].reshape(-1, n).tolist())


def _iter_full_rank_sets(
    rows: Sequence[Point],
    n: int,
    partition: int | None = None,
    orbits: np.ndarray | None = None,
) -> Iterator[tuple[tuple[Point, ...], tuple[Point, ...], int]]:
    """Yield, in lex order, ``(vertices, greatest, orbit size)`` for every
    strictly increasing n-tuple of rows that are linearly independent.
    ``vertices`` is the simplex's ``SimplicialSet.points``: the origin,
    then those rows, already sorted since the rows are lex-sorted and
    nonzero.  With partition set, only tuples whose first row is
    ``rows[partition]``.

    With ``orbits``, the shape's :func:`orbit_codes`, only the tuples that
    are lex-least in their coordinate-permutation orbit, each with its orbit
    size and its orbit's greatest vertex tuple; without, every tuple, with 1
    and itself.  Each node tests its candidates in one numpy batch of
    n! * candidates * words 64-bit codes, at most ORBIT_WORDS since there
    are at most m candidates, and keeps the survivors' codes, so the path
    holds at most n of those."""
    m = len(rows)
    origin = (0,) * n
    # (coordinate, value) of each row's nonzero entries: at most d of them
    support = [tuple((j, c) for j, c in enumerate(row) if c) for row in rows]

    def candidates(prefix, lo: int, hi: int, depth: int) -> Iterator:
        """(row index, what its set needs next) for the rows lo..hi-1 after
        a prefix of ``depth`` rows with codes ``prefix``: the set's codes
        below the last level, else (orbit size, row indices of its orbit's
        greatest set, or None for the set itself)."""
        if orbits is None:
            return zip(range(lo, hi), itertools.repeat(None if depth < n - 1 else (1, None)))
        cs, img = _least_in_orbit(orbits, prefix, lo, hi)
        if depth < n - 1:
            return zip(cs.tolist(), img.transpose(1, 0, 2))
        return zip(cs.tolist(), _orbit_leaves(img, n))

    lo, hi = (0, m - n + 1) if partition is None else (partition, partition + 1)
    root = None if orbits is None else np.zeros((len(orbits), orbits.shape[2]), np.uint64)
    # one entry per chosen row, plus the root: (candidates left, vertices so
    # far, U as rows, bringing the prefix to HNF)
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    stack = [(candidates(root, lo, hi, 0), (origin,), ident)]
    while stack:
        cands, pts, u = stack[-1]
        depth = len(pts) - 1
        if depth == n - 1:
            # the last row: only row n-1 of U v lies below the pivots
            last = u[-1]
            for c, (size, top) in cands:
                p = 0
                for j, x in support[c]:
                    p += last[j] * x
                if p:
                    leaf = pts + (rows[c],)
                    greatest = leaf if top is None else (origin, *map(rows.__getitem__, top))
                    yield leaf, greatest, size
            stack.pop()
            continue
        for c, code in cands:
            nz = support[c]
            w = []
            for ui in u:
                y = 0
                for j, x in nz:
                    y += ui[j] * x
                w.append(y)
            if any(w[depth:]):
                # rows[c] is independent of the prefix: one column step on [w | U]
                step = [[wi] + ui for wi, ui in zip(w, u)]
                _hnf_column(step, depth, 0)
                later = candidates(code, c + 1, m - n + depth + 2, depth + 1)
                stack.append((later, pts + (rows[c],), [row[1:] for row in step]))
                break
        else:
            stack.pop()


def enumerate_simplices(
    n: int, two_d: int, partition: int | None = None
) -> Iterator[SimplicialSet]:
    """Stream every full-dimensional simplex {0} cup {n rows of the vertex
    list}, each exactly once, in lex order of vertex tuples.  Partition
    streams (one per first-row index) are disjoint and jointly exhaustive."""
    rows = vertex_list(n, two_d)
    if partition is not None and not (0 <= partition < len(rows)):
        raise ValueError(f"partition {partition} out of range")
    for pts, *_ in _iter_full_rank_sets(rows, n, partition):
        yield SimplicialSet(pts)
