"""Enumeration of full-dimensional even simplices {0, v_1..v_n} with
nonnegative vertices of 1-norm at most 2d.

Index sets into the lex-ordered vertex list are walked in lex order with
exact integer rank pruning: once a prefix of rows is rank-deficient, every
index set extending it is skipped.  The rank state is the prefix's Hermite
normal form H (one ``geometry._hnf_column`` step per row taken) and the
unimodular U with H = U * prefix: a candidate v is independent iff U v is
nonzero at or below row ``depth``, and each full index set comes with the
HNF of its vertex matrix, the census's lattice key input.  The state is a
stack along the current path, so the walk streams in bounded memory.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Sequence

from .geometry import Point, SimplicialSet, _hnf_column, _nonneg_ball


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


def _iter_full_rank_sets(
    rows: Sequence[Point], n: int, partition: int | None = None
) -> Iterator[tuple[tuple[int, ...], tuple[Point, ...]]]:
    """Yield, in lex order, ``(index tuple, HNF columns)`` for every strictly
    increasing n-tuple of row indices whose rows are linearly independent.
    The HNF columns are the columns of ``canon.hnf`` of the n x n matrix
    whose columns are those rows.  With partition set, only tuples whose
    first index equals it."""
    m = len(rows)
    # (coordinate, value) of each row's nonzero entries: at most d of them
    support = [tuple((j, c) for j, c in enumerate(row) if c) for row in rows]
    sel: list[int] = []
    # per level: the prefix's HNF columns, and U (as rows) with H = U * prefix
    levels: list[tuple[tuple[Point, ...], list[list[int]]]] = [
        ((), [[int(i == j) for j in range(n)] for i in range(n)])
    ]
    cursor = partition if partition is not None else 0
    while True:
        depth = len(sel)
        if partition is not None and depth == 0:
            limit = partition + 1
        else:
            limit = m - (n - depth) + 1
        cols, u = levels[-1]
        if depth == n - 1:
            # the last column: only row n-1 lies below the pivots, so its
            # step is p = |w_(n-1)| and w_i mod p above it
            prefix = tuple(sel)
            head, last = u[:-1], u[-1]
            for c in range(cursor, limit):
                nz = support[c]
                p = 0
                for j, x in nz:
                    p += last[j] * x
                if p:
                    p = abs(p)
                    col = []
                    for ui in head:
                        y = 0
                        for j, x in nz:
                            y += ui[j] * x
                        col.append(y % p)
                    col.append(p)
                    yield prefix + (c,), cols + (tuple(col),)
            cursor = limit
        while cursor < limit:
            nz = support[cursor]
            w = []
            for ui in u:
                y = 0
                for j, x in nz:
                    y += ui[j] * x
                w.append(y)
            cursor += 1
            if any(w[depth:]):
                # v is independent of the prefix: one column step on [w | U]
                step = [[wi] + ui for wi, ui in zip(w, u)]
                _hnf_column(step, depth, 0)
                sel.append(cursor - 1)
                levels.append((cols + (tuple(row[0] for row in step),), [row[1:] for row in step]))
                break
        else:
            if not sel:
                return
            cursor = sel.pop() + 1
            levels.pop()


def enumerate_simplices(
    n: int, two_d: int, partition: int | None = None
) -> Iterator[SimplicialSet]:
    """Stream every full-dimensional simplex {0} cup {n rows of the vertex
    list}, each exactly once, in lex order of index sets.  Partition streams
    (one per first-row index) are disjoint and jointly exhaustive."""
    rows = vertex_list(n, two_d)
    if partition is not None and not (0 <= partition < len(rows)):
        raise ValueError(f"partition {partition} out of range")
    origin = (0,) * n
    for idx, _ in _iter_full_rank_sets(rows, n, partition):
        pts = (origin,) + tuple(rows[i] for i in idx)
        # rows are lex-sorted and nonzero, so pts is sorted with origin first
        yield SimplicialSet(pts)
