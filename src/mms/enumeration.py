"""Enumeration of full-dimensional even simplices {0, v_1..v_n} with
nonnegative vertices of 1-norm at most 2d.

The walk picks n rows of the lex-ordered vertex list in lex order, with
exact integer rank pruning: once a prefix of rows is rank-deficient, every
simplex extending it is skipped.  It keeps a stack with one entry for the
root and one per chosen row: the candidates left (an iterator over the
row indices that may come next), the vertices so far (origin first), the
prefix's Hermite normal form columns H (one ``geometry._hnf_column`` step
per row taken) and the unimodular U with H = U * prefix.  A candidate v is
independent iff U v is nonzero at or below row ``depth``; an independent
one pushes an entry, an exhausted iterator pops one.  Each simplex is
yielded as its vertex tuple, which is its ``SimplicialSet.points``,
together with the HNF of its vertex matrix, the census's lattice key
input.  The stack holds only the current path, so the walk streams in
bounded memory.
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
) -> Iterator[tuple[tuple[Point, ...], tuple[Point, ...]]]:
    """Yield, in lex order, ``(vertices, HNF columns)`` for every strictly
    increasing n-tuple of rows that are linearly independent.  ``vertices``
    is the simplex's ``SimplicialSet.points``: the origin, then those rows,
    already sorted since the rows are lex-sorted and nonzero.
    The HNF columns are the columns of ``canon.hnf`` of the n x n matrix
    whose columns are those rows.  With partition set, only tuples whose
    first row is ``rows[partition]``."""
    m = len(rows)
    # (coordinate, value) of each row's nonzero entries: at most d of them
    support = [tuple((j, c) for j, c in enumerate(row) if c) for row in rows]
    first = range(m - n + 1) if partition is None else range(partition, partition + 1)
    # one entry per chosen row, plus the root: (candidates left, vertices so
    # far, the prefix's HNF columns, U as rows with H = U * prefix)
    stack = [(iter(first), ((0,) * n,), (), [[int(i == j) for j in range(n)] for i in range(n)])]
    while stack:
        cands, pts, cols, u = stack[-1]
        depth = len(cols)
        if depth == n - 1:
            # the last column: only row n-1 lies below the pivots, so its
            # step is p = |w_(n-1)| and w_i mod p above it
            head, last = u[:-1], u[-1]
            for c in cands:
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
                    yield pts + (rows[c],), cols + (tuple(col),)
            stack.pop()
            continue
        for c in cands:
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
                later = iter(range(c + 1, m - n + depth + 2))
                col = tuple(row[0] for row in step)
                stack.append((later, pts + (rows[c],), cols + (col,), [row[1:] for row in step]))
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
    for pts, _ in _iter_full_rank_sets(rows, n, partition):
        yield SimplicialSet(pts)
