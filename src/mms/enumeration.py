"""Enumeration of full-dimensional even simplices {0, v_1..v_n} with
nonnegative vertices of 1-norm at most 2d.

Index sets into the lex-ordered vertex list are walked in lex order with
exact integer rank pruning: once a prefix of rows is rank-deficient, every
index set extending it is skipped.  Rank state (the rows reduced by
``geometry._reduce_against``) is a stack along the current path, so the walk
streams in bounded memory.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from .geometry import Point, SimplicialSet, _nonneg_ball, _reduce_against


@dataclass(frozen=True)
class VertexList:
    n: int
    two_d: int
    rows: tuple[Point, ...]


@lru_cache(maxsize=64)
def vertex_list(n: int, two_d: int) -> VertexList:
    """Lex-ordered even nonzero points of N^n with 1-norm <= 2d.

    Built by doubling the 1-norm ball of radius d (doubling preserves lex
    order) and dropping the origin.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if two_d < 2 or two_d % 2 != 0:
        raise ValueError("maximal degree must be an even integer >= 2")
    half = _nonneg_ball(n, two_d // 2)
    rows = tuple(
        tuple(2 * c for c in q) for q in map(tuple, half.tolist()) if any(q)
    )
    return VertexList(n=n, two_d=two_d, rows=rows)


def _iter_full_rank_sets(
    rows: Sequence[Point], n: int, partition: int | None = None
) -> Iterator[tuple[int, ...]]:
    """Yield, in lex order, every strictly increasing n-tuple of row indices
    whose rows are linearly independent.  With partition set, only tuples
    whose first index equals it."""
    m = len(rows)
    sel: list[int] = []
    # reduced pivot rows and pivot columns of the rows in sel
    basis: list[list[int]] = []
    pivots: list[int] = []
    cursor = partition if partition is not None else 0
    while True:
        depth = len(sel)
        if partition is not None and depth == 0:
            limit = partition + 1
        else:
            limit = m - (n - depth) + 1
        descended = False
        while cursor < limit:
            red = _reduce_against(basis, pivots, rows[cursor])
            if red is None:
                cursor += 1
                continue
            if depth + 1 == n:
                yield tuple(sel) + (cursor,)
                cursor += 1
                continue
            sel.append(cursor)
            basis.append(red[0])
            pivots.append(red[1])
            cursor += 1
            descended = True
            break
        if descended:
            continue
        if not sel:
            return
        cursor = sel.pop() + 1
        basis.pop()
        pivots.pop()


def enumerate_simplices(
    n: int, two_d: int, partition: int | None = None
) -> Iterator[SimplicialSet]:
    """Stream every full-dimensional simplex {0} cup {n rows of the vertex
    list}, each exactly once, in lex order of index sets.  Partition streams
    (one per first-row index) are disjoint and jointly exhaustive."""
    V = vertex_list(n, two_d)
    rows = V.rows
    if partition is not None and not (0 <= partition < len(rows)):
        raise ValueError(f"partition {partition} out of range")
    origin = (0,) * n
    for idx in _iter_full_rank_sets(rows, n, partition):
        pts = (origin,) + tuple(rows[i] for i in idx)
        # rows are lex-sorted and nonzero, so pts is sorted with origin first
        yield SimplicialSet(pts)
