"""Lattice canonicalization: Hermite normal form up to column permutation.

The lattice of a full-dimensional simplex {0, v_1..v_n} is the row span of
the matrix whose columns are the nonzero vertices.  Unimodular maps of the
simplex change that matrix by left multiplication (same row span) and vertex
reordering permutes columns, so the canonical key is the minimal HNF over
all column permutations.

The HNF is row-style.  One matrix goes through :func:`hnf`, one
``geometry._hnf_column`` step per column; a stack of matrices goes through
:func:`_hnf_stack`, the same step in numpy on all of them at once.  Inside
this module an HNF keeps one form from the stack to the orbit table: its
row-major entry tuple (``Entries``: entry (i, j) at i * n + j), a row of
the stack's (B, n * n) view.  The nested ``Matrix`` form is only for the
public side: :func:`hnf`, :func:`generator_matrix`,
:func:`serialize_matrix` and ``CanonicalLatticeKey.hnf``.  A pipeline task
has the HNFs of all its members computed in such stacks
(:func:`member_hnfs`).  Every key resolves through this module's
per-process orbit table, which maps every HNF of each column-permutation
orbit seen to its class key.  A caller hands :func:`_key_of_hnf` all its
HNFs at once: the table answers those it holds, and the others' orbits
are computed in batches (:func:`hnf_orbit`),
each orbit keyed by its least member in key text order (a ``min``, with no
member formatted).  A batch stacks the column-permuted copies of its
matrices into one (B, n, n) array and brings all of them to HNF at once
(:func:`_hnf_stack`), on int64 while a checked bound allows and on Python
ints otherwise.  Memory: one stack holds at most ``ORBIT_BATCH`` = 2,048
matrices, 1 MiB of int64 entries at n = 8.  So a batch takes
``ORBIT_BATCH // n!`` orbits (at least one), and when n! > ORBIT_BATCH
(n >= 7) the column orders of its one orbit are generated and stacked in
chunks; no n! x n array of column orders is kept.  The table never evicts:
at most n! HNFs per distinct class seen.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import _INT64_SAFE, Point, SimplicialSet, _hnf_pivots

Matrix = tuple[tuple[int, ...], ...]
# an n x n matrix as its entries in row-major order, entry (i, j) at i * n + j
Entries = tuple[int, ...]

# the most matrices one stack of hnf_orbit or member_hnfs holds
ORBIT_BATCH = 1 << 11


def generator_matrix(delta: SimplicialSet) -> Matrix:
    """Matrix whose rows generate the simplex lattice: columns are the
    nonzero vertices in lex order.  The lattice depends on which vertex
    sits at the origin, so an existing origin vertex is kept as the anchor;
    a set without one is translated by its lex-minimal vertex first."""
    pts = delta.points
    zero = (0,) * delta.ambient_dim
    if zero in pts:
        others = tuple(p for p in pts if p != zero)
    else:
        base = pts[0]
        # translation preserves lex order, so the order of the rest survives
        others = tuple(tuple(a - b for a, b in zip(p, base)) for p in pts[1:])
    n = delta.ambient_dim
    return tuple(tuple(v[i] for v in others) for i in range(n))


def hnf(m: Matrix) -> Matrix:
    """Row-style Hermite normal form: H = U*M with U unimodular, pivots
    positive, entries below a pivot zero and entries above it reduced into
    [0, pivot).  Rank-deficient inputs end with zero rows.  One
    ``geometry._hnf_column`` step per column, left to right.
    """
    rows = [list(r) for r in m]
    _hnf_pivots(rows)
    return tuple(tuple(row) for row in rows)


def serialize_matrix(m: Matrix) -> str:
    """Fixed-width decimal text form: "RxCwW:" then rows separated by ";",
    entries by ",", each zero-padded to width W.  Bit-exact and diffable."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    width = 1
    for row in m:
        for e in row:
            width = max(width, len(str(e)))
    body = ";".join(",".join(f"{e:0{width}d}" for e in row) for row in m)
    return f"{rows}x{cols}w{width}:{body}"


@dataclass(frozen=True)
class CanonicalLatticeKey:
    hnf: Matrix
    key_bytes: bytes

    @property
    def key_text(self) -> str:
        return self.key_bytes.decode("ascii")


def _text_order(h: Entries) -> tuple[str, Entries]:
    """Sort key of a matrix, given by its row-major entries, in the order of
    its :func:`serialize_matrix` text, for matrices of one shape with
    non-negative entries: the text is "RxCwW:" then the entries zero-padded
    to width W, so it sorts by "W:" (the ":" puts width 10 before width 1,
    as "w10" sorts before "w1:") and then by the entries in row-major
    order, which ``h`` already is."""
    return f"{len(str(max(h)))}:", h


def _hnf_stack(a: np.ndarray, bound: int) -> np.ndarray:
    """Row-style HNFs of the nonsingular matrices stacked in ``a``, shape
    (B, n, n), int64 or object, with every |entry| at most ``bound``; ``a``
    is overwritten and the HNFs returned.

    The ``geometry._hnf_column`` step on every matrix at once, column by
    column: the entry of least nonzero |x| in row j and below is swapped
    into row j as the pivot and the rows below drop by floor quotients,
    until column j is clear below row j in every matrix (a matrix already
    clear takes quotient 0); then negative pivot rows are negated and the
    rows above are reduced into [0, pivot).  A nonsingular matrix has one
    HNF, so each result is :func:`hnf` of its matrix.  Subtracting q times
    a pivot row raises no |entry| by more than max|q| * max|pivot row|, so
    ``bound`` grows by that, measured on q and the pivot rows, and the
    stack moves to Python ints in an object array before a step that could
    take an int64 entry to ``_INT64_SAFE``."""
    n = a.shape[1]
    every = np.arange(len(a))

    def subtract(rows: slice, j: int) -> None:
        """rows -= floor(column j / pivot) * pivot row, in columns j on."""
        nonlocal a, bound
        q = a[:, rows, j : j + 1] // a[:, j : j + 1, j : j + 1]
        # most steps change few matrices: work on those alone
        hit = np.flatnonzero(q.any(axis=(1, 2)))
        if not hit.size:
            return
        q, prow = q[hit], a[hit, j : j + 1, j:]
        bound += int(abs(q).max()) * int(abs(prow).max())
        if bound >= _INT64_SAFE and a.dtype != object:
            a, q, prow = a.astype(object), q.astype(object), prow.astype(object)
        a[hit, rows, j:] -= q * prow

    for j in range(n):
        while True:
            col = a[:, j:, j]
            piv = np.where(col != 0, abs(col), bound + 1).argmin(axis=1) + j
            moved = every[piv != j]
            if moved.size:
                pivot_rows = a[moved, piv[moved], j:]
                a[moved, piv[moved], j:] = a[moved, j, j:]
                a[moved, j, j:] = pivot_rows
            subtract(slice(j + 1, n), j)
            if not a[:, j + 1 :, j].any():
                break
        neg = a[:, j, j] < 0
        a[neg, j, j:] = -a[neg, j, j:]
        subtract(slice(0, j), j)
    return a


def member_hnfs(members: Sequence[tuple[Point, ...]]) -> list[Entries]:
    """:func:`hnf` of the :func:`generator_matrix` of each of ``members``,
    the vertex tuples of full-dimensional simplices of one n, each with the
    origin first, as row-major entry tuples; brought to HNF by
    :func:`_hnf_stack` in stacks of at most ``ORBIT_BATCH`` matrices."""
    hs: list[Entries] = []
    for i in range(0, len(members), ORBIT_BATCH):
        # a generator matrix's columns are the vertices after the origin
        ms = [m[1:] for m in members[i : i + ORBIT_BATCH]]
        bound = max(abs(e) for m in ms for v in m for e in v)
        stack = np.array(ms, dtype=object if bound >= _INT64_SAFE else np.int64)
        out = _hnf_stack(stack.transpose(0, 2, 1), bound)
        hs.extend(map(tuple, out.reshape(len(ms), -1).tolist()))
    return hs


def _column_orders(n: int, size: int):
    """The n! orders of n columns, in lex order, as intp arrays of at most
    ``size`` rows, generated chunk by chunk."""
    orders = itertools.permutations(range(n))
    while (chunk := np.fromiter(itertools.chain(*itertools.islice(orders, size)), np.intp)).size:
        yield chunk.reshape(-1, n)


def _distinct(rows: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """Indices of some rows of the 2-D integer array ``rows``, holding each
    distinct pair of a row and its ``owner`` once or more: one row per
    value of a weighted sum, kept only if every row equals the row kept for
    its sum (a stack repeats each orbit's few HNFs many times, and turning
    every repeat into a tuple costs more)."""
    weights = [pow(1000003, k, 1 << 61) for k in range(rows.shape[1] + 1)]
    # int64 sums may wrap, as they only pick candidates to compare; the
    # owner's weight is odd, so equal rows of two owners never share a sum
    sums = rows @ np.array(weights[1:], dtype=rows.dtype) + owner * weights[0]
    _, first, which = np.unique(sums, return_index=True, return_inverse=True)
    return first if (rows[first][which] == rows).all() else np.arange(len(rows))


def hnf_orbit(hs: Sequence[Entries]) -> list[set[Entries]]:
    """The orbit of each of ``hs``, the row-major entries of nonsingular
    n x n matrices of one n, computed in one batch: the set of distinct
    HNFs of its column permutations, as row-major entry tuples.  This is
    every plain HNF occurring in the lattice class, which is what makes the
    orbit table a lookup table.  Each stack holds ``len(hs)`` times
    ``max(1, ORBIT_BATCH // len(hs))`` column orders: all n! orders of
    every matrix when they fit, and at most ``ORBIT_BATCH`` matrices
    whenever ``len(hs)`` is at most that."""
    k, n = len(hs), math.isqrt(len(hs[0]))
    bound = max(abs(e) for h in hs for e in h)
    base = np.array(hs, dtype=object if bound >= _INT64_SAFE else np.int64).reshape(k, n, n)
    orbits: list[set[Entries]] = [set() for _ in hs]
    for orders in _column_orders(n, max(1, ORBIT_BATCH // k)):
        # stack[i * len(orders) + p] is hs[i] with its columns in order p
        stack = base[:, :, orders].transpose(0, 2, 1, 3).reshape(-1, n, n)
        out = _hnf_stack(stack, bound).reshape(-1, n * n)
        owner = np.repeat(np.arange(k), len(orders))
        keep = _distinct(out, owner)
        for i, h in zip(owner[keep].tolist(), out[keep].tolist()):
            orbits[i].add(tuple(h))
    return orbits


# every HNF of each column-permutation orbit seen -> that class's key
_orbit_keys: dict[Entries, CanonicalLatticeKey] = {}


def _key_of_hnf(hs: Sequence[Entries]) -> list[CanonicalLatticeKey]:
    """Class key of each plain HNF of ``hs``, the row-major entries of
    nonsingular n x n matrices of one n (n is the square root of their
    length), through the orbit table.  The table answers the HNFs it
    holds; the others are resolved in batches of ``ORBIT_BATCH // n!``
    orbits (at least one), each keyed by its least member in key text
    order, which is nested into a ``Matrix`` only then, once per class.  A
    miss that an earlier orbit of the call resolved is a hit by its
    turn."""
    misses = [h for h in dict.fromkeys(hs) if h not in _orbit_keys]
    n = math.isqrt(len(misses[0])) if misses else 1
    per = max(1, ORBIT_BATCH // math.factorial(n))
    for i in range(0, len(misses), per):
        batch = [h for h in misses[i : i + per] if h not in _orbit_keys]
        if not batch:
            continue
        for h, orbit in zip(batch, hnf_orbit(batch)):
            if h in _orbit_keys:  # its class came first in this batch
                continue
            least = min(orbit, key=_text_order)
            best = tuple(least[r : r + n] for r in range(0, n * n, n))
            key = CanonicalLatticeKey(hnf=best, key_bytes=serialize_matrix(best).encode("ascii"))
            _orbit_keys.update(dict.fromkeys(orbit, key))
    return [_orbit_keys[h] for h in hs]


def canonical_key(delta: SimplicialSet) -> CanonicalLatticeKey:
    """Canonical key of a full-dimensional simplex's lattice, the lattice of
    :func:`generator_matrix`: its least serialized HNF over all column
    permutations, found through the orbit table from :func:`hnf` of the
    generator matrix (row operations commute with column permutations, so
    that HNF has the generator's orbit).  The lattice is anchored at the
    origin vertex (or, without one, at the lex-least vertex).  Two
    simplices get equal keys iff their anchored lattices agree up to a
    coordinate permutation.  So the key is invariant under a unimodular map
    plus an even translation that sends the anchor to the image's anchor.
    A map that anchors another vertex can change it: ``0,0;0,2;4,0`` has
    key ``2x2w1:2,0;0,4``, and its image ``-2,0;-2,4;0,0`` under
    (x, y) -> (y - 2, x) has ``2x2w1:2,2;0,4``.  Raises ValueError for a
    simplex that is not full-dimensional, or whose generator matrix is
    singular (the last row of its HNF is then zero), which only the
    trusting ``SimplicialSet`` constructor lets through."""
    if delta.simplex_dim != delta.ambient_dim:
        raise ValueError("canonical key requires a full-dimensional simplex")
    h = hnf(generator_matrix(delta))
    if not any(h[-1]):
        raise ValueError("canonical key requires a nonsingular matrix")
    return _key_of_hnf([tuple(itertools.chain.from_iterable(h))])[0]
