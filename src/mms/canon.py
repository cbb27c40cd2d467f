"""Lattice canonicalization: Hermite normal form up to column permutation.

The lattice of a full-dimensional simplex {0, v_1..v_n} is the row span of
the matrix whose columns are the nonzero vertices.  Unimodular maps of the
simplex change that matrix by left multiplication (same row span) and vertex
reordering permutes columns, so the canonical key is the minimal HNF over
all column permutations.

The HNF is row-style, one ``geometry._hnf_column`` step per column; the
enumeration walk runs the same step and yields each simplex's HNF, so a
census computes none here except in orbits.  Every key resolves through
this module's per-process orbit table: the first HNF of a class pays one n!
pass (:func:`hnf_orbit`) that maps each HNF of the orbit to the class key,
later ones a lookup.  The orbit is ordered like the key text without
formatting its members.  The table never evicts: at most n! HNFs per
distinct class seen.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .geometry import SimplicialSet, _hnf_pivots

Matrix = tuple[tuple[int, ...], ...]


def transpose(m: Matrix) -> Matrix:
    if not m:
        return ()
    return tuple(zip(*m))


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


def _text_order(h: Matrix) -> tuple[str, tuple[int, ...]]:
    """Sort key of a matrix in the order of its :func:`serialize_matrix`
    text, for matrices of one shape with non-negative entries: the text is
    "RxCwW:" then the entries zero-padded to width W, so it sorts by "W:"
    (the ":" puts width 10 before width 1, as "w10" sorts before "w1:")
    and then by the entries in row-major order."""
    width = len(str(max(e for row in h for e in row)))
    return f"{width}:", tuple(e for row in h for e in row)


def hnf_orbit(m: Matrix) -> list[Matrix]:
    """All distinct HNFs of column permutations of the nonsingular square
    matrix m, sorted in the order of their serialized text (compared by
    :func:`_text_order`, without formatting any of them).  This is the
    complete set of plain HNFs occurring in the equivalence class of the
    lattice, which is what makes it usable as a lookup table; the first
    entry is the canonical representative."""
    cols = transpose(m)
    seen = {hnf(transpose(perm)) for perm in itertools.permutations(cols)}
    return sorted(seen, key=_text_order)


# every HNF of each column-permutation orbit seen -> that class's key
_orbit_keys: dict[Matrix, CanonicalLatticeKey] = {}


def _class_key(h: Matrix) -> CanonicalLatticeKey:
    """Canonical key of the class of a plain HNF, through the orbit table."""
    key = _orbit_keys.get(h)
    if key is None:
        orbit = hnf_orbit(h)
        best = orbit[0]
        key = CanonicalLatticeKey(hnf=best, key_bytes=serialize_matrix(best).encode("ascii"))
        for member in orbit:
            _orbit_keys[member] = key
    return key


def _key_of_hnf(h: Matrix) -> str:
    """Canonical key text for a plain HNF."""
    return _class_key(h).key_text


def canonical_key_of_matrix(m: Matrix) -> CanonicalLatticeKey:
    """Minimal serialized HNF over all column permutations of a nonsingular
    square generator matrix.  The minimum is taken in the serialized text
    order, so it is exactly the smallest key that can name this lattice
    class.  hnf(m) has the orbit of m, as row operations commute with column
    permutations.  Raises ValueError for an empty, non-square or singular
    matrix (the last row of hnf(m) is then zero)."""
    if not m or not m[0]:
        raise ValueError("empty matrix has no canonical key")
    if any(len(row) != len(m) for row in m):
        raise ValueError("canonical key requires a square matrix")
    h = hnf(m)
    if not any(h[-1]):
        raise ValueError("canonical key requires a nonsingular matrix")
    return _class_key(h)


def canonical_key(delta: SimplicialSet) -> CanonicalLatticeKey:
    """Canonical key of a full-dimensional simplex's lattice, the lattice of
    :func:`generator_matrix`, anchored at the origin vertex (or, without
    one, at the lex-least vertex).  Two simplices get equal keys iff their
    anchored lattices agree up to a coordinate permutation.  So the key is
    invariant under a unimodular map plus an even translation that sends
    the anchor to the image's anchor.  A map that anchors another vertex
    can change it: ``0,0;0,2;4,0`` has key ``2x2w1:2,0;0,4``, and its image
    ``-2,0;-2,4;0,0`` under (x, y) -> (y - 2, x) has ``2x2w1:2,2;0,4``."""
    if delta.simplex_dim != delta.ambient_dim:
        raise ValueError("canonical key requires a full-dimensional simplex")
    return canonical_key_of_matrix(generator_matrix(delta))
