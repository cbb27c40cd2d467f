"""Maximal mediated sets: fixed-point and removal algorithms, classification,
h-ratio.

Both algorithms return the same set, the maximal mediated set of the simplex
(Reznick 1989): the unique largest set between the vertices and the lattice
points of the hull in which every non-vertex member is the midpoint of two
distinct even members.  The fixed-point form iterates a shrinking closure
from all lattice points of the hull and is kept as the plain-Python oracle.
The removal form, used at scale, is an array kernel on the even points only:

- An even hull point is 2q for an integral point q of the half-scaled
  simplex, and 2q is the midpoint of 2a and 2b iff 2q = a + b.  Each q is
  shifted by the per-coordinate minimum and encoded as one integer with
  per-coordinate radix ``2 * span + 1``, so ``code(a) + code(b)`` is the
  code of ``a + b`` with no carries and code order is lex order.  Codes are
  int64 while the radix product is below 2^62 and Python ints (numpy object
  arrays, same operations) beyond, as for a wide hull in high dimension.
- Removal runs in rounds.  Each round builds the closure of the alive
  points: the doubled codes of the vertices and the pair sums a + b of
  distinct alive a, b.  A non-vertex c stays alive iff 2c is in that
  closure, one ``searchsorted`` for all of them; the rounds stop when one
  deletes nothing, and that round's closure is the result.
- The closure is decoded back to points (the midpoint of 2a and 2b is
  a + b), which come out lex-sorted.

The pair sums run in row blocks of at most ``_BLOCK`` entries, so beyond
the k codes and the closure itself memory stays bounded.

A class is described by three counts: #MMS, #conv (all lattice points of
the hull) and #floor (the vertices and their pairwise midpoints).  The
classification and the h-ratio are functions of them (:func:`classify`,
:func:`h_ratio`).  :func:`compute_mms` gets all three from one hull scan:
the scan's row count is #conv, its even rows halved are the kernel's input,
and #floor has a closed form.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb, prod
from typing import Protocol

import numpy as np

from .geometry import (
    _INT64_SAFE,
    Point,
    SimplicialSet,
    _half_vertices,
    _integral_points,
    lattice_points,
    midpoint_set,
)

# entries per transient block of pair sums
_BLOCK = 1 << 18


class Classification(str, Enum):
    H = "H"
    M = "M"
    INTERMEDIATE = "INTERMEDIATE"


@dataclass(frozen=True)
class HRatio:
    """Exact h-ratio, kept as the defining pair of counts.

    numerator_count = #(mms - floor), denominator_count = #(conv - floor);
    the value is 1 when the bounds coincide (denominator 0).
    """

    numerator_count: int
    denominator_count: int

    @property
    def value(self) -> Fraction:
        if self.denominator_count == 0:
            return Fraction(1)
        return Fraction(self.numerator_count, self.denominator_count)

    def __str__(self) -> str:
        return f"{self.numerator_count}/{self.denominator_count}"


def floor_set(delta: SimplicialSet) -> set[Point]:
    """The lower bound: vertices together with their pairwise midpoints.
    Kept as an oracle; :func:`compute_mms` counts it in closed form."""
    return set(delta.points) | midpoint_set(delta.points)


def mms_fixed_point(delta: SimplicialSet) -> set[Point]:
    """Iterate L -> Mid(L) | delta starting from all lattice points of the
    hull; the sequence shrinks and stabilizes at the maximal mediated set."""
    base = set(delta.points)
    current = lattice_points(delta)
    while True:
        nxt = midpoint_set(current) | base
        if nxt == current:
            return current
        current = nxt


def mms_removal(delta: SimplicialSet) -> set[Point]:
    """The maximal mediated set by batch removal over the even hull points.

    Starting from every even point of the hull, each round deletes at once
    all non-vertex points that are not the midpoint of two distinct alive
    points, until a round deletes nothing; the survivors and all their
    midpoints are returned.  This is the set the one-at-a-time removal and
    the fixed-point iteration give: the maximal mediated set's even part is
    the unique greatest set fixed by the round, and a point with no witness
    pair in L has none in any subset of L, so no round deletes a point of it.
    Each round's test reads the midpoint closure of the alive points, so
    the last round's closure is the result.
    The kernel reads the scan of the half-scaled simplex, whose candidate
    box or ball in Z^n is about 2^n times smaller than the full hull's: a
    caller that needs no hull count, such as an SOS decision, pays only for
    that scan (:func:`compute_mms` reads the full scan instead).
    Memory is O(k) for k even points, one round's closure (midpoints of
    alive points, so at most the hull's lattice points) and blocks of at
    most ``_BLOCK`` entries.
    """
    half = _half_vertices(delta)
    return set(map(tuple, _removal_kernel(_integral_points(half), half).tolist()))


def _removal_kernel(q: np.ndarray, half: tuple[Point, ...]) -> np.ndarray:
    """The removal on the halved even points ``q`` (lex-sorted) with halved
    vertices ``half``; returns the maximal mediated set as a lex-sorted int64
    array (see the module docstring for the codes, rounds and closure)."""
    lo = q.min(axis=0)
    radix = (2 * (q.max(axis=0) - lo) + 1).tolist()
    dtype = np.int64 if prod(radix) < _INT64_SAFE else object
    weights = np.array([prod(radix[i + 1 :]) for i in range(len(radix))], dtype=dtype)
    codes = (q - lo).astype(dtype) @ weights
    fixed = np.zeros(len(codes), dtype=bool)
    vertex_codes = (np.array(half, dtype=np.int64) - lo).astype(dtype) @ weights
    fixed[np.searchsorted(codes, vertex_codes)] = True
    while True:
        closure = _closure(codes, fixed)
        # a loose c is never a vertex, so 2c is in the closure iff 2c = a + b
        # for distinct alive a, b: c's witness test.  A vertex's 2v is in it
        # by construction.  Vertices stay alive and the lex-greatest point of
        # a polytope is a vertex, so 2c never passes the closure's last code.
        doubled = 2 * codes
        keep = closure[np.searchsorted(closure, doubled)] == doubled
        if keep.all():
            # every loose survivor's 2c is a pair sum, so this closure also
            # holds the doubled codes of all alive points: it is the MMS
            break
        codes, fixed = codes[keep], fixed[keep]
    points = closure[:, None] // weights % np.array(radix, dtype=dtype) + 2 * lo
    return points.astype(np.int64, copy=False)


def _closure(codes: np.ndarray, fixed: np.ndarray) -> np.ndarray:
    """Sorted distinct codes of 2v for v in ``codes[fixed]`` and of a + b
    over distinct a, b in ``codes``, with the pair sums built in row blocks
    of ``_BLOCK`` entries."""
    k = len(codes)
    out = 2 * codes[fixed]
    step = max(1, _BLOCK // k)
    for s in range(1, k, step):
        e = min(s + step, k)
        sums = (codes[s:e, None] + codes[:e])[np.tri(e - s, e, s - 1, dtype=bool)]
        out = np.concatenate((out, sums))
        # np.unique hashes first and measured ten times slower at these sizes
        out.sort(kind="stable")
        out = out[np.concatenate(([True], out[1:] != out[:-1]))]
    return out


@dataclass(frozen=True)
class MmsResult:
    delta: SimplicialSet
    mms_points: tuple[Point, ...]
    conv_count: int
    floor_count: int

    @property
    def mms_size(self) -> int:
        return len(self.mms_points)

    @property
    def classification(self) -> Classification:
        return classify(self)

    @property
    def h_ratio(self) -> HRatio:
        return h_ratio(self)

    def to_json_line(self) -> str:
        payload = {
            "delta": str(self.delta),
            "mms_points": [list(p) for p in self.mms_points],
            "conv_count": self.conv_count,
            "floor_count": self.floor_count,
            "classification": self.classification.value,
            "h_ratio": str(self.h_ratio),
        }
        return json.dumps(payload, separators=(",", ":"))


class ClassCounts(Protocol):
    """The three counts that determine a class: an :class:`MmsResult` or a
    store record."""

    @property
    def mms_size(self) -> int: ...

    @property
    def conv_count(self) -> int: ...

    @property
    def floor_count(self) -> int: ...


def classify(counts: ClassCounts) -> Classification:
    # when floor == conv both labels apply; H wins the tie
    if counts.mms_size == counts.conv_count:
        return Classification.H
    if counts.mms_size == counts.floor_count:
        return Classification.M
    return Classification.INTERMEDIATE


def h_ratio(counts: ClassCounts) -> HRatio:
    den = counts.conv_count - counts.floor_count
    if den == 0:
        return HRatio(0, 0)
    return HRatio(counts.mms_size - counts.floor_count, den)


def compute_mms(delta: SimplicialSet, method: str = "removal") -> MmsResult:
    """The MMS of ``delta`` as lex-sorted points, with its bound counts.

    method selects the algorithm ("removal" is the fast default,
    "fixed-point" the literal closure iteration, kept as an oracle).  Both
    take ``conv_count`` from one scan of the hull.  The removal kernel reads
    that scan's even rows, halved: p is even and in conv(delta) iff p/2 is
    in the half-scaled simplex, and the rows stay lex-sorted.
    """
    pts = _integral_points(delta.points)
    if method == "removal":
        evens = pts[(pts % 2 == 0).all(axis=1)] // 2
        mms_points = tuple(map(tuple, _removal_kernel(evens, _half_vertices(delta)).tolist()))
    elif method == "fixed-point":
        mms_points = tuple(sorted(mms_fixed_point(delta)))
    else:
        raise ValueError(f"unknown method {method!r}")
    # the k + 1 vertices and the midpoints of distinct vertex pairs have
    # pairwise distinct barycentric coordinates, so the floor has
    # (k + 1) + C(k + 1, 2) = C(k + 2, 2) points
    return MmsResult(
        delta=delta,
        mms_points=mms_points,
        conv_count=len(pts),
        floor_count=comb(delta.simplex_dim + 2, 2),
    )
