"""Combinatorial SOS decisions via MMS membership.

For a nonnegative circuit polynomial whose inner coefficient is negative or
whose inner exponent is odd, SOS-ness is equivalent to the interior
exponent lying in the MMS of the support simplex.  For a simplex-supported
polynomial whose inner terms all have a negative coefficient or an odd
exponent, SOS-ness is equivalent to all inner exponents lying in the MMS.
Outside that hypothesis (:func:`require_hypothesis`) the equivalence fails
and the decision is refused.
Each decision reads the MMS of its own support through a bounded memo
keyed by the simplex; no lattice key is needed.
"""
from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

from .engine import mms_removal
from .geometry import Point, SimplicialSet, strictly_interior


class Sign(str, Enum):
    NEG = "NEG"
    POS = "POS"


class Parity(str, Enum):
    EVEN = "EVEN"
    ODD = "ODD"


class HypothesisViolation(ValueError):
    """The requested decision lies outside the hypothesis that makes the
    combinatorial equivalence valid."""


def parity_of(point: Sequence[int]) -> Parity:
    return Parity.EVEN if all(c % 2 == 0 for c in point) else Parity.ODD


@dataclass(frozen=True)
class CircuitSupport:
    """Support of a circuit polynomial: even simplex vertices plus one
    exponent strictly inside their hull."""

    delta: SimplicialSet
    beta: Point

    def __post_init__(self) -> None:
        if len(self.beta) != self.delta.ambient_dim:
            raise ValueError("dimension mismatch between delta and beta")
        if not strictly_interior(self.delta, self.beta):
            raise ValueError(
                f"beta {self.beta} is not strictly interior to conv(delta)"
            )


@dataclass(frozen=True)
class InnerTerm:
    beta: Point
    coeff_sign: Sign
    parity: Parity

    def __post_init__(self) -> None:
        if parity_of(self.beta) is not self.parity:
            raise ValueError(f"declared parity of {self.beta} is wrong")

    @classmethod
    def of(cls, beta: Sequence[int], coeff_sign: Sign) -> "InnerTerm":
        b = tuple(int(c) for c in beta)
        return cls(beta=b, coeff_sign=coeff_sign, parity=parity_of(b))


@dataclass(frozen=True)
class SimplexSupportedPoly:
    """A polynomial supported on a full-dimensional simplex with origin,
    plus inner terms (exponent, coefficient sign, parity)."""

    delta: SimplicialSet
    inner_terms: tuple[InnerTerm, ...]

    def __post_init__(self) -> None:
        if self.delta.simplex_dim != self.delta.ambient_dim:
            raise ValueError("delta must be full-dimensional")
        if (0,) * self.delta.ambient_dim not in self.delta.points:
            raise ValueError("delta must contain the origin")
        for term in self.inner_terms:
            if not strictly_interior(self.delta, term.beta):
                raise ValueError(
                    f"inner exponent {term.beta} is not strictly interior"
                )


_MEMO_SIZE = 256  # simplices whose MMS the memo keeps


class _MmsMemo:
    """MMS point sets of the ``_MEMO_SIZE`` most recently used simplices.
    Keyed by the simplex itself: equivalent simplices have equal MMS only
    up to a unimodular map."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._by_key: OrderedDict[SimplicialSet, frozenset[Point]] = OrderedDict()

    def mms_of(self, delta: SimplicialSet) -> frozenset[Point]:
        with self._lock:
            result = self._by_key.get(delta)
            if result is not None:
                self._by_key.move_to_end(delta)
                return result
        result = frozenset(mms_removal(delta))
        with self._lock:
            self._by_key[delta] = result
            if len(self._by_key) > _MEMO_SIZE:
                self._by_key.popitem(last=False)
        return result


_memo = _MmsMemo()


def require_hypothesis(terms: Iterable[InnerTerm]) -> None:
    """HypothesisViolation unless every inner term has coeff_sign NEG or
    parity ODD, the hypothesis of the MMS equivalence.  A positive
    coefficient on an even exponent makes the term a monomial square, so
    the polynomial can be SOS whatever the MMS holds."""
    for term in terms:
        if term.coeff_sign is not Sign.NEG and term.parity is not Parity.ODD:
            raise HypothesisViolation(
                f"inner term {term.beta} has a positive coefficient and even "
                "exponent; the SOS equivalence does not apply"
            )


def circuit_is_sos(c: CircuitSupport) -> bool:
    """Decide SOS-ness of a nonnegative circuit polynomial with support c,
    whose inner term meets :func:`require_hypothesis`: true iff the
    interior exponent lies in the MMS of the vertex simplex."""
    return c.beta in _memo.mms_of(c.delta)


def sonc_simplex_is_sos(f: SimplexSupportedPoly) -> bool:
    """Decide SOS-ness for a simplex-supported nonnegativity-certified
    polynomial.  Requires every inner term to have coeff_sign NEG or parity
    ODD; otherwise the underlying equivalence does not apply and a
    HypothesisViolation is raised instead of guessing."""
    require_hypothesis(f.inner_terms)
    if not f.inner_terms:
        return True
    mms = _memo.mms_of(f.delta)
    return all(term.beta in mms for term in f.inner_terms)


def sos_bound_is_exact(f: SimplexSupportedPoly) -> bool:
    """Whether the SOS relaxation bound is exact for f: every inner term
    must lie in the MMS or be an even exponent with positive coefficient."""
    if not f.inner_terms:
        return True
    mms = _memo.mms_of(f.delta)
    for term in f.inner_terms:
        if term.beta in mms:
            continue
        if term.parity is Parity.EVEN and term.coeff_sign is Sign.POS:
            continue
        return False
    return True
