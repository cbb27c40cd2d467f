"""Maximal mediated sets of even integral simplices.

Compute MMS by fixed-point or removal, canonicalize the underlying lattice
up to unimodular equivalence, enumerate or sample simplices of bounded degree,
aggregate h-ratio statistics into a persistent store, and decide SOS
membership for circuit and simplex polynomials combinatorially.
"""

__version__ = "0.1.0"

from .geometry import SimplicialSet, midpoint_set, lattice_points, even_lattice_points
from .engine import Classification, HRatio, MmsResult, compute_mms, mms_fixed_point, mms_removal
from .canon import CanonicalLatticeKey, canonical_key, generator_matrix, hnf

__all__ = [
    "SimplicialSet",
    "midpoint_set",
    "lattice_points",
    "even_lattice_points",
    "Classification",
    "HRatio",
    "MmsResult",
    "compute_mms",
    "mms_fixed_point",
    "mms_removal",
    "CanonicalLatticeKey",
    "canonical_key",
    "generator_matrix",
    "hnf",
    "__version__",
]
