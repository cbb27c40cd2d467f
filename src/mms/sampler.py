"""Seeded uniform sampling of full-dimensional even simplices.

Each accepted sample is {0, p_1..p_n} with the p_i drawn uniformly from the
even nonzero points of 1-norm <= 2d.  Every sample index gets its own PRNG
substream derived from (seed, index), so the stream is a pure function of
the seed and can be split across workers at any block boundary without
changing a single byte of output.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .enumeration import check_shape, vertex_list
from .geometry import SimplicialSet, linear_rank


@dataclass(frozen=True)
class SamplerConfig:
    n: int
    two_d: int
    seed: int
    count: int

    def __post_init__(self) -> None:
        check_shape(self.n, self.two_d)
        if self.count < 1:
            raise ValueError("count must be at least 1")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in an unsigned 64-bit integer")


def _rng_for_index(seed: int, index: int) -> np.random.Generator:
    # PCG64 with a per-sample spawn key: substream identity is (seed, index)
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    )


def sample_simplex(
    n: int, two_d: int, seed: int, index: int
) -> SimplicialSet:
    """The sample at a given stream index: draw n points, redraw within the
    same substream while they are affinely dependent with the origin."""
    rows = vertex_list(n, two_d)
    m = len(rows)
    rng = _rng_for_index(seed, index)
    origin = (0,) * n
    while True:
        pts = [rows[int(i)] for i in rng.integers(0, m, size=n)]
        # duplicates are linearly dependent, so one rank check covers both
        if linear_rank(pts) == n:
            return SimplicialSet(tuple(sorted([origin, *pts])))


def sample_stream(cfg: SamplerConfig) -> Iterator[SimplicialSet]:
    for index in range(cfg.count):
        yield sample_simplex(cfg.n, cfg.two_d, cfg.seed, index)
