"""Acceptance gate: one test per shipped guarantee, pinned to frozen values.

Heavy full-census and sampled checks are marked `extended` but still run by
default; deselect with `-m "not extended"` for a quick pass.
"""

import math
import random
import time
from math import gcd

import pytest

from strategies import mapped

from mms.canon import canonical_key
from mms.engine import (
    Classification,
    compute_mms,
    mms_fixed_point,
    mms_removal,
)
from mms.enumeration import enumerate_simplices
from mms.geometry import SimplicialSet, lattice_points
from mms.pipeline import check_conjecture, run_pipeline
from mms.sampler import SamplerConfig, sample_simplex, sample_stream

MOTZKIN = SimplicialSet.parse("0,0;2,4;4,2")
HURWITZ_SCALED = SimplicialSet.parse("0,0;0,4;4,0")
CHOI_LAM = SimplicialSet.parse("0,0,0;0,2,2;2,0,2;2,2,0")
DIM4 = SimplicialSet.parse("0,0,0,0;0,0,0,4;0,2,2,0;2,0,2,0;2,2,0,0")
TETRA = SimplicialSet.parse("0,0,0;4,0,0;0,6,0;0,0,10")


def test_acceptance_01_golden_mms_examples():
    start = time.perf_counter()

    r1 = compute_mms(MOTZKIN)
    assert set(r1.mms_points) == {(0, 0), (1, 2), (2, 1), (2, 4), (3, 3), (4, 2)}
    assert r1.classification is Classification.M

    r2 = compute_mms(HURWITZ_SCALED)
    assert set(r2.mms_points) == lattice_points(HURWITZ_SCALED)
    assert r2.classification is Classification.H

    r3 = compute_mms(CHOI_LAM)
    assert lattice_points(CHOI_LAM) - set(r3.mms_points) == {(1, 1, 1)}

    r4 = compute_mms(DIM4)
    assert r4.conv_count == 22
    assert lattice_points(DIM4) - set(r4.mms_points) == {(1, 1, 1, 0), (1, 1, 1, 1)}

    r5 = compute_mms(TETRA)
    assert lattice_points(TETRA) - set(r5.mms_points) == {(1, 2, 4)}

    assert time.perf_counter() - start < 1.0


def test_acceptance_02_algorithm_agreement():
    # exhaustive planar universe up to degree 10 (contains all lower degrees)
    exhaustive = list(enumerate_simplices(2, 10))
    assert len(exhaustive) == 169
    for delta in exhaustive:
        assert set(mms_removal(delta)) == set(mms_fixed_point(delta))
    # seeded random leg: 560 simplices across dimensions 1..4
    checked = 0
    for n in (1, 2, 3, 4):
        for two_d in (4, 8):
            for index in range(70):
                delta = sample_simplex(n, two_d, seed=4000 + n, index=index)
                assert set(mms_removal(delta)) == set(mms_fixed_point(delta))
                checked += 1
    assert checked >= 500


@pytest.mark.extended
def test_acceptance_03_full_census_n3_2d10(tmp_path):
    sim, lat = run_pipeline(3, 10, "full", 1, str(tmp_path / "n3"))
    assert sim.total_count == 21636
    assert lat.total_count == 782
    assert abs(float(sim.mean_h_ratio) - 0.724138) <= 1e-5
    assert abs(sim.sd_population - 0.392967) <= 1e-5
    assert abs(float(lat.mean_h_ratio) - 0.592994) <= 1e-5
    assert abs(lat.sd_population - 0.397988) <= 1e-5
    # the population convention matches at 1e-5; the sample convention
    # misses the same figure by ~2.5e-4, so no tolerance fallback is needed
    assert abs(lat.sd_sample - 0.397988) > 1e-4
    assert abs(float(lat.decrease_factor) - 27.667519) <= 1e-5


@pytest.fixture(scope="module")
def census_n7(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("n7"))
    return run_pipeline(7, 4, "full", 1, out)


@pytest.mark.extended
def test_acceptance_04_full_census_n7_2d4(census_n7):
    sim, lat = census_n7
    assert lat.total_count == 19
    assert abs(float(sim.mean_h_ratio) - 0.931788) <= 1e-5
    assert abs(float(lat.mean_h_ratio) - 0.853923) <= 1e-5
    assert sim.total_count == 1207253


@pytest.mark.extended
@pytest.mark.xfail(
    strict=True,
    reason="recorded total is 2414505 = 2*1207253 - 1; the key count, both "
    "means, and every per-class figure reproduce exactly from 1207253",
)
def test_acceptance_04b_recorded_total_n7_2d4(census_n7):
    sim, _ = census_n7
    assert sim.total_count == 2414505


def test_acceptance_05_planar_dichotomy_to_2d30():
    # the degree-30 universe contains every planar simplex of lower degree
    survey = check_conjecture(30, workers=1)
    assert survey.passed is True
    assert survey.lattices.intermediate_count == 0
    baseline = check_conjecture(6, workers=1)
    assert baseline.passed is True
    assert baseline.lattices.m_count == 1  # the Motzkin class alone


def _random_unimodular(rng, n):
    a = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(6):
        op = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if op == 0 and i != j:
            c = rng.choice((-1, 1))
            for k in range(n):
                a[i][k] += c * a[j][k]
        elif op == 1 and i != j:
            a[i], a[j] = a[j], a[i]
        elif op == 2:
            a[i] = [-x for x in a[i]]
    return tuple(tuple(row) for row in a)


def _apply(a, b, p):
    n = len(p)
    return tuple(sum(a[i][j] * p[j] for j in range(n)) + b[i] for i in range(n))


def test_acceptance_06_affine_invariance():
    rng = random.Random(61)
    for case in range(200):
        n = rng.choice((2, 3))
        two_d = rng.choice((4, 6, 8))
        delta = sample_simplex(n, two_d, seed=7000 + case, index=0)
        a = _random_unimodular(rng, n)
        b = tuple(2 * rng.randint(-3, 3) for _ in range(n))
        image = mapped(delta, a, b)
        r_base = compute_mms(delta)
        r_image = compute_mms(image)
        assert {_apply(a, b, p) for p in r_base.mms_points} == set(r_image.mms_points)
        assert str(r_base.h_ratio) == str(r_image.h_ratio)
        neg_b = tuple(-c for c in b)
        assert (
            canonical_key(mapped(image, offset=neg_b)).key_text
            == canonical_key(delta).key_text
        )


def test_acceptance_07_boundary_growth_forces_h():
    # >= 4 boundary lattice points on the half-scaled simplex force H
    applicable = 0
    for delta in enumerate_simplices(2, 20):
        half = [tuple(c // 2 for c in p) for p in delta.points]
        (x0, y0), (x1, y1), (x2, y2) = half
        boundary = (
            gcd(abs(x1 - x0), abs(y1 - y0))
            + gcd(abs(x2 - x1), abs(y2 - y1))
            + gcd(abs(x0 - x2), abs(y0 - y2))
        )
        if boundary >= 4:
            applicable += 1
            assert compute_mms(delta).classification is Classification.H
    assert applicable > 0


def test_acceptance_08_worker_and_seed_determinism(tmp_path):
    outputs = {}
    for workers in (1, 4, 8):
        out = str(tmp_path / f"w{workers}")
        run_pipeline(3, 8, "full", workers, out)
        blob = {}
        for name in ("merged.jsonl", "merged.jsonl.idx", "stats.csv", "stats.json"):
            with open(f"{out}/{name}", "rb") as fh:
                blob[name] = fh.read()
        outputs[workers] = blob
    assert outputs[1] == outputs[4] == outputs[8]
    cfg = SamplerConfig(n=3, two_d=8, seed=5, count=400)
    first = "\n".join(str(s) for s in sample_stream(cfg)).encode()
    second = "\n".join(str(s) for s in sample_stream(cfg)).encode()
    assert first == second


@pytest.mark.extended
def test_acceptance_09_sampled_mean_n4_2d16(tmp_path):
    # statistical, not exact: the reference figure's sampling noise is
    # independent of ours, so the gate is 3 standard errors wide
    sim, _ = run_pipeline(
        4, 16, "sample", 1, str(tmp_path / "s416"), seed=20260822, count=100000
    )
    assert sim.total_count == 100000
    standard_error = sim.sd_sample / math.sqrt(sim.total_count)
    assert abs(float(sim.mean_h_ratio) - 0.392896) <= 3 * standard_error
