"""SOS membership decisions for circuit and simplex-supported polynomials."""

import pytest
from hypothesis import assume, given, settings

from mms import geometry
from mms.engine import mms_removal
from mms.geometry import SimplicialSet, lattice_points, strictly_interior
from mms.sos import (
    CircuitSupport,
    HypothesisViolation,
    InnerTerm,
    Parity,
    Sign,
    SimplexSupportedPoly,
    _MEMO_SIZE,
    _memo,
    circuit_is_sos,
    parity_of,
    sonc_simplex_is_sos,
    sos_bound_is_exact,
)
from strategies import small_simplices

MOTZKIN = SimplicialSet.parse("0,0;2,4;4,2")
HURWITZ = SimplicialSet.parse("0,0;0,4;4,0")
HURWITZ_6 = SimplicialSet.parse("0,0;0,6;6,0")
CHOI_LAM = SimplicialSet.parse("0,0,0;0,2,2;2,0,2;2,2,0")


def test_point_tests_on_one_simplex_build_one_frame(monkeypatch):
    calls = []
    real = geometry._det_and_adjugate

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(geometry, "_det_and_adjugate", counted)
    geometry._affine_frame.cache_clear()
    betas = [(1, 1), (2, 2), (3, 2)]
    SimplexSupportedPoly(MOTZKIN, tuple(InnerTerm.of(b, Sign.NEG) for b in betas))
    for beta in betas:
        CircuitSupport(MOTZKIN, beta)
    # six strictly_interior tests on one simplex share one frame
    assert len(calls) == 1


def test_parity_of():
    assert parity_of((2, 4)) is Parity.EVEN
    assert parity_of((1, 2)) is Parity.ODD
    assert parity_of(()) is Parity.EVEN


def test_motzkin_circuit_is_not_sos():
    # x^2y^4 + x^4y^2 + 1 - 3x^2y^2: the inner exponent misses the MMS
    assert circuit_is_sos(CircuitSupport(MOTZKIN, (2, 2))) is False


def test_hurwitz_circuit_is_sos():
    assert circuit_is_sos(CircuitSupport(HURWITZ, (1, 1))) is True
    assert circuit_is_sos(CircuitSupport(HURWITZ_6, (2, 2))) is True


def test_choi_lam_circuit_is_not_sos():
    # x^2y^2 + y^2z^2 + x^2z^2 + 1 - 4xyz
    assert circuit_is_sos(CircuitSupport(CHOI_LAM, (1, 1, 1))) is False


def test_segment_circuit_uses_low_dim_path():
    seg = SimplicialSet.parse("0,0;2,2")
    assert circuit_is_sos(CircuitSupport(seg, (1, 1))) is True


def test_circuit_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        CircuitSupport(MOTZKIN, (2, 2, 2))


def test_circuit_rejects_non_interior_beta():
    with pytest.raises(ValueError, match="not strictly interior"):
        CircuitSupport(MOTZKIN, (2, 4))  # a vertex
    with pytest.raises(ValueError, match="not strictly interior"):
        CircuitSupport(MOTZKIN, (6, 6))  # outside the hull


def test_inner_term_of_infers_parity():
    t = InnerTerm.of((1, 1), Sign.NEG)
    assert t.parity is Parity.ODD
    with pytest.raises(ValueError, match="parity"):
        InnerTerm(beta=(1, 1), coeff_sign=Sign.NEG, parity=Parity.EVEN)


def test_poly_rejects_bad_support():
    with pytest.raises(ValueError, match="full-dimensional"):
        SimplexSupportedPoly(SimplicialSet.parse("0,0;2,2"), ())
    with pytest.raises(ValueError, match="origin"):
        SimplexSupportedPoly(SimplicialSet.parse("0,2;2,0;2,2"), ())
    with pytest.raises(ValueError, match="not strictly interior"):
        SimplexSupportedPoly(HURWITZ, (InnerTerm.of((4, 4), Sign.NEG),))


def test_sonc_choi_lam_not_sos():
    f = SimplexSupportedPoly(CHOI_LAM, (InnerTerm.of((1, 1, 1), Sign.NEG),))
    assert sonc_simplex_is_sos(f) is False


def test_sonc_hurwitz_sos():
    f = SimplexSupportedPoly(
        HURWITZ_6,
        (InnerTerm.of((2, 2), Sign.NEG), InnerTerm.of((1, 1), Sign.POS)),
    )
    # NEG even term and POS odd term both satisfy the hypothesis
    assert sonc_simplex_is_sos(f) is True


def test_sonc_no_inner_terms_is_sos():
    assert sonc_simplex_is_sos(SimplexSupportedPoly(MOTZKIN, ())) is True


def test_sonc_refuses_positive_even_term():
    f = SimplexSupportedPoly(MOTZKIN, (InnerTerm.of((2, 2), Sign.POS),))
    with pytest.raises(HypothesisViolation, match="positive coefficient"):
        sonc_simplex_is_sos(f)


def test_bound_exact_for_positive_even_outside_mms():
    # (2,2) misses the Motzkin MMS, but a positive even term keeps exactness
    f = SimplexSupportedPoly(MOTZKIN, (InnerTerm.of((2, 2), Sign.POS),))
    assert sos_bound_is_exact(f) is True


def test_bound_not_exact_for_negative_term_outside_mms():
    f = SimplexSupportedPoly(MOTZKIN, (InnerTerm.of((2, 2), Sign.NEG),))
    assert sos_bound_is_exact(f) is False
    g = SimplexSupportedPoly(CHOI_LAM, (InnerTerm.of((1, 1, 1), Sign.NEG),))
    assert sos_bound_is_exact(g) is False


def test_bound_exact_when_all_terms_inside_mms():
    f = SimplexSupportedPoly(HURWITZ, (InnerTerm.of((1, 2), Sign.NEG),))
    assert sos_bound_is_exact(f) is True
    assert sos_bound_is_exact(SimplexSupportedPoly(HURWITZ, ())) is True


def test_memo_separates_simplices_sharing_a_key():
    # equal canonical keys, different concrete point sets
    twin = SimplicialSet.parse("0,0;2,0;4,6")
    assert _memo.mms_of(MOTZKIN) == frozenset(mms_removal(MOTZKIN))
    assert _memo.mms_of(twin) == frozenset(mms_removal(twin))
    assert _memo.mms_of(MOTZKIN) != _memo.mms_of(twin)


def test_memo_is_stable_across_calls():
    first = _memo.mms_of(MOTZKIN)
    assert _memo.mms_of(MOTZKIN) is first


def test_memo_evicts_least_recently_used():
    segments = [SimplicialSet.parse(f"0;{2 * k}") for k in range(1, _MEMO_SIZE + 2)]
    for seg in segments[:-1]:
        _memo.mms_of(seg)
    _memo.mms_of(segments[0])  # now the most recently used
    _memo.mms_of(segments[-1])
    assert len(_memo._by_key) == _MEMO_SIZE
    assert segments[0] in _memo._by_key
    assert segments[1] not in _memo._by_key
    assert _memo.mms_of(segments[1]) == frozenset(mms_removal(segments[1]))


@settings(max_examples=40, deadline=None)
@given(delta=small_simplices(max_n=3, degrees=(2, 4, 6), full_dim_only=True))
def test_circuit_decision_matches_mms_membership(delta):
    interior = [p for p in lattice_points(delta) if strictly_interior(delta, p)]
    assume(interior)
    mms = frozenset(mms_removal(delta))
    for beta in interior[:4]:
        assert circuit_is_sos(CircuitSupport(delta, beta)) == (beta in mms)
