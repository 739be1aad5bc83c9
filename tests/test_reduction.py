"""Reduced quartic, ladder families, and threshold classification."""

import math
import re

import numpy as np
import pytest

from hsbubble.errors import DomainError, NumericalError
from hsbubble.geometry import LgBreakdown, PotentialJet, curvature_preset
from hsbubble.moments import bubble_moment
from hsbubble.params import HSParams, derive_constants
from hsbubble.reduction import (
    CriticalPoint,
    FamilyLadder,
    ReducedFunctional,
    Verdict,
    critical_t,
    family_theorem2,
    predicted_delta,
    verdict,
)

P71 = HSParams(7, 1.0)


# ------------------------------------------------------------- critical_t


def test_critical_point_textbook_case():
    out = critical_t(ReducedFunctional(-2.0, 1.0))
    assert out.t0 == 1.0
    assert out.second_derivative == 8.0
    assert out.nondegenerate is True
    assert out.degenerate_quartic is False


def test_no_critical_point_when_signs_agree():
    assert critical_t(ReducedFunctional(2.0, 1.0)).t0 is None
    assert critical_t(ReducedFunctional(-2.0, -1.0)).t0 is None
    # quad = 0: the only critical point is t = 0, not positive
    assert critical_t(ReducedFunctional(0.0, 1.0)).t0 is None


def test_degenerate_quartic_marker():
    out = critical_t(ReducedFunctional(-2.0, 0.0))
    assert out.t0 is None
    assert out.degenerate_quartic is True


@pytest.mark.parametrize("quad,quartic,what", [
    # t0**2 overflows, t0 = 7.07e307 does not, -4 quad does
    (1e308, -1e-308, "f''(t0) = -4 quad"),
    (-5e-324, 1e308, "t0**2 = -quad/(2 quartic)"),  # t0 underflows to 0
    (-1e308, 5e-324, "t0**2 = -quad/(2 quartic)"),  # t0 overflows
    (-1e308, 1.0, "f''(t0) = -4 quad"),  # t0 is finite, -4 quad is not
])
def test_critical_point_out_of_float_range(quad, quartic, what):
    with pytest.raises(NumericalError, match=re.escape(what)):
        critical_t(ReducedFunctional(quad, quartic))


def test_critical_point_where_only_2_quartic_overflows():
    assert critical_t(ReducedFunctional(-1.0, 1e308)).t0 == math.sqrt(0.5e-308)


@pytest.mark.parametrize("quad,quartic,t0", [
    (-1e300, 1e-300, 7.0710678118654752e299),  # t0**2 overflows
    (1e-300, -1e300, 7.0710678118654752e-301),  # t0**2 underflows to 0
])
def test_critical_point_where_only_t0_squared_leaves_float_range(quad, quartic,
                                                                  t0):
    got = critical_t(ReducedFunctional(quad, quartic))
    assert got.t0 == pytest.approx(t0, rel=1e-15)
    assert got.second_derivative == -4.0 * quad
    assert got.nondegenerate


def test_predicted_delta_out_of_float_range():
    with pytest.raises(NumericalError, match="delta = t0 sqrt"):
        predicted_delta(1e200, 1e300)


def test_critical_point_scale_invariance():
    rng = np.random.default_rng(0)
    for _ in range(25):
        quad = float(rng.normal()) or -1.0
        quartic = -math.copysign(float(rng.uniform(0.1, 5.0)), quad)
        lam = float(rng.uniform(1e-6, 1e6))
        t0 = critical_t(ReducedFunctional(quad, quartic)).t0
        t0s = critical_t(ReducedFunctional(lam * quad, lam * quartic)).t0
        assert t0s == pytest.approx(t0, rel=1e-14)


def test_reduced_functional_validation():
    with pytest.raises(DomainError):
        ReducedFunctional(math.nan, 1.0)
    with pytest.raises(DomainError):
        ReducedFunctional(1.0, math.inf)


def test_delta_bookkeeping():
    for eps in (1e-8, 0.3, 17.0):
        d = predicted_delta(2.5, eps)
        assert d**2 / eps == pytest.approx(2.5**2, rel=1e-14)
    with pytest.raises(DomainError):
        predicted_delta(0.0, 1.0)
    with pytest.raises(DomainError):
        predicted_delta(1.0, -1.0)


# -------------------------------------------------------- family_theorem2


def test_family_requires_negative_f0():
    base = LgBreakdown(0.0, 0.0, 0.0)
    for bad in (0.0, 1.0, math.nan):
        with pytest.raises(DomainError):
            family_theorem2(base, P71, bad, 5)
    with pytest.raises(DomainError):
        family_theorem2(base, P71, -1.0, 0)


def test_ladder_over_vanishing_obstruction():
    r4grad = bubble_moment(P71, "r4grad")
    ladder = family_theorem2(LgBreakdown(0.0, 0.0, 0.0), P71, -1.0, 50)
    assert isinstance(ladder, FamilyLadder)
    assert ladder.quad_coef == 0.5 * -1.0 * bubble_moment(P71, "mass2")
    assert len(ladder.entries) == 50
    for e in ladder.entries:
        # every rung's obstruction is strictly positive and exactly the shift
        assert e.lg_k == r4grad / (2.0 * e.k)
        assert e.lg_k > 0.0
        assert e.lap_h_shift == -2.0 * P71.n / e.k
        assert e.predicted_t0 is not None


def test_ladder_shift_is_exact_for_nonzero_base():
    base_total = -123.25
    base = LgBreakdown(-100.0, -23.25, base_total)
    r4grad = bubble_moment(P71, "r4grad")
    ladder = family_theorem2(base, P71, -2.0, 50)
    for e in ladder.entries:
        assert e.lg_k == base_total + r4grad / (2.0 * e.k)


def test_ladder_doubling_halves_shifts_exactly():
    ladder = family_theorem2(LgBreakdown(0.0, 0.0, 0.0), P71, -1.0, 50)
    by_k = {e.k: e for e in ladder.entries}
    for k in range(1, 26):
        assert by_k[2 * k].lg_k == by_k[k].lg_k / 2.0
        assert by_k[2 * k].lap_h_shift * 2.0 == by_k[k].lap_h_shift


def test_ladder_t0_matches_standalone_and_grows():
    ladder = family_theorem2(LgBreakdown(0.0, 0.0, 0.0), P71, -1.0, 12)
    e1 = ladder.entries[0]
    standalone = critical_t(
        ReducedFunctional(ladder.quad_coef, e1.lg_k)).t0
    assert e1.predicted_t0 == standalone
    # shrinking rung obstruction pushes the critical scale up
    t0s = [e.predicted_t0 for e in ladder.entries]
    assert all(b > a for a, b in zip(t0s, t0s[1:]))


def test_ladder_no_prediction_marker():
    r4grad = bubble_moment(P71, "r4grad")
    base = LgBreakdown(0.0, -r4grad / 4.0, -r4grad / 4.0)
    ladder = family_theorem2(base, P71, -1.0, 5)
    assert ladder.entries[0].lg_k > 0.0           # k=1: shift r4grad/2 wins
    assert ladder.entries[0].predicted_t0 is not None
    assert ladder.entries[1].lg_k == 0.0          # k=2: exact cancellation
    assert ladder.entries[1].predicted_t0 is None
    for e in ladder.entries[2:]:
        assert e.lg_k < 0.0
        assert e.predicted_t0 is None


# ----------------------------------------------------------------- verdict


SPHERE7 = curvature_preset("sphere:1", 7)
CV = derive_constants(P71).c_ns * 42.0


def _lg(total):
    return LgBreakdown(total, 0.0, total)


def test_verdict_truth_table():
    cases = {
        (-1, -1): "subcritical-minimizing",
        (-1, 0): "subcritical-minimizing",
        (-1, 1): "subcritical-minimizing",
        (0, -1): "critical-blowup-candidate",
        (0, 0): "critical-degenerate",
        (0, 1): "critical-blowup-candidate",
        (1, -1): "supercritical",
        (1, 0): "supercritical",
        (1, 1): "supercritical",
    }
    h_by_sign = {-1: 0.9 * CV, 0: CV, 1: 1.1 * CV}
    for (hs, ls), want in cases.items():
        out = verdict(PotentialJet(h_by_sign[hs], 0.0), SPHERE7, P71,
                      _lg(5.0 * ls))
        assert out.classification == want, (hs, ls)
        assert out.critical_value == pytest.approx(CV, rel=1e-15)
        assert out.excess == h_by_sign[hs] - CV
        if want == "critical-blowup-candidate":
            assert out.required_f_sign == (-1 if ls > 0 else 1)
        else:
            assert out.required_f_sign is None


def test_verdict_f_sign_compatibility():
    # obstruction positive -> needs f(x0) < 0
    out = verdict(PotentialJet(CV, 0.0, f0=-3.0), SPHERE7, P71, _lg(2.0))
    assert out.required_f_sign == -1 and out.f_sign_ok is True
    out = verdict(PotentialJet(CV, 0.0, f0=3.0), SPHERE7, P71, _lg(2.0))
    assert out.f_sign_ok is False
    # obstruction negative -> needs f(x0) > 0
    out = verdict(PotentialJet(CV, 0.0, f0=3.0), SPHERE7, P71, _lg(-2.0))
    assert out.required_f_sign == 1 and out.f_sign_ok is True
    # no f supplied: no information
    out = verdict(PotentialJet(CV, 0.0), SPHERE7, P71, _lg(2.0))
    assert out.f_sign_ok is None
    # no requirement: no report even with f present
    out = verdict(PotentialJet(0.5 * CV, 0.0, f0=1.0), SPHERE7, P71,
                  _lg(2.0))
    assert out.f_sign_ok is None


def test_verdict_criticality_tolerance():
    near = CV * (1.0 + 1e-13)
    off = CV * (1.0 + 1e-9)
    assert verdict(PotentialJet(near, 0.0), SPHERE7, P71,
                   _lg(1.0)).classification == "critical-blowup-candidate"
    assert verdict(PotentialJet(off, 0.0), SPHERE7, P71,
                   _lg(1.0)).classification == "supercritical"


def test_verdict_lg_tolerance_and_flat_case():
    tiny = _lg(1e-15)
    assert verdict(PotentialJet(CV, 0.0), SPHERE7, P71,
                   tiny).classification == "critical-blowup-candidate"
    assert verdict(PotentialJet(CV, 0.0), SPHERE7, P71, tiny,
                   lg_tol=1e-12).classification == "critical-degenerate"
    with pytest.raises(DomainError, match=r"lg_tol must be >= 0, got -1\.0"):
        verdict(PotentialJet(CV, 0.0), SPHERE7, P71, _lg(0.0), lg_tol=-1)
    flat = curvature_preset("flat", 7)
    out = verdict(PotentialJet(0.0, 0.0), flat, P71, _lg(0.0))
    assert out.classification == "critical-degenerate"
    assert out.critical_value == 0.0


def test_verdict_dimension_mismatch():
    with pytest.raises(DomainError):
        verdict(PotentialJet(0.0, 0.0), curvature_preset("flat", 8), P71,
                _lg(0.0))
