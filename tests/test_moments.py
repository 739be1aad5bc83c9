import math
from fractions import Fraction

import numpy as np
import pytest

from hsbubble.errors import DomainError
from hsbubble.moments import (
    MOMENT_KINDS,
    bubble_moment,
    identity_report,
    ipq,
    moment_quadrature,
)
from hsbubble.params import HSParams, derive_constants, sphere_area
from hsbubble.quadrature import RadialIntegrand, integrate_radial

P71 = HSParams(7, 1.0)
OMEGA6 = 16.0 * math.pi**3 / 15.0


def test_sphere_area_values():
    np.testing.assert_allclose(sphere_area(7), OMEGA6, rtol=1e-14)
    np.testing.assert_allclose(sphere_area(3), 4.0 * math.pi, rtol=1e-14)
    np.testing.assert_allclose(sphere_area(4), 2.0 * math.pi**2, rtol=1e-14)


def test_ipq_elementary_values():
    assert ipq(3, 1) == pytest.approx(0.5, rel=1e-14)
    assert ipq(10, 8) == pytest.approx(1.0 / 9.0, rel=1e-13)
    assert ipq(12, 5) == pytest.approx(1.0 / 2772.0, rel=1e-13)
    assert ipq(12, 10) == pytest.approx(1.0 / 11.0, rel=1e-13)


def test_ipq_recursions():
    # I_{p+1}^q = (p-q-1)/p I_p^q ; I_{p+1}^{q+1} = (q+1)/p I_p^q
    assert ipq(11, 8) == pytest.approx((1.0 / 10.0) * ipq(10, 8), rel=1e-13)
    assert ipq(11, 9) == pytest.approx((9.0 / 10.0) * ipq(10, 8), rel=1e-13)
    rng = np.random.default_rng(0)
    for _ in range(40):
        p = float(rng.uniform(3.0, 20.0))
        q = float(rng.uniform(0.0, p - 2.0))
        np.testing.assert_allclose(ipq(p + 1, q), (p - q - 1) / p * ipq(p, q),
                                   rtol=1e-12)
        np.testing.assert_allclose(ipq(p + 1, q + 1), (q + 1) / p * ipq(p, q),
                                   rtol=1e-12)


def test_ipq_quadrature_mode_agrees():
    for p, q in [(3.0, 1.0), (10.0, 8.0), (12.0, 5.0), (7.0, 2.5)]:
        closed = ipq(p, q)
        direct = integrate_radial(
            RadialIntegrand(f=lambda t: (1.0 + t) ** (-p), a=q), tol=1e-12
        )["value"]
        np.testing.assert_allclose(direct, closed, rtol=1e-11)


def test_ipq_divergence():
    with pytest.raises(DomainError):
        ipq(3, 2.5)
    with pytest.raises(DomainError):
        ipq(3, -1.0)


def test_bubble_moment_frozen_values_n7_s1():
    k2 = 30.0**5
    np.testing.assert_allclose(bubble_moment(P71, "mass2"),
                               OMEGA6 * k2 / 252.0, rtol=1e-13)
    np.testing.assert_allclose(bubble_moment(P71, "r2mass"),
                               OMEGA6 * k2 / 9.0, rtol=1e-13)
    np.testing.assert_allclose(bubble_moment(P71, "r2mass"), 8.930e7, rtol=1e-3)
    np.testing.assert_allclose(bubble_moment(P71, "crit"),
                               OMEGA6 * 30.0**6 / 2772.0, rtol=1e-13)
    np.testing.assert_allclose(bubble_moment(P71, "r4grad"),
                               OMEGA6 * 25.0 * k2 / 11.0, rtol=1e-13)


def test_moment_divergence_low_dimension():
    assert bubble_moment(HSParams(7, 1.0), "r4grad") > 0
    with pytest.raises(DomainError):
        bubble_moment(HSParams(6, 1.0), "r4grad")
    with pytest.raises(DomainError):
        bubble_moment(HSParams(6, 0.5), "r2mass")
    with pytest.raises(DomainError):
        bubble_moment(HSParams(4, 1.0), "mass2")


def test_unknown_kind_rejected():
    with pytest.raises(DomainError):
        bubble_moment(P71, "r6mass")
    with pytest.raises(DomainError):
        moment_quadrature(P71, "r6mass")


def test_gradient_energy_equals_critical_mass():
    # multiplying the profile equation by U1 and integrating:
    # int |grad U1|^2 = int U1^{2*(s)} |X|^{-s}
    for n, s in [(7, 1.0), (9, 0.5), (8, 1.5), (10, 0.0)]:
        p = HSParams(n, s)
        np.testing.assert_allclose(bubble_moment(p, "gradsq"),
                                   bubble_moment(p, "crit"), rtol=1e-12)


def test_z0grad_against_its_potential_form():
    # int |grad Z0|^2 = (2*(s)-1) int U1^{2*(s)-2} |X|^{-s} Z0^2, expanded in
    # I_p^q directly here as an independent reduction
    for n, s in [(7, 1.0), (9, 0.5), (8, 1.5)]:
        p = HSParams(n, s)
        c = derive_constants(p)
        g = 2.0 - s
        m = (n - s) / g
        q1 = (n - s) / g - 1.0  # r^{n-1-s} under t = r^{2-s}
        rhs = (p.crit_exp - 1.0) * c.kappa_pow * (0.5 * (n - 2)) ** 2 \
            * c.kappa**2 * sphere_area(n) / g \
            * (ipq(2 * m + 2, q1 + 2) - 2 * ipq(2 * m + 2, q1 + 1)
               + ipq(2 * m + 2, q1))
        np.testing.assert_allclose(bubble_moment(p, "z0grad"), rhs, rtol=1e-12)


def test_all_moments_match_direct_quadrature():
    for n, s in [(7, 1.0), (9, 0.5)]:
        p = HSParams(n, s)
        for kind in MOMENT_KINDS:
            closed = bubble_moment(p, kind)
            direct = moment_quadrature(p, kind, tol=1e-10)
            np.testing.assert_allclose(direct, closed, rtol=1e-8,
                                       err_msg=f"{kind} at (n={n}, s={s})")


def test_identity_report_n7_s1_frozen_ratios():
    rep = identity_report(P71)
    expected = {
        "r2grad_over_mass2": 140.0 / 11.0,
        "r2crit_over_mass2": 63.0 / 11.0,
        "r4grad_over_r2mass": 225.0 / 11.0,
        "r4crit_over_r2mass": 27.0 / 11.0,
        "fraction0": 175.0 / 22.0,
        "r4combined": 405.0 / 22.0,
    }
    assert set(rep.ratios) == set(expected)
    for name, value in expected.items():
        entry = rep.ratios[name]
        np.testing.assert_allclose(entry["closed_form"], value, rtol=1e-13)
        assert entry["rel_residual"] <= 1e-8, name
    assert rep.elapsed_seconds < 30.0


def test_identity_report_domain():
    with pytest.raises(DomainError):
        identity_report(HSParams(6, 1.0))
    with pytest.raises(DomainError):
        identity_report(HSParams(7, 0.0))


def test_combined_r4_identity_exact_rationals():
    # R3 - (2/2*(s)) R4 = (n+2)(n-2)(10-s)/(2(2n-2-s)) in exact arithmetic
    for n in range(7, 13):
        for s in (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(7, 4)):
            d = 2 * (2 * n - 2 - s)
            r3 = Fraction((n - 2) * (n + 2)) * (n + 4 - s) / d
            r4 = (n - s) * Fraction((n - 6) * (n + 2)) / d
            two_over_crit = Fraction(n - 2, 1) / (n - s)
            combined = r3 - two_over_crit * r4
            assert combined == Fraction((n + 2) * (n - 2)) * (10 - s) / d


def test_fraction0_matches_coupling_constant():
    # fraction0 = 6 n c_ns, exact rationals
    for n in range(7, 13):
        for s in (Fraction(1, 4), Fraction(1), Fraction(3, 2)):
            d = 2 * (2 * n - 2 - s)
            r1 = Fraction(n * (n - 2)) * (n + 2 - s) / d
            r2 = (n - s) * (n - 2) * Fraction(n * (n - 4)) / ((n - 2) * d)
            two_over_crit = Fraction(n - 2, 1) / (n - s)
            c_ns = Fraction(n - 2) * (6 - s) / (12 * (2 * n - 2 - s))
            assert r1 - two_over_crit * r2 == 6 * n * c_ns
