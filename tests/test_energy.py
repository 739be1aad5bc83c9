"""Energy quadrature vs closed-form expansion, fits, and remainder norms.

Layered so every closed-form claim is cross-examined by an independent
route: predicted coefficients come from the moment registry, J from adaptive
quadrature with no expansion, the remainder norm from Kronrod x graded
Gauss-Legendre against an mpmath oracle, a nested scipy quad oracle and a
Monte-Carlo angular check.
"""

import hashlib
import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import roots_jacobi

from hsbubble import energy, quadrature
from hsbubble.bubble import du1, rdru1, u1
from hsbubble.energy import (
    FitReport,
    RadialModel,
    fit_expansion,
    j_at_bubble,
    predicted_coeffs,
    remainder_alpha,
    remainder_norm_scaled,
)
from hsbubble.errors import DomainError, NumericalError
from hsbubble.geometry import (CurvatureData, PotentialJet, assemble_w,
                               curvature_preset)
from hsbubble.moments import bubble_moment
from hsbubble.params import HSParams, derive_constants, sphere_area

from closed_forms import flat_alpha_inv_closed_form, remainder_oracle

P71 = HSParams(7, 1.0)
SPHERE7 = curvature_preset("sphere:1", 7)
CRIT_H0 = derive_constants(P71).c_ns * 42.0  # 175/22


def critical_model():
    return RadialModel(SPHERE7, PotentialJet(CRIT_H0, 0.0))


def flat_model(h0=1.0, lap_h=0.0):
    return RadialModel(curvature_preset("flat", 7), PotentialJet(h0, lap_h))


# ------------------------------------------------------------ RadialModel


def test_radial_model_accepts_reasonable_data():
    m = critical_model()
    assert m.r0 == 1.0
    # density at a few radii: 1 - r^2 + (7/15) r^4 on the unit sphere model
    r = np.array([0.0, 0.5, 1.0, 2.0])
    np.testing.assert_allclose(
        m.density(r), 1.0 - r**2 + (7.0 / 15.0) * r**4, rtol=1e-14)


def test_radial_model_rejects_bad_r0():
    for r0 in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            RadialModel(SPHERE7, PotentialJet(0.0, 0.0), r0=r0)


def test_radial_model_rejects_density_negative_at_endpoint():
    # scal=42, rm tuned so c4 = 0 exactly: G = 1 - r^2, negative at r = 2
    c = CurvatureData(n=7, scal=42.0, ric_norm2=252.0, rm_norm2=3612.0,
                      lap_scal=0.0)
    with pytest.raises(DomainError):
        RadialModel(c, PotentialJet(0.0, 0.0), r0=1.0)
    # the same data is fine when truncated earlier (G > 0 on [0, 0.8])
    RadialModel(c, PotentialJet(0.0, 0.0), r0=0.4)


def test_radial_model_names_an_overflowing_density_coefficient():
    # min(1, inf) = 1 passed the positivity test (was a non-finite
    # quadrature summand)
    c = CurvatureData(n=7, scal=0.0, ric_norm2=1e308, rm_norm2=0.0,
                      lap_scal=0.0)
    with pytest.raises(NumericalError, match=re.escape(
            "the volume density coefficients c2 = -0.0, c4 = inf of this "
            "curvature leave the float range")):
        RadialModel(c, PotentialJet(0.0, 0.0))


def test_radial_model_rejects_interior_density_dip():
    # c2 = -1, c4 = 0.2: endpoints G(0) = 1, G(2) = 0.2 > 0, but the
    # interior minimum at r^2 = 2.5 gives -0.25 -- the critical-point branch
    c = CurvatureData(n=7, scal=42.0, ric_norm2=252.0, rm_norm2=2100.0,
                      lap_scal=0.0)
    with pytest.raises(DomainError):
        RadialModel(c, PotentialJet(0.0, 0.0), r0=1.0)


# ------------------------------------------------------- predicted_coeffs


def test_predicted_leading_constant():
    pred = predicted_coeffs(flat_model(0.0), P71)
    want = (2.0 - 1.0) / (2.0 * (7.0 - 1.0)) * bubble_moment(P71, "crit")
    assert pred["c0"] == pytest.approx(want, rel=1e-14)
    assert pred["c0"] == pytest.approx(724822.0522667478, rel=1e-10)


def test_predicted_c2_vanishes_exactly_at_critical_potential():
    assert predicted_coeffs(critical_model(), P71)["c2"] == 0.0


def test_predicted_flat_jet_values():
    pred = predicted_coeffs(flat_model(1.0), P71)
    assert pred["c2"] == pytest.approx(
        0.5 * bubble_moment(P71, "mass2"), rel=1e-14)
    assert pred["c4"] == 0.0


def test_predicted_c4_critical_sphere_collapses():
    # at the critical potential with lap_h = 0 on the unit sphere the
    # delta^4 coefficient reorganizes to (K/(4n)) * int |X|^2 U1^2
    pred = predicted_coeffs(critical_model(), P71)
    want = (98.0 / 11.0) / 28.0 * bubble_moment(P71, "r2mass")
    assert pred["c4"] == pytest.approx(want, rel=1e-12)
    assert pred["c4"] == pytest.approx(28413024.448856175, rel=1e-9)


def test_predicted_coeffs_rejects_small_n():
    with pytest.raises(DomainError):
        predicted_coeffs(
            RadialModel(curvature_preset("flat", 6), PotentialJet(0.0, 0.0)),
            HSParams(6, 1.0))


def test_euclidean_gradient_critical_identity():
    # int |grad U1|^2 = int U1^{2*} |X|^{-s}
    for (n, s) in [(7, 1.0), (8, 0.5), (10, 1.75)]:
        p = HSParams(n, s)
        assert bubble_moment(p, "gradsq") == pytest.approx(
            bubble_moment(p, "crit"), rel=1e-8)


# ----------------------------------------------------------- j_at_bubble


def test_j_regime_validation():
    m = critical_model()
    for bad in (0.0, -0.01, 0.11, math.nan, math.inf):
        with pytest.raises(DomainError):
            j_at_bubble(m, P71, bad)
    with pytest.raises(DomainError):
        j_at_bubble(
            RadialModel(curvature_preset("flat", 6), PotentialJet(0.0, 0.0)),
            HSParams(6, 1.0), 0.01)


@pytest.mark.parametrize("s, delta, integral", [
    (1.0, 1e-49, "gradient"),  # was J = 0.0
    (0.0, 1e-46, "critical"),  # was J = 32171.88 = 3.5 c0
])
def test_j_refuses_a_bubble_inside_the_first_panel(s, delta, integral):
    # the grading toward rho = 0 reaches (r0/delta) 2**-60; a bubble below
    # it leaves an integral that sums to exactly 0, and J is wrong
    with pytest.raises(NumericalError, match=re.escape(
            f"J at delta = {delta} is out of the quadrature's reach: the "
            f"bubble lies inside the first panel of [0, r0/delta = "
            f"{1 / delta:.3g}], where the {integral} integral sums to 0")):
        j_at_bubble(flat_model(h0=0.0), HSParams(7, s), delta)


def test_j_flat_massless_is_delta_invariant_up_to_truncation():
    # with h == 0 on flat space the functional is scale invariant; only the
    # sharp-truncation tail, bounded by omega (n-2) kappa^2 delta^{n-2},
    # separates J(delta) from the leading constant
    m = flat_model(0.0)
    c0 = predicted_coeffs(m, P71)["c0"]
    k2 = derive_constants(P71).kappa ** 2
    for d in (0.01, 0.02):
        bound = sphere_area(7) * 5.0 * k2 * d**5
        assert abs(j_at_bubble(m, P71, d) - c0) <= bound
    assert abs(j_at_bubble(m, P71, 0.01) - j_at_bubble(m, P71, 0.02)) \
        <= sphere_area(7) * 5.0 * k2 * 0.02**5


def test_j_critical_sweep_difference_is_fourth_order():
    # at the critical potential the delta^2 term is dead: J(0.02) - J(0.01)
    # must track c4 (delta^4 differences), far below the generic delta^2 scale
    m = critical_model()
    dJ = j_at_bubble(m, P71, 0.02) - j_at_bubble(m, P71, 0.01)
    c4 = predicted_coeffs(m, P71)["c4"]
    ratio = dJ / (c4 * (0.02**4 - 0.01**4))
    assert 0.5 < ratio < 1.5
    generic = 0.5 * CRIT_H0 * bubble_moment(P71, "mass2") * (0.02**2 - 0.01**2)
    assert abs(dJ) <= 0.01 * generic


def test_j_expansion_residual_is_beyond_fourth_order(monkeypatch):
    # r(delta) = J - (c0 + c2 d^2 + c4 d^4) against the *predicted*
    # coefficients must vanish faster than delta^4 toward small delta
    monkeypatch.setattr(energy, "TOL", 1e-13)
    m = critical_model()
    pred = predicted_coeffs(m, P71)
    r = {}
    for d in (0.001, 0.002):
        J = j_at_bubble(m, P71, d)
        r[d] = J - (pred["c0"] + pred["c2"] * d**2 + pred["c4"] * d**4)
        assert abs(r[d]) <= 1e-10 * abs(J)
    assert abs(r[0.001]) / 0.001**4 < abs(r[0.002]) / 0.002**4

    p2 = HSParams(8, 0.5)
    c2p = curvature_preset("sphere:1", 8)
    m2 = RadialModel(
        c2p, PotentialJet(derive_constants(p2).c_ns * c2p.scal, 0.0))
    pred2 = predicted_coeffs(m2, p2)
    r2 = {}
    for d in (0.005, 0.01):
        J = j_at_bubble(m2, p2, d)
        r2[d] = J - (pred2["c0"] + pred2["c2"] * d**2 + pred2["c4"] * d**4)
    assert abs(r2[0.005]) / 0.005**4 < abs(r2[0.01]) / 0.01**4


# ---------------------------------------------------------- fit_expansion


def test_fit_critical_sphere_7_1():
    rep = fit_expansion(critical_model(), P71, np.geomspace(0.005, 0.05, 12))
    allowance = 0.01 * 0.5 * CRIT_H0 * bubble_moment(P71, "mass2")
    assert abs(rep.c2_fit) <= allowance           # criticality kills delta^2
    assert abs(rep.c0_dev) <= 1e-8
    assert abs(rep.c4_dev) <= 0.05                # delta^4 coefficient holds
    assert rep.condition < 1e9
    assert rep.rms_residual <= 1e-9 * rep.c0_pred


def test_fit_flat_potential():
    rep = fit_expansion(flat_model(1.0), P71, np.geomspace(0.005, 0.05, 12))
    assert abs(rep.c2_dev) <= 0.01
    # c4 is predicted to vanish; whatever the fit distributes onto that
    # column must be impact-negligible across the sweep
    assert abs(rep.c4_fit) * 0.05**4 <= 1e-4 * rep.c0_pred
    assert set(rep.nuisance) == {"delta^5", "delta^6*log(1/delta)",
                                 "delta^6", "delta^7"}


def test_fit_samples_equal_j_at_bubble(monkeypatch):
    # the fit samples J at all deltas in one quadrature batch; each sample
    # is exactly j_at_bubble at its delta
    sweep, samples = energy._j_sweep, []

    def spy(model, p, deltas):
        samples.append(sweep(model, p, deltas))
        return samples[-1]

    m, deltas = critical_model(), np.geomspace(0.005, 0.05, 12)
    monkeypatch.setattr(energy, "_j_sweep", spy)
    fit_expansion(m, P71, deltas)
    monkeypatch.undo()
    assert samples == [[j_at_bubble(m, P71, float(d)) for d in deltas]]


def test_radial_model_computes_density_coefficients_once(monkeypatch):
    calls = []
    real = energy.density_coeffs

    def counted(c):
        calls.append(c)
        return real(c)

    monkeypatch.setattr(energy, "density_coeffs", counted)
    m = critical_model()
    for r in (0.1, np.linspace(0.0, 1.0, 5)):
        m.density(r)
    predicted_coeffs(m, P71)
    assert len(calls) == 1


def test_fit_validation_errors():
    m = critical_model()
    with pytest.raises(DomainError):
        fit_expansion(m, P71, [0.005, 0.01, 0.02, 0.04, 0.05])  # < 8
    with pytest.raises(DomainError):
        fit_expansion(m, P71, np.geomspace(0.01, 0.05, 8))  # half a decade
    with pytest.raises(DomainError):
        fit_expansion(m, P71, np.geomspace(0.02, 0.2, 8))  # outside regime
    with pytest.raises(DomainError, match="need at least 8 deltas .* got 6"):
        fit_expansion(m, P71, np.geomspace(0.005, 0.05, 6))
    with pytest.raises(DomainError, match="need at least 8 deltas .* got 7"):
        fit_expansion(m, P71, np.geomspace(0.005, 0.05, 7))
    with pytest.raises(DomainError, match="got 0"):
        fit_expansion(m, P71, [])
    with pytest.raises(NumericalError, match=re.escape(
            "(1.0 decades, 2 distinct deltas)")):
        # decade span but only two distinct deltas: rank-deficient design
        fit_expansion(m, P71, [0.005] * 4 + [0.05] * 4)


def test_fit_answers_where_its_residual_square_overflows():
    # J reaches 4e203 at h0 = 1e200 and its RMS residual 5e193, whose
    # square overflowed (was "its fitted values leave the float range");
    # the fit runs on J * 2**-k, and every number it reports is a float
    rep = fit_expansion(flat_model(1e200), P71, np.geomspace(0.005, 0.05, 12))
    values = [v for k, v in vars(rep).items() if k != "nuisance"]
    assert np.all(np.isfinite([*values, *rep.nuisance.values()]))
    assert abs(rep.c2_dev) < 1e-6


def test_fit_names_a_non_finite_j(monkeypatch):
    deltas = np.geomspace(0.005, 0.05, 12).tolist()
    monkeypatch.setattr(energy, "_j_sweep", lambda model, p, ds: [
        math.inf if d == deltas[3] else 1.0 for d in ds])
    with pytest.raises(NumericalError, match=re.escape(
            f"the energy fit with h0 = 1.0, lap_h = 0.0: J at delta = "
            f"{deltas[3]!r} leaves the float range")):
        fit_expansion(flat_model(), P71, deltas)


def test_fit_refuses_subnormal_deltas_without_a_warning():
    # were overflow and invalid-value RuntimeWarnings (the span ratio and
    # the delta^6 log(1/delta) column, 0 * inf), then a design column
    # blamed for an overflow
    with pytest.raises(DomainError, match=re.escape(
            "delta = 1e-310 is too small: r0/delta (r0 = 1.0) overflows a "
            "float")):
        fit_expansion(flat_model(), P71, np.geomspace(1e-310, 0.1, 8))
    tiny = RadialModel(curvature_preset("flat", 7), PotentialJet(1.0, 0.0),
                       r0=1e-300)
    with pytest.raises(NumericalError, match="design column delta\\^2 "
                                             "underflows to 0"):
        fit_expansion(tiny, P71, np.geomspace(1e-310, 1e-302, 8))
    # at r0 = 0.5 r0/delta is a float where 1/delta is not; the
    # delta^6 log(1/delta) column is 0 there, not 0 * inf, and the design
    # is refused for what it is
    half = RadialModel(curvature_preset("flat", 7), PotentialJet(1.0, 0.0),
                       r0=0.5)
    with pytest.raises(NumericalError, match="condition"):
        fit_expansion(half, P71, np.geomspace(3e-309, 0.05, 8))


def test_fit_report_requires_finite_deviations():
    with pytest.raises(DomainError):
        FitReport(c0_fit=0.0, c2_fit=0.0, c4_fit=0.0,
                  c0_se=0.0, c2_se=0.0, c4_se=0.0,
                  c0_pred=0.0, c2_pred=0.0, c4_pred=0.0,
                  c0_dev=math.inf, c2_dev=0.0, c4_dev=0.0,
                  condition=1.0, rms_residual=0.0)


# -------------------------------------------------------------- remainder


GENERIC_C = CurvatureData(n=7, scal=3.0, ric_norm2=9.0 / 7.0 + 4.0,
                          rm_norm2=2.0, lap_scal=0.0)


def axial_mu(c):
    """mu of the axial trace-free Ricci T = mu (e x e - g/n), whose
    |T|^2 = mu^2 (n-1)/n is the data's trace-free magnitude."""
    return math.sqrt(c.tfree_ric_norm2 * c.n / (c.n - 1.0))


def test_remainder_flat_matches_closed_form():
    got = remainder_alpha(curvature_preset("flat", 7), P71, 1.0)
    want = flat_alpha_inv_closed_form(P71, 1.0)
    assert got["alpha_inv"] == pytest.approx(want, rel=1e-8)
    assert got["alpha"] == pytest.approx(1.0 / want, rel=1e-8)
    assert got["degenerate"] is False
    # |h0| scales the norm linearly
    got2 = remainder_alpha(curvature_preset("flat", 7), P71, -2.0)
    assert got2["alpha_inv"] == pytest.approx(2.0 * want, rel=1e-10)


def test_remainder_degenerate_marker():
    out = remainder_alpha(curvature_preset("flat", 7), P71, 0.0)
    assert out == {"alpha_inv": 0.0, "alpha": None, "degenerate": True}


def test_j_at_bubble_names_a_kappa_overflow():
    # kappa overflows at every s from n = 345, as does a sphere area (was an
    # OverflowError from math.gamma)
    model = RadialModel(curvature_preset("flat", 345), PotentialJet(0.0, 0.0))
    with pytest.raises(NumericalError, match="kappa"):
        j_at_bubble(model, HSParams(345, 1.0), 0.05)


def test_remainder_validation():
    with pytest.raises(DomainError):
        remainder_alpha(curvature_preset("flat", 6), HSParams(6, 1.0), 1.0)
    with pytest.raises(DomainError):
        remainder_norm_scaled(GENERIC_C, P71, 1.0, 0.0)
    with pytest.raises(DomainError):
        remainder_norm_scaled(GENERIC_C, P71, math.nan, 1.0)


def test_curvature_of_another_dimension_is_refused():
    # sphere:1 built at n = 8 and paired with (7, 1) used to answer: with
    # h0 = 1, c2 = -15317906.04 (the n = 7 data give -11089777.40),
    # J(0.05) = 693801.96 (698507.27), remainder norm 219953.49 (160010.87)
    c8 = curvature_preset("sphere:1", 8)
    model = RadialModel(c8, PotentialJet(1.0, 0.0))
    calls = [lambda: predicted_coeffs(model, P71),
             lambda: j_at_bubble(model, P71, 0.05),
             lambda: fit_expansion(model, P71, np.geomspace(0.005, 0.05, 12)),
             lambda: remainder_norm_scaled(c8, P71, 1.0)]
    for call in calls:
        with pytest.raises(DomainError, match=re.escape(
                "dimension mismatch: data n=8, params n=7")):
            call()


@pytest.mark.parametrize("ric_norm2,t_free", [(300.0, True), (252.0, False)],
                         ids=["tracefree", "radial"])
def test_remainder_sees_the_curvature_only_through_w(ric_norm2, t_free):
    # W = assemble_w(c, p, h0) holds Scal/(3n) and |Ric - (Scal/n) g|^2
    # only, so data that differ in |Rm|^2 and Delta Scal alone give the
    # same norm, bit for bit, on either path
    c1 = CurvatureData(n=7, scal=42.0, ric_norm2=ric_norm2, rm_norm2=100.0,
                       lap_scal=0.0)
    c2 = CurvatureData(n=7, scal=42.0, ric_norm2=ric_norm2, rm_norm2=3.0,
                       lap_scal=1.5)
    assert (assemble_w(c1, P71, 7.5).t_free_norm2 > 0.0) is t_free
    assert remainder_norm_scaled(c1, P71, 7.5) == \
        remainder_norm_scaled(c2, P71, 7.5)


def test_remainder_overflow_is_a_numerical_error():
    # an overflowing density would reach the quadrature as inf, which it
    # drops as 0: flat and sphere:1 reported "degenerate" at h0 = 1e200
    flat = curvature_preset("flat", 7)
    cases = [(flat, 1e200, 1.0), (curvature_preset("sphere:1", 7), 1e200, 1.0),
             (GENERIC_C, 1e200, 1.0), (flat, 1e190, 0.01), (flat, 2.0, 1e-300),
             # the weight overflowed against a finite density, or every
             # product underflowed: sphere:1 read 20579.7 for 34929.3, and
             # flat read 0.0
             (curvature_preset("sphere:1", 7), 7.5, 1e50), (flat, 7.5, 1e100),
             (flat, 7.5, 1e-100),
             # the integral is finite, its product with |S^6| is not
             (flat, 1e194, 1.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c, h0, delta in cases:
            with pytest.raises(NumericalError, match=re.escape(
                    f"h0 = {h0!r} at delta = {delta!r} leaves the float")):
                remainder_norm_scaled(c, P71, h0, delta)


def test_remainder_passes_other_engine_refusals_unchanged(monkeypatch):
    # only a non-finite summand gets the density's overflow text
    monkeypatch.setattr(quadrature, "PANEL_BUDGET", 300)
    with pytest.raises(NumericalError) as exc:
        remainder_norm_scaled(curvature_preset("sphere:1", 7), P71, 1.0, 1e-3)
    assert str(exc.value).startswith(
        "quadrature budget of 300 evaluations exhausted; error estimate ")


@pytest.mark.parametrize("n", [21, 30])
def test_remainder_answers_where_only_the_radial_weight_overflows(n):
    # the semi-infinite map puts nodes near r = 9e15, where r**(n-1)
    # overflows for n >= 21 while the density there has underflowed
    p = HSParams(n, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        flat = remainder_alpha(curvature_preset("flat", n), p, 1.0)
        sphere = remainder_alpha(curvature_preset("sphere:1", n), p, 1.0)
    assert flat["alpha_inv"] == pytest.approx(
        flat_alpha_inv_closed_form(p, 1.0), rel=1e-12)
    assert not sphere["degenerate"] and math.isfinite(sphere["alpha_inv"])


@pytest.mark.parametrize("curvature,p,h0", [
    pytest.param(GENERIC_C, P71, 2.0, id="generic-7-1"),
    pytest.param(curvature_preset({"scal": 42.0, "ric_norm2": 257.0,
                                   "rm_norm2": 84.0, "lap_scal": 0.0}, 7),
                 HSParams(7, 1.5), 1.0, id="non-einstein-slow-tail")])
def test_remainder_against_nested_quad_oracle(curvature, p, h0):
    # the kinked trace-free density against scipy quad nested in log r and
    # the angle, split at the kink (measured agreement 2.3e-14 and 3.2e-15)
    got = remainder_norm_scaled(curvature, p, h0)
    assert got == pytest.approx(remainder_oracle(curvature, p, h0),
                                rel=1e-12, abs=0.0)


def test_remainder_angular_reduction_against_monte_carlo():
    rng = np.random.default_rng(0)
    n, q = 7, 14.0 / 9.0
    mu = axial_mu(GENERIC_C)
    r = 1.7
    A = 2.0 * u1(P71, r) + GENERIC_C.scal / 21.0 * r * du1(P71, r)
    B = mu * r * du1(P71, r) / 3.0
    M = 1_000_000
    sig = rng.normal(size=(M, n))
    sig /= np.linalg.norm(sig, axis=1, keepdims=True)
    u = sig[:, 0]
    samples = np.abs(A + B * (u * u - 1.0 / n)) ** q
    mc = samples.mean() * sphere_area(n)
    se = samples.std(ddof=1) / math.sqrt(M) * sphere_area(n)
    nodes, weights = roots_jacobi(2000, (n - 3) / 2, (n - 3) / 2)
    jac = sphere_area(n - 1) * float(
        np.abs(A + B * (nodes**2 - 1.0 / n)) ** q @ weights)
    assert abs(jac - mc) <= 3.0 * se


def test_remainder_tracefree_branch_continuity():
    # a vanishingly small trace-free part must reproduce the radial branch
    c_tiny = CurvatureData(n=7, scal=3.0, ric_norm2=9.0 / 7.0 + 1e-24,
                           rm_norm2=2.0, lap_scal=0.0)
    c_rad = CurvatureData(n=7, scal=3.0, ric_norm2=9.0 / 7.0, rm_norm2=2.0,
                          lap_scal=0.0)
    a = remainder_alpha(c_tiny, P71, 2.0)["alpha_inv"]
    b = remainder_alpha(c_rad, P71, 2.0)["alpha_inv"]
    assert a == pytest.approx(b, rel=1e-9)


@pytest.mark.parametrize("c,h0", [
    pytest.param(curvature_preset({"scal": 42.0, "ric_norm2": 300.0,
                                   "rm_norm2": 100.0, "lap_scal": 0.0}, 7),
                 7.5, id="tracefree"),
    pytest.param(curvature_preset("sphere:1", 7), 1.0, id="sphere-radial"),
    pytest.param(GENERIC_C, 2.0, id="generic")])
def test_remainder_delta_squared_scaling_at_tiny_delta(c, h0):
    # the norm scales as delta**2 from delta = 1e30 down to 1e-50 (worst
    # 2.7e-14); the span in x = log r comes from the declared breaks
    # delta 5**-+1 alone: clipped where the weight r**7 leaves the float
    # range (x = -101.4), it lost the core below delta ~ 7.6e-42 and read
    # 16.4% (tracefree) and 21.0% (sphere) low at 1e-45, 99.6% and 99.7%
    # at 1e-50
    base = remainder_norm_scaled(c, P71, h0)
    for d in (1e30, 1e-45, 1e-50):
        scaled = remainder_norm_scaled(c, P71, h0, d)
        assert scaled / d**2 == pytest.approx(base, rel=1e-12, abs=0.0), d


@pytest.mark.parametrize("n,s", [(7, 1.0), (10, 0.5), (16, 1.5)])
def test_pure_tracefree_remainder_against_mpmath_oracle(n, s):
    # with Scal = 0 and h0 = 0 the density (mu/3)(u^2 - 1/n) r U1' factors:
    # its norm**q is omega_{n-2} C R, C the angular and R the radial integral
    p = HSParams(n, s)
    c = CurvatureData(n=n, scal=0.0, ric_norm2=2.0, rm_norm2=2.0,
                      lap_scal=0.0)
    with mpmath.workdps(30):
        mu = mpmath.mpf(axial_mu(c))
        q = mpmath.mpf(2 * n) / (n + 2)
        kappa, two_s = mpmath.mpf(p.kappa), 2 - mpmath.mpf(s)
        u0 = 1 / mpmath.sqrt(n)

        def angular(u):
            return (abs(u * u - mpmath.mpf(1) / n) ** q
                    * (1 - u * u) ** (mpmath.mpf(n - 3) / 2))

        def radial(r):
            t = r ** two_s
            rdu = kappa * (n - 2) * t * (1 + t) ** (-(n - 2) / two_s - 1)
            return (mu * rdu / 3) ** q * r ** (n - 1)

        C = mpmath.quad(angular, [-1, -u0, 0, u0, 1])
        R = mpmath.quad(radial, [0, 1, mpmath.inf])
        oracle = float((sphere_area(n - 1) * C * R) ** (1 / q))
    assert remainder_norm_scaled(c, p, 0.0) == pytest.approx(oracle,
                                                             rel=1e-12)


@pytest.mark.parametrize("n,s", [(60, 1.0), (100, 0.1)])
def test_angular_points_suffice(monkeypatch, n, s):
    # doubling the graded rule moves no norm, up to the largest n that
    # answers
    p = HSParams(n, s)
    c = curvature_preset(
        {"scal": 42.0, "ric_norm2": 300.0, "rm_norm2": 100.0,
         "lap_scal": 1.5}, n)
    energy._graded_rule.cache_clear()
    base = remainder_norm_scaled(c, p, 7.5)
    try:
        with monkeypatch.context() as m:
            m.setattr(energy, "ANGULAR_POINTS", 2 * energy.ANGULAR_POINTS)
            energy._graded_rule.cache_clear()
            fine = remainder_norm_scaled(c, p, 7.5)
    finally:
        energy._graded_rule.cache_clear()
    assert fine == pytest.approx(base, rel=1e-13, abs=0.0)


def test_remainder_values_are_pinned_bit_for_bit():
    # the angular sum skips a side of the kink only where that side has
    # length 0, and forms the integrand in the order it always had: every
    # norm, or refusal, of this sweep keeps its bits (all 240 cases take
    # about 0.4 s; 24 are typed refusals).  Re-pinned when the engine took
    # over the overflow screen: 12 refusals at (16, 1.9) gained the
    # engine's ": a quadrature summand ... is not finite at r = ..." after
    # their unchanged text, and nothing else moved
    got = []
    for n in (7, 9, 16, 30):
        non_einstein = {"scal": float(n * (n - 1)),
                        "ric_norm2": float(n * (n - 1) ** 2) + 5.0,
                        "rm_norm2": float(2 * n * (n - 1)), "lap_scal": 0.0}
        curvatures = [curvature_preset(c, n) for c in (
            non_einstein, {"scal": 42.0, "ric_norm2": 300.0,
                           "rm_norm2": 100.0, "lap_scal": 1.5}, "sphere:1")]
        for s in (0.0, 0.5, 1.0, 1.5, 1.9):
            p = HSParams(n, s)
            for c in curvatures:
                for h0 in (1.0, 7.5):
                    for delta in (1.0, 1e-3):
                        try:
                            got.append(remainder_norm_scaled(
                                c, p, h0, delta).hex())
                        except (DomainError, NumericalError) as exc:
                            got.append((type(exc).__name__, str(exc)))
    assert len(got) == 240
    assert hashlib.sha256(repr(got).encode()).hexdigest() == (
        "f223ea7a7407313ed70ab580b30f0a70d630aa8abbc43fc6703ae67057447d84")


def test_tracefree_integrand_equals_its_angular_sum_node_by_node(monkeypatch):
    # the trace-free remainder's radial integrand on the engine's first
    # round at (7, 1): clipped kinks share one row of angles per side, and
    # each value must equal the sum of the kink's two sides formed at that
    # node alone, in the same order of operations, bit for bit
    n, h0 = 7, 1.0  # with the pin sweep's non-Einstein curvature at n = 7
    c = curvature_preset({"scal": 42.0, "ric_norm2": 257.0, "rm_norm2": 84.0,
                          "lap_scal": 0.0}, n)
    seen = []
    monkeypatch.setattr(energy, "integrate_radial",
                        lambda ig, tol: seen.append(ig) or {"value": 1.0})
    remainder_norm_scaled(c, P71, h0)
    ig, = seen
    calls = []
    quadrature.integrate_radial(quadrature.RadialIntegrand(
        f=lambda r: calls.append(r) or ig.f(r), a=ig.a, b=ig.b,
        breaks=ig.breaks), tol=energy.TOL)
    r = calls[0]

    w = assemble_w(c, P71, h0)  # delta = 1, so the prefactor is 1.0
    q = 2.0 * n / (n + 2.0)
    rdu = rdru1(P71, r)
    A = w.a * u1(P71, r) + w.mode0_extra * rdu
    B = math.sqrt(w.t_free_norm2 * n / (n - 1.0)) * rdu
    ts = np.arccos(np.sqrt(np.clip(1.0 / n - np.nan_to_num(3.0 * A / B),
                                   0.0, 1.0)))
    assert (ts == 0.0).any() and (ts == 0.5 * np.pi).any()
    assert ((0.0 < ts) & (ts < 0.5 * np.pi)).any()

    x, wx = energy._graded_rule()
    want = []
    for a, b, kink in zip(A, B, ts):
        total = 0.0
        for L in (-kink, 0.5 * np.pi - kink):
            if L:
                t = L * x + kink
                vals = np.abs((np.cos(t) ** 2 - 1.0 / n) * b / 3.0 + a) ** q \
                    * np.sin(t) ** (n - 2.0)
                total += abs(L) * np.vecdot(vals, wx)
        want.append(2.0 * sphere_area(n - 1) * total)
    assert ig.f(r).tolist() == want
