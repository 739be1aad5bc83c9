"""Energy quadrature vs closed-form expansion, fits, and remainder norms.

Layered so every closed-form claim is cross-examined by an independent
route: predicted coefficients come from the moment registry, J from adaptive
quadrature with no expansion, the remainder norm from Kronrod x Gauss-Jacobi
against a scipy dblquad oracle and a Monte-Carlo angular check.
"""

import json
import math
import re
import warnings

import numpy as np
import pytest
import scipy.special
from scipy import integrate
from scipy.special import roots_jacobi

from hsbubble import cli, energy
from hsbubble.bubble import du1, u1
from hsbubble.energy import (
    FitReport,
    RadialModel,
    _tfree_axial_mu,
    fit_expansion,
    flat_alpha_inv_closed_form,
    j_at_bubble,
    predicted_coeffs,
    remainder_alpha,
    remainder_norm_scaled,
)
from hsbubble.errors import DomainError, NumericalError
from hsbubble.geometry import CurvatureData, PotentialJet, curvature_preset
from hsbubble.moments import bubble_moment
from hsbubble.params import HSParams, derive_constants, sphere_area

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


def test_fit_without_nuisance_columns():
    rep = fit_expansion(flat_model(1.0), P71, np.geomspace(0.005, 0.05, 12),
                        nuisance=False)
    assert rep.nuisance == {}
    assert rep.condition < 100.0
    # truncation orders now alias into the primary columns: the delta^2
    # coefficient drifts by more than the nuisance-guarded fit allows
    assert abs(rep.c2_dev) > 0.005


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
        fit_expansion(m, P71, [0.005, 0.01, 0.02, 0.04, 0.05])  # < 6
    with pytest.raises(DomainError):
        fit_expansion(m, P71, np.geomspace(0.01, 0.05, 8))  # half a decade
    with pytest.raises(DomainError):
        fit_expansion(m, P71, np.geomspace(0.02, 0.2, 8))  # outside regime
    with pytest.raises(DomainError, match="6 samples cannot determine 7"):
        fit_expansion(m, P71, np.geomspace(0.005, 0.05, 6))
    with pytest.raises(NumericalError, match="condition"):
        # decade span but only two distinct deltas: rank-deficient design
        fit_expansion(m, P71, [0.005] * 4 + [0.05] * 4, nuisance=False)


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


def test_remainder_validation():
    with pytest.raises(DomainError):
        remainder_alpha(curvature_preset("flat", 6), HSParams(6, 1.0), 1.0)
    with pytest.raises(DomainError):
        remainder_norm_scaled(GENERIC_C, P71, 1.0, 0.0)
    with pytest.raises(DomainError):
        remainder_norm_scaled(GENERIC_C, P71, math.nan, 1.0)


def test_remainder_overflow_is_a_numerical_error():
    # an overflowing density would reach the quadrature as inf, which it
    # drops as 0: flat and sphere:1 reported "degenerate" at h0 = 1e200
    flat = curvature_preset("flat", 7)
    cases = [(flat, 1e200, 1.0), (curvature_preset("sphere:1", 7), 1e200, 1.0),
             (GENERIC_C, 1e200, 1.0), (flat, 1e190, 0.01), (flat, 2.0, 1e-300)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c, h0, delta in cases:
            with pytest.raises(NumericalError, match=re.escape(
                    f"h0 = {h0!r} at delta = {delta!r} leaves the float")):
                remainder_norm_scaled(c, P71, h0, delta)


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


def test_remainder_generic_against_dblquad_oracle():
    h0 = 2.0
    n, q = 7, 14.0 / 9.0
    mu = _tfree_axial_mu(GENERIC_C)
    scal_amp = GENERIC_C.scal / (3.0 * n)

    def integrand(u, r):
        A = h0 * u1(P71, r) + scal_amp * r * du1(P71, r)
        B = mu * r * du1(P71, r) / 3.0
        return (abs(A + B * (u * u - 1.0 / n)) ** q
                * (1.0 - u * u) ** ((n - 3) / 2) * r ** (n - 1))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val, _ = integrate.dblquad(integrand, 0, np.inf, -1, 1,
                                   epsabs=1e-6, epsrel=1e-10)
    oracle = (val * sphere_area(n - 1)) ** (1.0 / q)
    got = remainder_alpha(GENERIC_C, P71, h0)["alpha_inv"]
    assert got == pytest.approx(oracle, rel=1e-8)


def test_remainder_angular_reduction_against_monte_carlo():
    rng = np.random.default_rng(0)
    n, q = 7, 14.0 / 9.0
    mu = _tfree_axial_mu(GENERIC_C)
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


def test_remainder_delta_squared_scaling():
    base = remainder_alpha(GENERIC_C, P71, 2.0)["alpha_inv"]
    for d in (0.1, 0.01):
        scaled = remainder_norm_scaled(GENERIC_C, P71, 2.0, d)
        assert scaled / d**2 == pytest.approx(base, rel=1e-10)


def test_angular_rule_built_once_per_remainder_run(monkeypatch, tmp_path,
                                                   capsys):
    # remainder_alpha plus the three scaling-check deltas share one rule
    calls = []
    real = scipy.special.roots_jacobi

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(scipy.special, "roots_jacobi", counting)
    energy._angular_rule.cache_clear()
    curv = tmp_path / "curvature.json"
    curv.write_text(json.dumps({"scal": 3.0, "ric_norm2": 9.0 / 7.0 + 4.0,
                                "rm_norm2": 2.0, "lap_scal": 0.0}))
    try:
        rc = cli.main(["remainder", "--n", "7", "--s", "1",
                       "--curvature", str(curv), "--h0", "2", "--json"])
    finally:
        energy._angular_rule.cache_clear()
    assert rc == 0, capsys.readouterr().err
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["outputs"]["scaling_check"]["norm_over_delta_sq"]) == 3
    assert calls == [(2000, 2.0, 2.0)]


@pytest.mark.parametrize("n,points", [(7, 2000), (8, 2000), (9, 2001)])
def test_folded_angular_rule_matches_full_rule(n, points):
    # the folded rule on u >= 0 against the full symmetric Gauss-Jacobi sum
    q = 2.0 * n / (n + 2.0)
    p = HSParams(n, 1.0)
    ang_w, weights = energy._angular_rule(points, n)
    assert ang_w.size == weights.size == (points + 1) // 2
    nodes, full_w = roots_jacobi(points, (n - 3) / 2, (n - 3) / 2)
    full_ang = (nodes**2 - 1.0 / n) / 3.0
    for r in (0.05, 1.7, 40.0):
        for mu in (0.5, 4.0, 60.0):
            A = 2.0 * u1(p, r) + 0.1 * r * du1(p, r)
            B = mu * r * du1(p, r)
            full = float(np.abs(A + B * full_ang) ** q @ full_w)
            folded = float(np.abs(A + B * ang_w) ** q @ weights)
            assert folded == pytest.approx(full, rel=1e-13, abs=0.0)
