import functools
import hashlib
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from hsbubble.errors import DomainError, NumericalError
from hsbubble import moments, quadrature
from hsbubble.moments import (
    MOMENT_KINDS,
    _lgamma,
    _reduction,
    bubble_moment,
    identity_report,
    ipq,
    moment_quadrature,
)
from hsbubble.params import (DEFAULT_TOL, HSParams, derive_constants,
                             sphere_area)
from hsbubble.quadrature import RadialIntegrand, integrate_radial

from test_domain_contract import DIMS, EXPONENTS

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


def _lgamma_sweep():
    # every branch of Cephes lgam: the shifts down to and up to [2, 3), the
    # rational there, the A series, the short series from 1000 on, Stirling
    # alone beyond 1e8; plus integers, half-integers and the branch edges
    rng = np.random.default_rng(11)
    pieces = [rng.uniform(lo, hi, 6000) for lo, hi in
              [(0.0, 2.0), (2.0, 3.0), (3.0, 13.0), (13.0, 1000.0)]]
    pieces += [np.exp(rng.uniform(math.log(lo), math.log(hi), 6000))
               for lo, hi in [(1e-300, 1.0), (1e3, 1e8), (1e8, 1e300)]]
    pieces += [np.arange(1.0, 200.0), np.arange(0.5, 200.0),
               np.array([2.0, 3.0, 13.0, 1000.0, 1e8, 5e-324, 2.556348e305,
                         1e307, np.inf])]
    edges = np.array([2.0, 3.0, 13.0, 1000.0, 1e8])
    pieces += [np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)]
    return np.concatenate(pieces)


def test_lgamma_is_bit_identical_to_scipy_gammaln():
    # a mismatch means this scipy was built with another operation order
    # (for example FMA contraction) than the Cephes code _lgamma follows
    from scipy.special import gammaln

    xs = _lgamma_sweep()
    for x, want in zip(xs.tolist(), gammaln(xs).tolist()):
        got = _lgamma(x)
        assert got == want, f"_lgamma({x!r}) = {got!r}, gammaln gives {want!r}"


def test_ipq_is_bit_identical_to_the_gammaln_form(monkeypatch):
    # every (P, q) the moment registry yields over n = 3..60 and s in [0, 2);
    # the terms do not depend on kappa, so pin it where it would overflow
    from scipy.special import gammaln

    monkeypatch.setattr(HSParams, "kappa", 1.0)
    pairs = set()
    for n in range(3, 61):
        for s in np.linspace(0.0, 1.98, 34).tolist() + [1.999]:
            for kind in MOMENT_KINDS:
                terms = _reduction(HSParams(n, s), kind)[1]
                pairs.update((P, q) for _, P, q in terms
                             if P - q > 1.0 and q > -1.0)
    assert len(pairs) > 10000
    for P, q in sorted(pairs):
        want = float(np.exp(gammaln(q + 1.0) + gammaln(P - q - 1.0)
                            - gammaln(P)))
        assert ipq(P, q) == want, f"ipq({P!r}, {q!r})"


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


@pytest.mark.parametrize("n,s", [(7, 1.0), (7, 1.5), (7, 1.9), (9, 0.5),
                                 (10, 1.0), (16, 1.5), (30, 1.0), (8, 0.01),
                                 (12, 0.0)])
def test_trapezoidal_moments_as_close_as_the_adaptive_engine(monkeypatch, n,
                                                             s):
    # moment_quadrature's trapezoidal rule in x = log r against the adaptive
    # G7/K15 engine on the same integrand: each moment is as close to its
    # Beta closed form, within a factor 1.5 or 1e-14 relative; what is left
    # is roundoff of the integrand or of the closed form
    adaptive = []
    rule = quadrature.integrate_log_trapezoid

    def spy(integrands, tol):
        adaptive.extend(integrate_radial(integrand, tol=tol)["value"]
                        for integrand in integrands)
        return rule(integrands, tol=tol)

    monkeypatch.setattr(moments, "integrate_log_trapezoid", spy)
    p = HSParams(n, s)
    for kind in MOMENT_KINDS:
        closed = bubble_moment(p, kind)
        got = moment_quadrature(p, kind)
        old = sphere_area(n) * adaptive.pop()
        bound = max(1.5 * abs(old - closed), 1e-14 * abs(closed))
        assert abs(got - closed) <= bound, kind


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


def test_identity_report_domain():
    with pytest.raises(DomainError):
        identity_report(HSParams(6, 1.0))
    # s = 0 (the Yamabe limit) answers
    rep = identity_report(HSParams(7, 0.0))
    assert all(v["rel_residual"] <= 1e-8 for v in rep.ratios.values())


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


@pytest.mark.parametrize("kind,power", [
    ("mass2", "2"), ("r2mass", "2"), ("gradsq", "2"), ("r2grad", "2"),
    ("r4grad", "2"), ("crit", "2.0125"), ("r2crit", "2.0125"),
    ("r4crit", "2.0125"), ("z0grad", "2")])
def test_moment_refusal_names_an_overflowing_kappa_power(monkeypatch, kind,
                                                         power):
    # kappa = 7.51e192 fits a float at (18, 1.9), but kappa**2 and
    # kappa**2*(s) do not: the closed form refuses every kind, naming the
    # power its prefactor carries.  The quadrature refuses where its
    # integrand leaves the float range, naming that power after the rule's
    # own symptom, and answers r2mass, r4grad and r4crit, which fit a
    # float, as the closed form summed in log space gives them
    p = HSParams(18, 1.9)
    name = "2" if power == "2" else "(2*(s))"
    with pytest.raises(NumericalError, match=re.escape(
            f"the moment prefactor kappa**{name} overflows a float at "
            "n = 18, s = 1.9 (kappa = 7.5105e+192)")):
        bubble_moment(p, kind)
    if kind not in ("r2mass", "r4grad", "r4crit"):
        with pytest.raises(NumericalError, match=re.escape(
                f"; the cause is kappa**{power}, which overflows a float "
                "(kappa = 7.51e+192)")):
            moment_quadrature(p, kind)
        return
    got = moment_quadrature(p, kind)
    log_kappa_power = float(power) * math.log(p.kappa)
    monkeypatch.setattr(HSParams, "kappa", 1.0)
    pref, terms = _reduction(p, kind)
    want = math.exp(math.log(pref * sum(w * ipq(P, q) for w, P, q in terms))
                    + log_kappa_power)
    assert abs(got - want) <= 1e-11 * want


def test_bubble_moment_is_pinned_bit_for_bit():
    # the closed forms at non-dyadic s, refusals included: summing a kind's
    # r power in another order moves the last bit of gradsq, r2grad, r4grad
    # and z0grad there, and crit and mass2 feed the energy fit's c0 and c2
    got = []
    for n in (3, 4, 7, 9, 16, 30, 60):
        for s in np.linspace(0.0, 1.99, 200).tolist():
            p = HSParams(n, s)
            for kind in MOMENT_KINDS:
                try:
                    got.append(bubble_moment(p, kind).hex())
                except (DomainError, NumericalError) as exc:
                    got.append((type(exc).__name__, str(exc)))
    assert hashlib.sha256(repr(got).encode()).hexdigest() == (
        "8d50569ab7357682eb9cd8597430dfdf3471187cd56ba1392b86c01122612fac")


CONTRACT = [(n, s) for n in DIMS for s in EXPONENTS]
IDENTITY_KINDS = ("mass2", "r2mass", "r2grad", "r4grad", "r2crit", "r4crit")


@functools.cache
def _one_kind_runs():
    """{(n, s): [moment_quadrature of each kind, or its refusal]}."""
    runs = {}
    for n, s in CONTRACT:
        runs[n, s] = []
        for kind in MOMENT_KINDS:
            try:
                runs[n, s].append(moment_quadrature(HSParams(n, s), kind))
            except NumericalError as exc:
                runs[n, s].append((type(exc).__name__, str(exc)))
    return runs


def test_moment_quadrature_is_pinned_bit_for_bit():
    # every kind alone is a one-member run of the trapezoidal rule, with the
    # bits, and the refusals, of the rule before it took lists
    got = [v.hex() if isinstance(v, float) else v
           for row in _one_kind_runs().values() for v in row]
    assert hashlib.sha256(repr(got).encode()).hexdigest() == (
        "b2b1913070ad701fae45d1dd500be21665a64f99bc42f53900c6c4e233bebe23")


def test_identity_moments_in_one_run_agree_with_runs_alone():
    # one run sums every moment on the union of their spans, so each moment
    # sees other nodes than alone: they differ by the integrand's roundoff,
    # at most 5.0e-14 (r4grad at (7, 1.95), itself 1.5e-12 from its closed
    # form); a batch refuses where a run alone does, naming the kind whose
    # failure it meets first, which refuses alone too
    index = [MOMENT_KINDS.index(kind) for kind in IDENTITY_KINDS]
    answered = 0
    for (n, s), row in _one_kind_runs().items():
        alone = [row[i] for i in index]
        try:
            batch = moments._moment_runs(HSParams(n, s), IDENTITY_KINDS,
                                         DEFAULT_TOL)
        except NumericalError as exc:
            refused = {v[1].split(":")[0] for v in alone
                       if not isinstance(v, float)}
            assert str(exc).split(":")[0] in refused, (n, s)
            continue
        answered += 1
        for kind, got, want in zip(IDENTITY_KINDS, batch, alone):
            assert abs(got - want) <= 1e-13 * abs(want), (n, s, kind)
    assert answered == 137


@pytest.mark.parametrize("n,s", [(7, 1.0), (9, 0.5), (7, 1.5)])
def test_identity_report_calls_each_profile_function_once_per_level(
        monkeypatch, n, s):
    # the six moments weigh three profile functions; each is called once
    # per level of the longest run among the moments that use it, on the
    # nodes that level adds (level 0 and its first halving in one call)
    sizes = {}
    rule = quadrature.integrate_log_trapezoid

    def spy(integrands, tol):
        counted, spied = {}, []
        for integrand in integrands:
            f = integrand.f
            if id(f) not in counted:
                def counting(r, f=f, calls=sizes.setdefault(id(f), [])):
                    calls.append(r.size)
                    return f(r)
                counted[id(f)] = counting
            spied.append(RadialIntegrand(**{**vars(integrand),
                                            "f": counted[id(f)]}))
        res = rule(spied, tol=tol)
        for key, wrapped in counted.items():
            longest = max(run["evaluations"]
                          for integrand, run in zip(spied, res)
                          if integrand.f is wrapped)
            calls = sizes[key]
            steps = calls[0] // 2  # level 0 has steps + 1 nodes
            assert steps * 2 ** len(calls) + 1 == longest == sum(calls)
        return res

    monkeypatch.setattr(moments, "integrate_log_trapezoid", spy)
    identity_report(HSParams(n, s))
    assert len(sizes) == 3
