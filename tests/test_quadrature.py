import math
from heapq import heappop, heappush

import numpy as np
import pytest

from hsbubble import bubble, energy, linearized, moments, quadrature
from hsbubble.bubble import default_grid
from hsbubble.errors import DomainError, NumericalError
from hsbubble.geometry import PotentialJet, curvature_preset
from hsbubble.params import HSParams, derive_constants, sphere_area
from hsbubble.quadrature import RadialIntegrand, integrate_radial


def test_inverse_sqrt_on_unit_interval():
    # int_0^1 r^{-1/2} dr = 2, endpoint singularity handled by grading
    res = integrate_radial(
        RadialIntegrand(f=lambda r: np.ones_like(r), sing=-0.5, R=1.0),
        tol=1e-12,
    )
    np.testing.assert_allclose(res["value"], 2.0, rtol=1e-12)
    assert res["error_estimate"] <= 1e-11 * 2.0


def test_even_tail_beta_form():
    # int_0^inf r^6 (1+r^2)^{-7} dr = Gamma(3.5)^2 / (2 Gamma(7))
    exact = math.gamma(3.5) ** 2 / (2.0 * math.gamma(7))
    res = integrate_radial(
        RadialIntegrand(f=lambda r: (1.0 + r**2) ** -7.0, a=6.0), tol=1e-12
    )
    np.testing.assert_allclose(res["value"], exact, rtol=1e-12)
    np.testing.assert_allclose(res["value"], 7.6699e-3, rtol=1e-4)


def test_critical_tail_beta_form():
    # int_0^inf r^5 (1+r)^{-12} dr = B(6, 6) = 1/2772
    res = integrate_radial(
        RadialIntegrand(f=lambda r: (1.0 + r) ** -12.0, a=5.0), tol=1e-12
    )
    np.testing.assert_allclose(res["value"], 1.0 / 2772.0, rtol=1e-12)
    np.testing.assert_allclose(res["value"], 3.6075e-4, rtol=1e-4)


def test_divergent_at_origin_rejected():
    with pytest.raises(DomainError):
        integrate_radial(RadialIntegrand(f=lambda r: np.ones_like(r), sing=-1.0, R=1.0))


def test_divergent_tail_rejected():
    # r^5 * r^{-6} = r^{-1}: log-divergent at infinity
    with pytest.raises(DomainError):
        integrate_radial(
            RadialIntegrand(f=lambda r: (1.0 + r) ** -6.0, a=5.0, b=6.0))


def test_undeclared_divergent_tail_rejected():
    # the same r^{-1} tail without b: the span runs to the float range of
    # the weight, and the outermost panel there still holds ~2 of ~116
    with pytest.raises(DomainError, match="declare the integrand's tail"):
        integrate_radial(RadialIntegrand(f=lambda r: (1.0 + r) ** -6.0, a=5.0))
    # a convergent r^{-1.5} tail is not refused: 2 B(6, 1/2) = 1024/1386
    res = integrate_radial(
        RadialIntegrand(f=lambda r: (1.0 + r) ** -6.5, a=5.0), tol=1e-12)
    np.testing.assert_allclose(res["value"], 1024.0 / 1386.0, rtol=1e-12)


@pytest.mark.parametrize("a,sing,b", [(5.0, 0.0, 6.0), (6.0, -1.0, 5.5),
                                      (0.0, 0.0, 0.0), (2.0, 0.5, 1.0)])
def test_divergent_declared_tail_never_calls_f(a, sing, b):
    # a + sing - b >= -1 is decided from the declaration alone
    def f(r):
        raise AssertionError("integrand called")

    with pytest.raises(DomainError, match="diverges"):
        integrate_radial(RadialIntegrand(f=f, a=a, sing=sing, b=b,
                                         breaks=(0.5, 2.0)))


def test_declared_tail_and_breaks_place_the_log_span():
    # r^6 (1 + r^2)^{-7}: tail r^{-8}, power laws left at r ~ 1/3 and 3
    exact = math.gamma(3.5) ** 2 / (2.0 * math.gamma(7))
    res = integrate_radial(RadialIntegrand(
        f=lambda r: (1.0 + r**2) ** -7.0, a=6.0, b=14.0, breaks=(1 / 3, 3.0)),
        tol=1e-12)
    np.testing.assert_allclose(res["value"], exact, rtol=1e-12)
    # the span is |x| <= 6.3 (eps reached 36 / 7 e-folds past each break),
    # not the weight's float range |x| <= 709.8 / 7
    assert res["evaluations"] < 1000
    undeclared = integrate_radial(
        RadialIntegrand(f=lambda r: (1.0 + r**2) ** -7.0, a=6.0), tol=1e-12)
    assert undeclared["evaluations"] > res["evaluations"]


def test_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(quadrature, "PANEL_BUDGET", 1200)
    with pytest.raises(NumericalError):
        integrate_radial(
            RadialIntegrand(f=lambda r: np.sin(50.0 * r) ** 2 + r, a=0.0, R=1.0),
            tol=1e-13,
        )


def test_non_finite_panel_sum_ends_the_integration_at_once():
    # each value fits a float but a panel's weighted sum does not; such a
    # sum in the total never converges (inf - inf is nan), so the engine
    # stops at the first one instead of spending its budget
    points = []

    def f(r):
        points.append(r.size)
        return np.full_like(r, 1e308)

    with pytest.raises(NumericalError, match="leaves the float range"):
        integrate_radial(RadialIntegrand(f=f, a=0.0, R=1.0))
    assert sum(points) < quadrature.PANEL_BUDGET // 1000


def test_tolerance_monotonicity():
    # halving tol never worsens the deviation from the closed form
    exact = math.gamma(3.5) ** 2 / (2.0 * math.gamma(7))
    integrand = RadialIntegrand(f=lambda r: (1.0 + r**2) ** -7.0, a=6.0)
    devs = []
    for tol in (1e-6, 1e-8, 1e-10, 1e-12):
        devs.append(abs(integrate_radial(integrand, tol=tol)["value"] - exact))
    for coarse, fine in zip(devs, devs[1:]):
        assert fine <= coarse + 1e-15


def test_scaling_covariance():
    # int f(r/delta) r^{n-1} dr = delta^n * (delta=1 value)
    n = 7

    def make(delta):
        return RadialIntegrand(
            f=lambda r: (1.0 + (r / delta)) ** -12.0, a=float(n - 1)
        )

    base = integrate_radial(make(1.0), tol=1e-12)["value"]
    for delta in (0.1, 0.5, 2.0):
        scaled = integrate_radial(make(delta), tol=1e-12)["value"]
        np.testing.assert_allclose(scaled, delta**n * base, rtol=1e-10)


def test_error_estimate_is_honest():
    exact = 2.0
    res = integrate_radial(
        RadialIntegrand(f=lambda r: np.ones_like(r), sing=-0.5, R=1.0), tol=1e-8
    )
    assert abs(res["value"] - exact) <= max(res["error_estimate"], 1e-13)


# ------------------------------------------- batched panels vs one at a time


def _reference_integrate(integrand, tol=1e-10, budget=quadrature.PANEL_BUDGET):
    """The engine with one integrand call per panel (no divergence screens).

    Same initial edges (graded in r, or the x = log r span), heap order,
    accumulation order and stopping rules as integrate_radial; only the
    dispatch of integrand calls differs.  An integrand with an arg gets it
    at each of the panel's nodes.
    """
    power = integrand.a + integrand.sing

    def g(r):
        if integrand.arg is None:
            return integrand.f(r) * r ** power
        return integrand.f(r, np.full_like(r, integrand.arg)) * r ** power

    if integrand.R is None:
        def target(x):
            r = np.exp(x)
            return g(r) * r

        edges = quadrature._log_edges(power, integrand.b, integrand.breaks)
    else:
        target = g
        edges = float(integrand.R) * np.array(
            [0.0] + [2.0 ** -j
                     for j in range(quadrature._GRADE_LEVELS, -1, -1)])

    def panel(lo, hi):
        c = 0.5 * (lo + hi)
        h = 0.5 * (hi - lo)
        with np.errstate(all="ignore"):
            y = np.asarray(target(c + h * quadrature._NODES), dtype=float)
        y = np.where(np.isfinite(y), y, 0.0)
        k15 = h * float(quadrature._W15 @ y)
        g7 = h * float(quadrature._W7 @ y)
        return k15, abs(k15 - g7), h * float(quadrature._W15 @ np.abs(y))

    heap = []
    serial = 0
    total, err_total, abs_total, evals = 0.0, 0.0, 0.0, 0
    eps = np.finfo(float).eps

    def push(lo, hi):
        nonlocal serial, total, err_total, abs_total, evals
        val, err, kabs = panel(lo, hi)
        total += val
        err_total += err
        abs_total += kabs
        evals += 15
        dead = (err <= 30.0 * eps * kabs) or \
            (hi - lo <= 1e-15 * max(abs(hi), 1e-250))
        if not dead:
            heappush(heap, (-err, serial, lo, hi, val, err))
            serial += 1

    for lo, hi in zip(edges[:-1], edges[1:]):
        push(lo, hi)
    while heap and not (err_total <= tol * max(abs(total), 1e-300)
                        or err_total <= 50.0 * eps * abs_total):
        if evals + 30 > budget:
            raise NumericalError(
                f"quadrature budget of {budget} evaluations exhausted; "
                f"error estimate {err_total:.3e} vs target "
                f"{tol * abs(total):.3e}")
        _, _, lo, hi, val, err = heappop(heap)
        total -= val
        err_total -= err
        mid = 0.5 * (lo + hi)
        push(lo, mid)
        push(mid, hi)
    return {"value": total, "error_estimate": err_total, "evaluations": evals}


def _recorded_calls(monkeypatch, module, run):
    """(integrand, tol, result) of every batch member that `run` integrates,
    through integrate_radial or integrate_radial_batch."""
    calls = []
    batch = quadrature.integrate_radial_batch

    def spy(integrands, tol=quadrature.DEFAULT_TOL):
        results = batch(integrands, tol=tol)
        calls.extend((ig, tol, res) for ig, res in zip(integrands, results))
        return results

    with monkeypatch.context() as m:
        for mod in {quadrature, module}:
            if hasattr(mod, "integrate_radial_batch"):
                m.setattr(mod, "integrate_radial_batch", spy)
        run()
    assert calls
    return calls


def _model(p):
    sphere = curvature_preset("sphere:1", p.n)
    h0 = derive_constants(p).c_ns * sphere.scal
    return energy.RadialModel(sphere, PotentialJet(h0, 0.0), r0=1.0)


_NON_EINSTEIN = {"scal": 42.0, "ric_norm2": 257.0, "rm_norm2": 84.0,
                 "lap_scal": 0.0}


@pytest.mark.parametrize("module,run", [
    pytest.param(moments, lambda: [
        moments.moment_quadrature(p, kind)
        for p in (HSParams(7, 1.0), HSParams(9, 0.5), HSParams(7, 1.5))
        for kind in moments.MOMENT_KINDS], id="moment_quadrature"),
    pytest.param(energy, lambda: energy.j_at_bubble(
        _model(HSParams(7, 1.0)), HSParams(7, 1.0), 0.01),
        id="j_at_bubble-finite-R"),
    pytest.param(linearized, lambda: linearized.assemble_mode(
        HSParams(7, 1.0), 0, default_grid(HSParams(7, 1.0), 2000, 200.0)),
        id="first-cell-potential-mass"),
    pytest.param(energy, lambda: energy.remainder_alpha(
        curvature_preset("sphere:1", 7), HSParams(7, 1.0), 1.0),
        id="remainder-radial-infinite"),
    pytest.param(energy, lambda: energy.remainder_alpha(
        curvature_preset(_NON_EINSTEIN, 7), HSParams(7, 1.0), 1.0),
        id="remainder-gauss-jacobi-infinite"),
    pytest.param(energy, lambda: energy.fit_expansion(
        _model(HSParams(7, 1.0)), HSParams(7, 1.0),
        np.geomspace(0.005, 0.05, 12)), id="fit_expansion-sweep"),
])
def test_batched_panels_bit_identical_to_panel_loop(monkeypatch, module, run):
    # every float sum keeps its order, so the results match exactly
    for integrand, tol, got in _recorded_calls(monkeypatch, module, run):
        want = _reference_integrate(integrand, tol=tol)
        assert got["value"] == want["value"]
        assert got["error_estimate"] == want["error_estimate"]
        assert got["evaluations"] == want["evaluations"]


def test_batched_budget_exhaustion_matches_panel_loop(monkeypatch):
    integrand = RadialIntegrand(f=lambda r: np.sin(50.0 * r) ** 2 + r,
                                a=0.0, R=1.0)
    with pytest.raises(NumericalError) as want:
        _reference_integrate(integrand, tol=1e-13, budget=1200)
    monkeypatch.setattr(quadrature, "PANEL_BUDGET", 1200)
    with pytest.raises(NumericalError) as got:
        integrate_radial(integrand, tol=1e-13)
    assert str(got.value) == str(want.value)


def test_vecdot_matches_the_per_panel_dot():
    # the premise of the panel sums: np.vecdot runs the same dot loop once
    # per row, so it equals one dot product per panel bit for bit
    rng = np.random.default_rng(7)
    y = rng.standard_normal((2000, 15)) * np.exp(
        rng.uniform(-300.0, 300.0, (2000, 1)))
    for rows in (y, np.abs(y)):
        for w in (quadrature._W15, quadrature._W7):
            assert np.vecdot(rows, w).tolist() == [float(w @ r) for r in rows]


def test_batch_members_sharing_f_are_summed_in_one_call():
    # members with one f and weight power evaluate together, each given its
    # own arg at its nodes; the batch makes as many calls as its longest
    # member alone, and each result is that member's solo result
    sizes = []

    def f(r, k):
        sizes.append(r.size)
        return np.exp(-k * r)

    members = [RadialIntegrand(f=f, a=2.0, R=R, arg=k)
               for R, k in ((1.0, 1.0), (5.0, 3.0), (40.0, 0.5))]
    solo = []
    for ig in members:
        sizes.clear()
        solo.append((integrate_radial(ig, tol=1e-12), len(sizes)))
    sizes.clear()
    got = quadrature.integrate_radial_batch(members, tol=1e-12)
    assert got == [res for res, _ in solo]
    assert len(sizes) == max(calls for _, calls in solo)
    for ig, (res, _) in zip(members, solo):
        assert res == _reference_integrate(ig, tol=1e-12)


def test_batch_raises_the_first_failing_member_in_input_order(monkeypatch):
    # member 1 runs out of budget after many rounds; member 2 overflows in
    # the first round and member 3 fails its divergence screen.  A loop over
    # integrate_radial raises member 1's error, and so does the batch
    monkeypatch.setattr(quadrature, "PANEL_BUDGET", 1200)
    good = RadialIntegrand(f=lambda r: np.ones_like(r), a=2.0, R=1.0)
    slow = RadialIntegrand(f=lambda r: np.sin(50.0 * r) ** 2 + r, R=1.0)
    huge = RadialIntegrand(f=lambda r: np.full_like(r, 1e308), R=1.0)
    divergent = RadialIntegrand(f=lambda r: r, sing=-2.0, R=1.0)
    with pytest.raises(NumericalError) as want:
        integrate_radial(slow, tol=1e-13)
    assert "budget" in str(want.value)
    with pytest.raises(NumericalError) as got:
        quadrature.integrate_radial_batch([good, slow, huge, divergent],
                                          tol=1e-13)
    assert str(got.value) == str(want.value)
    with pytest.raises(NumericalError) as want:
        integrate_radial(huge, tol=1e-13)
    with pytest.raises(NumericalError) as got:
        quadrature.integrate_radial_batch([good, huge, slow], tol=1e-13)
    assert str(got.value) == str(want.value)


# ------------------------------------------- log-coordinate infinite domains


def _evaluations(monkeypatch, module, run):
    return sum(res["evaluations"]
               for _, _, res in _recorded_calls(monkeypatch, module, run))


def test_infinite_domain_evaluation_counts(monkeypatch):
    # spans set from the declared exponents leave little to bisect
    p = HSParams(7, 1.0)
    assert _evaluations(monkeypatch, moments,
                        lambda: moments.identity_report(p)) <= 3000
    assert _evaluations(monkeypatch, energy, lambda: energy.remainder_alpha(
        curvature_preset("sphere:1", 7), p, 1.0)) <= 1000


def _remainder_oracle(c, p, h0):
    """remainder_norm_scaled(c, p, h0) by nested scipy quad: log r outside,
    the angle theta (u = cos theta, Jacobi weight sin**(n-2)) inside, split
    at the kink of |A + B (u^2 - 1/n)/3|**q."""
    from scipy.integrate import quad

    n = p.n
    q = 2.0 * n / (n + 2.0)
    amp, mu = c.scal / (3.0 * n), energy._tfree_axial_mu(c)

    def angular(r):
        A = h0 * bubble.u1(p, r) + amp * r * bubble.du1(p, r)
        B = mu * r * bubble.du1(p, r)
        c2 = 1.0 / n - 3.0 * A / B
        kink = [math.acos(math.sqrt(c2))] if 0.0 < c2 < 1.0 else None
        return 2.0 * quad(
            lambda th: abs(A + B * (math.cos(th) ** 2 - 1.0 / n) / 3.0) ** q
            * math.sin(th) ** (n - 2), 0.0, math.pi / 2, points=kink,
            epsabs=0.0, epsrel=1e-13, limit=200)[0]

    beta = (n - 2.0) / (2.0 - p.s)
    xb = math.log(beta) / (2.0 - p.s)
    cuts = [-xb - 8.0, -xb, xb, xb + 60.0 / (q * (n - 2) - n)]
    total = sum(quad(lambda x: angular(math.exp(x)) * math.exp(n * x), x0, x1,
                     epsabs=0.0, epsrel=1e-12, limit=200)[0]
                for x0, x1 in zip(cuts, cuts[1:]))
    return (sphere_area(n - 1) * total) ** (1.0 / q)


def test_slow_tail_remainder_answers_within_a_small_budget(monkeypatch):
    # at (7, 1.5) the density decays like r**-7.78 against the weight r**6,
    # so the integrand in x = log r falls only like e**(-0.78 x) and its
    # tail spans 46 e-folds past the bubble scale
    monkeypatch.setattr(quadrature, "PANEL_BUDGET", 20_000)
    p = HSParams(7, 1.5)
    c = curvature_preset(_NON_EINSTEIN, 7)
    got = energy.remainder_norm_scaled(c, p, 1.0)
    assert got == pytest.approx(_remainder_oracle(c, p, 1.0), rel=1e-9)
    flat = energy.remainder_norm_scaled(curvature_preset("flat", 7), p, 2.0)
    assert flat == pytest.approx(energy.flat_alpha_inv_closed_form(p, 2.0),
                                 rel=1e-12)
