import hashlib
import math
from heapq import heappop, heappush

import numpy as np
import pytest

from hsbubble import energy, linearized, moments, quadrature
from hsbubble.bubble import default_grid
from hsbubble.errors import DomainError, NumericalError
from hsbubble.geometry import PotentialJet, curvature_preset
from hsbubble.params import HSParams, derive_constants
from hsbubble.quadrature import RadialIntegrand, integrate_radial

from closed_forms import flat_alpha_inv_closed_form


def test_inverse_sqrt_on_unit_interval():
    # int_0^1 r^{-1/2} dr = 2, endpoint singularity handled by grading
    res = integrate_radial(
        RadialIntegrand(f=lambda r: np.ones_like(r), a=-0.5, R=1.0),
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
        integrate_radial(RadialIntegrand(f=lambda r: np.ones_like(r), a=-1.0, R=1.0))
    with pytest.raises(DomainError, match="domain radius must be positive"):
        integrate_radial(RadialIntegrand(f=lambda r: np.ones_like(r), a=1.0, R=0.0))


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


def test_undeclared_tail_refusal_weighs_the_refined_outermost_panel():
    # a narrow bump in x = log r, 0.5 past the lower edge of the outermost
    # initial panel of an undeclared tail, [234.598, 236.594]: bisection
    # moves the bump off the half that ends at the tail end, and the
    # divergence screen weighs that half, not the whole initial panel
    # (which holds 1.420e-02 of 8.862e-02); the integral is 0.05 sqrt(pi)
    lo, hi = quadrature._log_edges(2.0, None, ())[-2:]
    assert (round(lo, 3), round(hi, 3)) == (234.598, 236.594)
    x0 = lo + 0.5

    def bump(r):
        return np.exp(-((np.log(r) - x0) / 0.05) ** 2) * r ** -3.0

    res = integrate_radial(RadialIntegrand(f=bump, a=2.0))
    np.testing.assert_allclose(res["value"], 0.05 * math.sqrt(math.pi),
                               rtol=1e-12)


@pytest.mark.parametrize("a,sing,b", [(5.0, 0.0, 6.0), (6.0, -1.0, 5.5),
                                      (0.0, 0.0, 0.0), (2.0, 0.5, 1.0)])
def test_divergent_declared_tail_never_calls_f(a, sing, b):
    # a + sing - b >= -1 is decided from the declaration alone
    def f(r):
        raise AssertionError("integrand called")

    with pytest.raises(DomainError, match="diverges"):
        integrate_radial(RadialIntegrand(f=f, a=a + sing, b=b,
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


def _log_edges_union1d(power, b, breaks):
    # the edge builder as it was written with np.union1d (oracle only)
    wide = quadrature._LOG_MAX / max(power + 1.0, 1.0)
    xb = np.log(np.asarray(breaks, dtype=float))
    lo, hi = -wide, wide
    if len(xb):
        lo = max(float(xb.min()) - quadrature._LOG_EPS / (power + 1.0),
                 -quadrature._LOG_MAX)
        if b is not None:
            hi = float(xb.max()) + quadrature._LOG_EPS / (b - power - 1.0)
    count = max(1, math.ceil((hi - lo) / quadrature._X_WIDTH))
    return np.union1d(np.linspace(lo, hi, count + 1),
                      xb[(xb > lo) & (xb < hi)])


def test_log_edges_match_union1d_bit_for_bit():
    # declared and undeclared tails, zero to three breaks (repeated ones and
    # r = 1 included), and breaks beyond the span, which are left out
    rng = np.random.default_rng(7)
    for case in range(3000):
        power = float(rng.uniform(-0.9, 20.0))
        b = None if case % 2 else power + 1.0 + float(rng.uniform(0.05, 10.0))
        breaks = [float(10.0 ** rng.uniform(-300.0, 300.0))
                  for _ in range(int(rng.integers(0, 4)))]
        if breaks and case % 5 == 0:
            breaks.append(breaks[0])
        if case % 7 == 0:
            breaks.append(1.0)
        got = quadrature._log_edges(power, b, breaks)
        assert all(type(x) is float for x in got)
        got = np.asarray(got)
        want = _log_edges_union1d(power, b, breaks)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), \
            (power, b, breaks)
        assert np.all(np.diff(got) > 0.0)
    # a break that is not a positive finite radius is refused before f runs
    for bad in (math.inf, 0.0, math.nan):
        with pytest.raises(NumericalError, match=r"the break points \[1\.0, "
                           r".*\] of a radial integrand must be positive "
                           "and finite"):
            integrate_radial(RadialIntegrand(f=None, a=6.0, b=14.0,
                                             breaks=(1.0, bad)))


def _sharing_f(r, k):
    return np.exp(-k * r)


@pytest.mark.parametrize("members,want", [
    pytest.param([RadialIntegrand(f=lambda r: (1.0 + r**2) ** -7.0, a=6.0)],
                 [("0x1.f6a7a2955385cp-8", "0x1.1eba040150000p-49", 1830)],
                 id="undeclared-tail"),
    pytest.param([RadialIntegrand(f=lambda r: (1.0 + r) ** -12.0, a=5.0,
                                  b=12.0, breaks=(1.0,))],
                 [("0x1.7a463005e8c58p-12", "0x1.63924819fe000p-52", 300)],
                 id="declared-tail-one-break"),
    pytest.param([RadialIntegrand(f=lambda r: np.ones_like(r), a=-0.5,
                                  R=1.0)],
                 [("0x1.ffffffffffbdep+0", "0x1.08715ec6caae2p-39", 1515)],
                 id="endpoint-singularity"),
    pytest.param([RadialIntegrand(f=lambda r: np.sin(50.0 * r) ** 2 + r,
                                  R=1.0)],
                 [("0x1.00a5ed0757884p+0", "0x1.34f8000000000p-44", 1695)],
                 id="many-bisections"),
    pytest.param([RadialIntegrand(f=_sharing_f, a=2.0, R=R, arg=k)
                  for R, k in ((1.0, 1.0), (5.0, 3.0), (40.0, 0.5))],
                 [("0x1.48ea1e23ea7d3p-3", "0x1.0504124920904p-55", 915),
                  ("0x1.2f653e3d09a92p-4", "0x1.1d29812020000p-50", 975),
                  ("0x1.fffff0b72807cp+3", "0x1.0255ba0148000p-39", 975)],
                 id="lockstep-batch"),
])
def test_engine_results_are_pinned_bit_for_bit(members, want):
    # value, error estimate and evaluation count of each member, exactly as
    # the engine gave them when these pins were taken: a change to how the
    # engine keeps its books must not move a bit
    got = quadrature.integrate_radial_batch(members, tol=1e-12)
    assert [(res["value"].hex(), res["error_estimate"].hex(),
             res["evaluations"]) for res in got] == want


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
        RadialIntegrand(f=lambda r: np.ones_like(r), a=-0.5, R=1.0), tol=1e-8
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
    power = integrand.a

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
    pytest.param(energy, lambda: energy.j_at_bubble(
        _model(HSParams(7, 1.0)), HSParams(7, 1.0), 0.01),
        id="j_at_bubble-finite-R"),
    # the memo is cleared first: a grid another test assembled integrates
    # nothing
    pytest.param(linearized, lambda: (
        linearized.assemble_mode.cache_clear(),
        linearized.assemble_mode(HSParams(7, 1.0), 0,
                                 default_grid(HSParams(7, 1.0), 2000, 200.0))),
        id="first-cell-potential-mass"),
    pytest.param(energy, lambda: energy.remainder_alpha(
        curvature_preset("sphere:1", 7), HSParams(7, 1.0), 1.0),
        id="remainder-radial-infinite"),
    pytest.param(energy, lambda: energy.remainder_alpha(
        curvature_preset(_NON_EINSTEIN, 7), HSParams(7, 1.0), 1.0),
        id="remainder-tracefree-infinite"),
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


_P71 = HSParams(7, 1.0)


@pytest.mark.parametrize("module,run,want", [
    # sha256 of the repr of the 36 (value.hex(), error_estimate.hex(),
    # evaluations) triples of the README sweep's batch
    pytest.param(energy, lambda: energy._j_sweep(
        _model(_P71), _P71, list(np.geomspace(0.005, 0.05, 12))),
        "2e740b35cb1593712557023a36cf3f1fe8bf4c320daaa0ed498025f2980a1a15",
        id="j-sweep-7-1"),
    pytest.param(energy, lambda: energy.remainder_norm_scaled(
        curvature_preset("sphere:1", 7), _P71, 1.0),
        [("0x1.cbb36f29dc874p+21", "0x1.4f04a855b9000p-20", 510)],
        id="remainder-radial-7-1"),
    pytest.param(energy, lambda: energy.remainder_norm_scaled(
        curvature_preset(_NON_EINSTEIN, 7), _P71, 1.0),
        [("0x1.dc3ee3f8d38cap+26", "0x1.c0947925e2000p-15", 540)],
        id="remainder-tracefree-7-1"),
    pytest.param(energy, lambda: energy.remainder_norm_scaled(
        curvature_preset("sphere:1", 9), HSParams(9, 0.5), 1.0),
        [("0x1.89a9fda693e8cp+23", "0x1.686afff670100p-18", 435)],
        id="remainder-radial-9-05"),
    pytest.param(energy, lambda: energy.remainder_norm_scaled(
        curvature_preset(_NON_EINSTEIN, 9), HSParams(9, 0.5), 1.0),
        [("0x1.1f80993987794p+27", "0x1.29774904e1900p-14", 465)],
        id="remainder-tracefree-9-05"),
    pytest.param(energy, lambda: energy.remainder_norm_scaled(
        curvature_preset("sphere:1", 7), HSParams(7, 1.5), 1.0),
        [("0x1.a72eb9d2ff256p+36", "0x1.8ce25fc285634p-4", 525)],
        id="remainder-radial-7-15"),
    pytest.param(energy, lambda: energy.remainder_norm_scaled(
        curvature_preset(_NON_EINSTEIN, 7), HSParams(7, 1.5), 1.0),
        [("0x1.b669f4ac26bd0p+41", "0x1.9b55da66259b8p+1", 525)],
        id="remainder-tracefree-7-15"),
    pytest.param(linearized, lambda: (
        linearized.assemble_mode.cache_clear(),
        linearized.assemble_mode(_P71, 0, default_grid(_P71, 2000, 200.0))),
        [("0x1.9ca105d91aa47p-95", "0x1.0010010410400p-147", 915)],
        id="first-cell-mass-7-1"),
])
def test_caller_results_are_pinned_bit_for_bit(monkeypatch, module, run,
                                               want):
    # the engine's results for its callers, as a run that bisects one
    # panel per integrand call gives them: look-ahead may change which
    # nodes a call holds, never a committed sum or decision
    got = [(res["value"].hex(), res["error_estimate"].hex(),
            res["evaluations"])
           for _, _, res in _recorded_calls(monkeypatch, module, run)]
    if isinstance(want, str):
        got = hashlib.sha256(repr(got).encode()).hexdigest()
    assert got == want


def test_tail_divergence_refusal_text_is_pinned():
    with pytest.raises(DomainError) as got:
        integrate_radial(RadialIntegrand(f=lambda r: (1.0 + r) ** -6.0,
                                         a=5.0))
    assert str(got.value) == (
        "the integral may diverge at infinity: its outermost panel, ending "
        "at x = log r = 118.297, still holds 1.988e+00 of 1.160e+02; "
        "declare the integrand's tail exponent b")


def test_budget_refusal_keeps_its_text_and_bounds_the_look_ahead():
    # the committed panels, not the looked-ahead ones, count against the
    # budget, so the refusal keeps the serial engine's text; f sees at most
    # _AHEAD uncommitted panels' halves, 30 nodes each, beyond it
    nodes = []

    def f(r):
        nodes.append(r.size)
        return np.sin(1.0 / r) ** 2

    with pytest.raises(NumericalError) as got:
        integrate_radial(RadialIntegrand(f=f, R=1.0), tol=1e-14)
    assert str(got.value) == (
        "quadrature budget of 1000000 evaluations exhausted; error estimate "
        "1.570e-07 vs target 6.735e-15")
    assert sum(nodes) <= quadrature.PANEL_BUDGET + 30 * quadrature._AHEAD


def test_f_failing_only_on_look_ahead_nodes_leaves_the_result_alone():
    # the serial engine's nodes, from the one-panel-per-call reference
    panels = []

    def record(r):
        panels.append(frozenset(r.tolist()))
        return np.sin(50.0 * r) ** 2 + r

    want = _reference_integrate(RadialIntegrand(f=record, R=1.0), tol=0.0)
    serial = frozenset().union(*panels)

    def raises(r):
        raise RuntimeError("a node the serial engine never sums")

    def inf(r):
        # a non-finite summand is refused inside the same retried call
        return np.where([x in serial for x in r.tolist()],
                        np.sin(50.0 * r) ** 2 + r, np.inf)

    for fail in (raises, inf):
        refused = []

        def f(r):
            if not serial.issuperset(r.tolist()):
                refused.append(r.size)
                return fail(r)
            return np.sin(50.0 * r) ** 2 + r

        # at the roundoff floor the run stops with a looked-ahead panel unused
        got = integrate_radial(RadialIntegrand(f=f, R=1.0), tol=0.0)
        assert refused and got == want

    # a failure on a node the serial engine sums is raised as f raised it,
    # here on the last panel it bisects
    def g(r):
        if not panels[-1].isdisjoint(r.tolist()):
            raise RuntimeError("a serial node")
        return f(r)

    with pytest.raises(RuntimeError, match="a serial node"):
        integrate_radial(RadialIntegrand(f=g, R=1.0), tol=0.0)


@pytest.mark.parametrize("integrand,want", [
    # f is inf at the centre node of the panel [0.5, 1] (was counted as 0,
    # and the panel bisected until no node sat there)
    (RadialIntegrand(f=lambda r: np.where(r == 0.75, np.inf, np.cos(r)),
                     R=1.0),
     "a quadrature summand f(r) r**(0.0) is not finite at r = 0.75, where "
     "f(r) = inf"),
    # (1+r)**-41.5 is still subnormal where r**40 overflows, past r = 5e7
    # (was counted as 0, which dropped the tail's int r**-1.5 dr = 2.8e-4
    # and answered B(41, 1/2) 1.0e-3 low)
    (RadialIntegrand(f=lambda r: (1.0 + r) ** -41.5, a=40.0, b=41.5,
                     breaks=(1.0,)),
     "a quadrature summand f(r) r**(40.0) is not finite at r = 5.68262e+07, "
     "where f(r) = 1.5316e-322"),
], ids=["inf-f", "overflowing-weight"])
def test_non_finite_summand_is_refused(integrand, want):
    with pytest.raises(NumericalError) as got:
        integrate_radial(integrand)
    assert str(got.value) == want
    assert f"r = {got.value.r:.6g}," in want  # the error carries its node


def test_zero_f_against_an_overflowing_weight_counts_as_zero():
    # exp(-r) underflows to exactly 0 long before r**40 overflows, so the
    # nan of 0 * inf there is a summand of 0: int r**40 e**-r dr = 40!
    res = integrate_radial(RadialIntegrand(f=lambda r: np.exp(-r), a=40.0,
                                           b=41.5, breaks=(1.0,)))
    assert res["value"] == pytest.approx(math.factorial(40), rel=1e-12)


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


@pytest.mark.parametrize("integrand", [
    RadialIntegrand(f=lambda r: np.sin(50.0 * r) ** 2 + r, R=1.0),
    RadialIntegrand(f=lambda r: (1.0 + r) ** -12.0, a=5.0, b=12.0,
                    breaks=(1.0,)),
    RadialIntegrand(f=lambda r: (1.0 + r**2) ** -7.0, a=6.0),
    RadialIntegrand(f=lambda r: np.full_like(r, 1e308), R=1.0),
], ids=["finite", "declared-tail", "undeclared-tail", "non-finite-panel-sum"])
def test_a_lone_run_books_its_first_round_as_a_batch_does(monkeypatch,
                                                          integrand):
    # a lone run books its first round with push, a group of two or more
    # with _start's arrays (here two copies of one integrand, one key):
    # each member gives the lone run's value, error estimate and
    # evaluations exactly, or the same refusal
    count = len(quadrature._Run(integrand, 1e-12).todo[0])
    pushed = []
    push = quadrature._Run.push

    def spy(run, los, his, rows):
        pushed.append(len(los))
        return push(run, los, his, rows)

    monkeypatch.setattr(quadrature._Run, "push", spy)

    def outcome(members):
        pushed.clear()
        try:
            return [(res["value"].hex(), res["error_estimate"].hex(),
                     res["evaluations"]) for res in
                    quadrature.integrate_radial_batch(members, tol=1e-12)]
        except NumericalError as exc:
            return str(exc)

    alone = outcome([integrand])
    assert pushed[0] == count
    pair = outcome([integrand, integrand])
    assert count not in pushed
    assert pair == (alone if isinstance(alone, str) else 2 * alone)


def test_batch_ends_at_the_first_failure_it_meets(monkeypatch):
    # slow runs out of budget after many rounds, huge overflows in the first
    # round and divergent fails its screen.  Every screen runs before any f
    # call; after them the batch ends at the first failure of a round, so
    # huge's overflow is raised, not slow's later budget error
    monkeypatch.setattr(quadrature, "PANEL_BUDGET", 1200)
    calls = []

    def spy(f):
        def g(r):
            calls.append(r.size)
            return f(r)
        return g

    good = RadialIntegrand(f=spy(lambda r: np.ones_like(r)), a=2.0, R=1.0)
    slow = RadialIntegrand(f=spy(lambda r: np.sin(50.0 * r) ** 2 + r), R=1.0)
    huge = RadialIntegrand(f=spy(lambda r: np.full_like(r, 1e308)), R=1.0)
    divergent = RadialIntegrand(f=spy(lambda r: r), a=-2.0, R=1.0)
    with pytest.raises(DomainError, match="not integrable at 0"):
        quadrature.integrate_radial_batch([good, slow, huge, divergent],
                                          tol=1e-13)
    assert calls == []
    with pytest.raises(NumericalError, match="budget"):
        integrate_radial(slow, tol=1e-13)
    with pytest.raises(NumericalError) as want:
        integrate_radial(huge, tol=1e-13)
    assert "a quadrature panel sum on" in str(want.value)
    assert "leaves the float range" in str(want.value)
    with pytest.raises(NumericalError) as got:
        quadrature.integrate_radial_batch([good, slow, huge], tol=1e-13)
    assert str(got.value) == str(want.value)


# ------------------------------------------- log-coordinate infinite domains


def _evaluations(monkeypatch, module, run):
    return sum(res["evaluations"]
               for _, _, res in _recorded_calls(monkeypatch, module, run))


def test_infinite_domain_evaluation_counts(monkeypatch):
    # spans set from the declared exponents leave little to bisect, and the
    # moments' trapezoidal rule converges in a few halvings: the identity
    # report's six moments are one run, whose three profile functions are
    # each evaluated as often as the longest run among the members using it
    p = HSParams(7, 1.0)
    calls = []
    rule = quadrature.integrate_log_trapezoid

    def spy(integrands, tol=quadrature.DEFAULT_TOL):
        res = rule(integrands, tol=tol)
        shared = {}
        for integrand, run in zip(integrands, res):
            key = id(integrand.f)
            shared[key] = max(shared.get(key, 0), run["evaluations"])
        calls.append((len(integrands), sum(shared.values())))
        return res

    monkeypatch.setattr(quadrature, "integrate_log_trapezoid", spy)
    moments.identity_report(p)
    assert len(calls) == 1 and calls[0][0] == 6 and calls[0][1] <= 1200
    assert _evaluations(monkeypatch, energy, lambda: energy.remainder_alpha(
        curvature_preset("sphere:1", 7), p, 1.0)) <= 1000


def test_slow_tail_remainder_answers_within_a_small_budget(monkeypatch):
    # at (7, 1.5) the density decays like r**-7.78 against the weight r**6,
    # so the integrand in x = log r falls only like e**(-0.78 x) and its
    # tail spans 46 e-folds past the bubble scale; the value is checked
    # against the nested-quad oracle in tests/test_energy.py
    monkeypatch.setattr(quadrature, "PANEL_BUDGET", 20_000)
    p = HSParams(7, 1.5)
    got = energy.remainder_norm_scaled(curvature_preset(_NON_EINSTEIN, 7),
                                       p, 1.0)
    assert math.isfinite(got) and got > 0.0
    flat = energy.remainder_norm_scaled(curvature_preset("flat", 7), p, 2.0)
    assert flat == pytest.approx(flat_alpha_inv_closed_form(p, 2.0),
                                 rel=1e-12)


# ------------------------------------------- trapezoidal rule in x = log r


def _declared(f=lambda r: (1.0 + r) ** -12.0, **kw):
    return RadialIntegrand(f=f, **{"a": 5.0, "b": 12.0, "breaks": (1.0,),
                                   **kw})


def test_log_trapezoid_beta_forms_on_nested_nodes():
    # each node is evaluated once: a halving adds only the midpoints
    seen = []

    def f(r):
        seen.extend(r.tolist())
        return (1.0 + r**2) ** -7.0

    exact = math.gamma(3.5) ** 2 / (2.0 * math.gamma(7))
    res = quadrature.integrate_log_trapezoid([RadialIntegrand(
        f=f, a=6.0, b=14.0, breaks=(1 / 3, 3.0))], tol=1e-12)[0]
    assert res["value"] == pytest.approx(exact, rel=1e-14)
    assert res["error_estimate"] <= 1e-12 * res["value"]
    assert res["evaluations"] == len(seen) == len(set(seen))
    res = quadrature.integrate_log_trapezoid([_declared()], tol=1e-12)[0]
    assert res["value"] == pytest.approx(1.0 / 2772.0, rel=1e-14)


def test_log_trapezoid_stops_at_the_first_converged_halving():
    # |T_h - T_2h| <= tol |T_h| is met one halving later at a tighter tol,
    # and the estimate is the last step's difference
    loose = quadrature.integrate_log_trapezoid([_declared()], tol=1e-3)[0]
    tight = quadrature.integrate_log_trapezoid([_declared()], tol=1e-12)[0]
    assert loose["evaluations"] < tight["evaluations"]
    assert 0.0 < loose["error_estimate"] <= 1e-3 * loose["value"]
    assert abs(loose["value"] - 1.0 / 2772.0) <= loose["error_estimate"]
    # a tol below roundoff stops at the floor, as the adaptive engine does
    zero = quadrature.integrate_log_trapezoid([_declared()], tol=0.0)[0]
    assert zero["error_estimate"] <= quadrature._ROUNDOFF * zero["value"]


def test_log_trapezoid_refuses_what_it_does_not_serve():
    cause = "needs an infinite domain, a declared tail exponent b and breaks"
    for bad in (_declared(R=1.0), _declared(b=None), _declared(breaks=()),
                _declared(arg=1.0)):
        with pytest.raises(DomainError, match=cause):
            quadrature.integrate_log_trapezoid([bad])


@pytest.mark.parametrize("kw,tol", [
    ({"a": -1.0}, 1e-10),
    ({"b": 6.0}, 1e-10),
    ({}, math.nan),
    ({}, -1.0),
    ({}, math.inf),
])
def test_log_trapezoid_keeps_the_engine_refusals(kw, tol):
    # the divergence screens and the tolerance check, with the same words,
    # decided before f is called
    def f(r):
        raise AssertionError("integrand called")

    integrand = _declared(f=f, **kw)
    with pytest.raises(DomainError) as want:
        integrate_radial(integrand, tol=tol)
    with pytest.raises(DomainError) as got:
        quadrature.integrate_log_trapezoid([integrand], tol=tol)
    assert str(got.value) == str(want.value)


def test_log_trapezoid_zeroes_non_finite_node_values():
    # NaN on the nodes below r = 3e-3, where the span starts at 2.46e-3 and
    # the weight r**6 leaves under 1e-12 of the integral, counts as 0
    def f(r):
        return np.where(r < 3e-3, np.nan, (1.0 + r) ** -12.0)

    res = quadrature.integrate_log_trapezoid([_declared(f=f)], tol=1e-12)[0]
    assert res["value"] == pytest.approx(1.0 / 2772.0, rel=1e-12)


def test_log_trapezoid_non_finite_level_sum_is_refused_at_once():
    # every summand is at most 2e307 (its value on the dozen nodes with
    # r >= 1), but their sum overflows a float
    calls = []

    def f(r):
        calls.append(r.size)
        return 2e307 * np.minimum(1.0, r**-6.0)

    with pytest.raises(NumericalError, match=r"a trapezoidal sum on \[-6\.0"
                       r"0\d+, 6\.0\d+\] in x = log r leaves the float range"):
        quadrature.integrate_log_trapezoid([_declared(f=f)])
    assert len(calls) == 1


def test_log_trapezoid_gives_up_after_its_halvings():
    # a kink at r = 1 converges only like h**2, short of tol = 1e-13
    calls = []

    def f(r):
        calls.append(r.size)
        return (1.0 + r) ** -12.0 * (1.0 + np.abs(np.log(r)))

    with pytest.raises(NumericalError, match="did not converge in 12 "
                       r"halvings: \|T_h - T_2h\| = .* against"):
        quadrature.integrate_log_trapezoid([_declared(f=f)], tol=1e-13)
    # the first call holds level 0 and its first halving, 2 c + 1 nodes for
    # c level-0 steps; the run sums c 2**12 steps and its last halving
    # adds their c 2**11 midpoints
    steps = calls[0] // 2
    assert sum(calls) == steps * 2 ** quadrature._TRAP_HALVINGS + 1
    assert calls[-1] == steps * 2 ** (quadrature._TRAP_HALVINGS - 1)


def test_log_trapezoid_members_share_f_and_keep_their_own_runs():
    # two weights on one f: one call per level serves both, and each member
    # stops at its own first converged halving, on the union of the spans
    calls = []

    def f(r):
        calls.append(r.size)
        return (1.0 + r) ** -12.0

    wide, narrow = quadrature.integrate_log_trapezoid(
        [_declared(f=f, a=9.0), _declared(f=f, a=3.0)], tol=1e-12)
    assert wide["value"] == pytest.approx(math.gamma(10) * math.gamma(2)
                                          / math.gamma(12), rel=1e-13)
    assert narrow["value"] == pytest.approx(1.0 / 1320.0, rel=1e-13)
    assert sum(calls) == max(wide["evaluations"], narrow["evaluations"])
    steps = calls[0] // 2
    assert steps * 2 ** len(calls) + 1 == sum(calls)
    for run in (wide, narrow):
        assert run["error_estimate"] <= 1e-12 * run["value"]


def test_log_trapezoid_raises_the_first_failing_member_in_input_order():
    # the kinked member fails only after 12 halvings, the overflowing one
    # with a = 4 after level 0 and the two with a >= 5 at level 0: the list
    # ends there, at the first of those two in input order, with its index,
    # and the kinked member is summed no further
    calls = []

    def kinked(r):
        calls.append(r.size)
        return (1.0 + r) ** -12.0 * (1.0 + np.abs(np.log(r)))

    def huge(r):
        return 2e307 * np.minimum(1.0, r**-6.0)

    members = [_declared(), _declared(f=kinked)] + [
        _declared(f=huge, a=a) for a in (4.0, 5.0, 5.5)]
    for order, first in ((members, 3), (members[::-1], 0)):
        calls.clear()
        with pytest.raises(NumericalError, match="leaves the float") as got:
            quadrature.integrate_log_trapezoid(order, tol=1e-13)
        assert got.value.member == first
        assert len(calls) == 1
