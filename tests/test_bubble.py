import math
import re

import numpy as np
import pytest

from hsbubble.bubble import (
    RadialGrid,
    RadialProfile,
    d2u1,
    d2z0,
    default_grid,
    du1,
    dz0,
    eval_profiles,
    pde_residual,
    power_law_breaks,
    rdru1,
    u1,
    z0,
)
from hsbubble.errors import DomainError, NumericalError
from hsbubble.params import HSParams, derive_constants

P71 = HSParams(7, 1.0)


def test_profile_values_at_origin_and_crossing():
    c = derive_constants(P71)
    out = eval_profiles(P71, delta=1.0, r=0.0)
    np.testing.assert_allclose(out["U_delta"], c.kappa, rtol=1e-14)
    np.testing.assert_allclose(out["U_delta"], 4929.50302, rtol=1e-8)
    # Z vanishes where r**(2-s) = delta**(2-s)
    assert eval_profiles(P71, 1.0, 1.0)["Z_delta"] == pytest.approx(0.0, abs=1e-10)
    assert z0(P71, 1.0) == 0.0


def test_dilation_identity_links_z0_u1():
    # Z0 = -(n-2)/2 U1 - r U1', exactly, for several (n, s)
    rng = np.random.default_rng(0)
    for n, s in [(7, 1.0), (9, 0.5), (8, 1.5), (10, 0.25), (7, 1.9)]:
        p = HSParams(n, s)
        r = 10.0 ** rng.uniform(-4, 4, size=200)
        lhs = z0(p, r)
        rhs = -0.5 * (n - 2) * u1(p, r) - rdru1(p, r)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-13, atol=1e-13 * np.max(np.abs(lhs)))


def test_delta_scaling_of_profiles():
    p = HSParams(9, 0.5)
    r = np.array([0.3, 1.0, 4.2])
    for delta in (0.1, 0.5, 2.0):
        out = eval_profiles(p, delta, r)
        np.testing.assert_allclose(
            out["U_delta"], delta ** (-3.5) * u1(p, r / delta), rtol=1e-14)
        np.testing.assert_allclose(
            out["dr_U_delta"], delta ** (-4.5) * du1(p, r / delta), rtol=1e-14)
        np.testing.assert_allclose(
            out["Z_delta"], delta ** (-3.5) * z0(p, r / delta), rtol=1e-14)


def test_huge_scale_origin_is_quiet():
    # at s > 1 U' is -inf at r = 0 and delta**(-n/2) underflows to 0; their
    # product was an "invalid value" RuntimeWarning, and a nan U'
    out = eval_profiles(HSParams(7, 1.5), 1e200, 0.0)
    assert out["U_delta"] == 0.0
    assert out["dr_U_delta"] == -np.inf
    assert type(out["dr_U_delta"]) is float


def test_a_float_radius_runs_the_array_formula():
    # each closed form on a Python float (Python's **, libm's pow) and on an
    # array (numpy's power, which may be a SIMD loop of its own) agrees to a
    # few ulp, times the 1 + m by which (1 + t)**(-m) scales t's rounding;
    # Z0's factor t - 1 cancels near t = 1, so its scale takes 1 + t there
    rng = np.random.default_rng(3)
    eps = np.finfo(float).eps
    for _ in range(40):
        p = HSParams(int(rng.integers(3, 13)), float(rng.uniform(0.0, 1.9)))
        n, m, delta = p.n, p.m, float(10.0 ** rng.uniform(-1.0, 1.0))
        r = np.concatenate([[0.0], 10.0 ** rng.uniform(-3.0, 3.0, 30)])
        lift = delta ** (-(n - 2.0) / 2.0)
        z_scale = 0.5 * (n - 2.0) * p.kappa \
            * (1.0 + r ** (2.0 - p.s)) ** (1.0 - m)
        want = {"u1": u1(p, r), "du1": du1(p, r), "z0": z0(p, r),
                **eval_profiles(p, delta, r)}
        scale = {key: np.abs(v) for key, v in want.items()}
        scale["z0"] = z_scale
        scale["Z_delta"] = lift * 0.5 * (n - 2.0) * p.kappa \
            * (1.0 + (r / delta) ** (2.0 - p.s)) ** (1.0 - m)
        for i, x in enumerate(r.tolist()):
            got = {"u1": u1(p, x), "du1": du1(p, x), "z0": z0(p, x),
                   **eval_profiles(p, delta, x)}
            for key, v in got.items():
                assert type(v) is float, (key, type(v))
                w = want[key][i]
                assert v == w or abs(v - w) <= 4.0 * eps * (1.0 + m) \
                    * scale[key][i], (p, x, key, v, w)
        if p.s > 1.0:  # U' at r = 0 is -inf on both
            assert du1(p, 0.0) == want["du1"][0] == -np.inf
            assert eval_profiles(p, delta, 0.0)["dr_U_delta"] == -np.inf


@pytest.mark.parametrize("form,tail", [
    (u1, 0.0), (du1, -0.0), (d2u1, -0.0), (rdru1, -0.0), (z0, 0.0),
    (dz0, -0.0), (d2z0, 0.0)],
    ids=["u1", "du1", "d2u1", "rdru1", "z0", "dz0", "d2z0"])
@pytest.mark.parametrize("as_array", [False, True], ids=["float", "array"])
def test_a_profile_past_the_float_range_reads_its_limit(form, tail, as_array):
    # at s = 0 a constant times t = r**2 overflows to inf from r = 6.5e152
    # (rdru1) while (1+t)**(-m) underflows to 0; their product read nan.
    # Each form reads its limit 0 with the sign it has at r = 1e100, and an
    # array gives no warning.  From r = 1.3e154, t itself overflows (on a
    # float, Python's ** raises, and t reads inf as numpy gives)
    p = HSParams(7, 0.0)
    for r in (1e100, 1e153, 1e200, 1e300):
        got = form(p, np.array([r]))[0] if as_array else form(p, r)
        assert got == 0.0, r
        assert math.copysign(1.0, got) == math.copysign(1.0, tail), r


@pytest.mark.parametrize("p,delta,r", [
    (HSParams(7, 1.9), 1e-80, 1e-90),  # U' times delta**(-n/2)
    (HSParams(30, 0.5), 1e-20, 0.0),  # U_delta(0) = 1.7e307, Z_delta -14x
], ids=["du", "z"])
@pytest.mark.parametrize("as_array", [False, True], ids=["float", "array"])
def test_an_overflowing_profile_is_a_numerical_error(p, delta, r, as_array):
    with pytest.raises(NumericalError, match=re.escape(
            f"the profiles at scale delta = {delta} overflow a float at "
            f"n = {p.n} (their amplitudes carry delta**(-n/2))")):
        eval_profiles(p, delta, np.array([r]) if as_array else r)


def test_z_is_delta_derivative_of_u():
    # centered difference in delta converges at second order to Z/delta
    p = P71
    r = np.array([0.05, 0.7, 1.3, 8.0])
    z = eval_profiles(p, 1.0, r)["Z_delta"]

    def fd_error(e):
        up = eval_profiles(p, 1.0 + e, r)["U_delta"]
        dn = eval_profiles(p, 1.0 - e, r)["U_delta"]
        return np.max(np.abs((up - dn) / (2.0 * e) - z))

    e1, e2 = fd_error(1e-2), fd_error(5e-3)
    assert e1 / e2 == pytest.approx(4.0, rel=0.15)


def test_dr_matches_numerical_r_derivative():
    p = HSParams(8, 0.75)
    r = np.array([0.2, 1.1, 3.0])
    out = eval_profiles(p, 0.7, r)
    h = 1e-6
    num = (eval_profiles(p, 0.7, r + h)["U_delta"]
           - eval_profiles(p, 0.7, r - h)["U_delta"]) / (2.0 * h)
    np.testing.assert_allclose(out["dr_U_delta"], num, rtol=1e-8)
    # every derivative pde_residual uses, against a central difference of
    # the closed form one order below
    for deriv, f in ((d2u1, du1), (dz0, z0), (d2z0, dz0)):
        num = (f(p, r + h) - f(p, r - h)) / (2.0 * h)
        np.testing.assert_allclose(deriv(p, r), num, rtol=1e-7,
                                   err_msg=deriv.__name__)


def test_pde_residual_analytic_is_noise():
    grid = default_grid(P71, N=2000)
    res = pde_residual(P71, grid)
    assert res["max_rel_residual_U"] <= 1e-10
    assert res["max_rel_residual_Z"] <= 1e-10

    res = pde_residual(HSParams(9, 0.5), default_grid(HSParams(9, 0.5), N=2000))
    assert res["max_rel_residual_U"] <= 1e-10
    assert res["max_rel_residual_Z"] <= 1e-10


def test_pde_residual_analytic_random_params():
    rng = np.random.default_rng(0)
    for _ in range(5):
        n = int(rng.integers(7, 13))
        s = float(rng.uniform(0.1, 1.9))
        p = HSParams(n, s)
        res = pde_residual(p, default_grid(p, N=500))
        assert res["max_rel_residual_U"] <= 1e-10, (n, s)
        assert res["max_rel_residual_Z"] <= 1e-10, (n, s)


def test_grid_shape_and_defaults():
    g = RadialGrid(R_max=10.0, N=100, gamma=2.0)
    nodes = g.nodes
    assert nodes[0] == 0.0
    assert nodes[-1] == 10.0
    assert nodes.size == 101
    assert np.all(np.diff(nodes) > 0)
    assert default_grid(P71).gamma == pytest.approx(2.0)
    assert default_grid(HSParams(9, 0.5)).gamma == pytest.approx(2.0 / 1.5)


def test_profile_container():
    g = RadialGrid(R_max=5.0, N=64, gamma=2.0)
    prof = RadialProfile.from_callable(lambda r: z0(P71, r))
    np.testing.assert_array_equal(prof.on(g), z0(P71, g.nodes))
    sampled = RadialProfile.from_samples(g, z0(P71, g.nodes))
    np.testing.assert_array_equal(sampled.values, z0(P71, g.nodes))

    with pytest.raises(DomainError):
        RadialProfile.from_samples(g, np.full(g.nodes.size, np.nan))
    with pytest.raises(DomainError):
        RadialProfile.from_samples(g, np.zeros(3))


def test_domain_rejections():
    with pytest.raises(DomainError):
        eval_profiles(P71, 0.0, 1.0)
    for f in (u1, du1, z0, lambda p, r: eval_profiles(p, 1.0, r)):
        with pytest.raises(DomainError, match=re.escape(
                "a radius must be >= 0, got r=-1.0")):
            f(P71, -1.0)
    # s = 0 (the Yamabe limit) answers: the identities hold to roundoff
    p0 = HSParams(7, 0.0)
    res = pde_residual(p0, default_grid(p0, N=100))
    assert max(res.values()) <= 1e-10
    with pytest.raises(DomainError, match="unknown residual method 'fd'"):
        pde_residual(P71, default_grid(P71, N=100), method="fd")
    with pytest.raises(DomainError):
        RadialGrid(R_max=1.0, N=100, gamma=0.5)
    # near s = 2 the bubble scale itself leaves the float range
    with pytest.raises(NumericalError, match=r"the bubble scale "
                       r"\(\(n - 2\)/\(2 - s\)\)\*\*\(1/\(2 - s\)\) "
                       "overflows a float at n = 7, s = 1.999"):
        power_law_breaks(HSParams(7, 1.999))
