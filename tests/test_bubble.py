import numpy as np
import pytest

from hsbubble.bubble import (
    RadialGrid,
    RadialProfile,
    default_grid,
    du1,
    eval_profiles,
    pde_residual,
    rdru1,
    u1,
    z0,
)
from hsbubble.errors import DomainError
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


def test_pde_residual_fd_refinement_order():
    # 4th-order log-radius differencing: defect drops at >= 3rd order under N -> 2N
    r1 = pde_residual(P71, default_grid(P71, N=2000), method="fd")
    r2 = pde_residual(P71, default_grid(P71, N=4000), method="fd")
    for key in ("max_rel_residual_U", "max_rel_residual_Z"):
        order = np.log2(r1[key] / r2[key])
        assert order >= 3.0, (key, order, r1[key], r2[key])


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
    with pytest.raises(DomainError):
        pde_residual(HSParams(7, 0.0), default_grid(HSParams(7, 0.0), N=100))
    with pytest.raises(DomainError):
        RadialGrid(R_max=1.0, N=100, gamma=0.5)
