"""Tests for the mode-decomposed linearized solver."""

import os
import subprocess
import sys

import numpy as np
import pytest

import hsbubble
from hsbubble import linearized
from hsbubble.bubble import RadialGrid, RadialProfile, default_grid, rdru1, u1, z0
from hsbubble.errors import DomainError, NumericalError
from hsbubble.geometry import PotentialJet, curvature_preset, lg_total
from hsbubble.linearized import (
    ModeSolution,
    WDecomposition,
    _count_eigs_below,
    _fd_defect,
    assemble_mode,
    hat_c,
    kernel_diagnostics,
    nonlocal_term,
    potential_values,
    solve_mode,
    z0_laplacian_load,
)
from hsbubble.moments import bubble_moment
from hsbubble.params import HSParams, sphere_area

P71 = HSParams(7, 1.0)


def grid71(N=4000):
    return default_grid(P71, N=N)


# --------------------------------------------------------------------------
# types and assembly


def test_wdecomposition_validation():
    WDecomposition(a=1.0, mode0_extra=0.0, t_free_norm2=0.0)
    with pytest.raises(DomainError):
        WDecomposition(a=1.0, mode0_extra=0.0, t_free_norm2=-1e-12)
    with pytest.raises(DomainError,
                       match="WDecomposition field 'a' must be finite, got nan"):
        WDecomposition(a=np.nan, mode0_extra=0.0, t_free_norm2=1.0)
    with pytest.raises(DomainError, match="'mode0_extra' must be finite, got inf"):
        WDecomposition(a=1.0, mode0_extra=np.inf, t_free_norm2=1.0)


def test_potential_closed_form_spot_values():
    # V(1) = (2*(s)-1)(n-s)(n-2) / 4 at any (n, s); (7,1): 1.4*6*5/4 = 10.5
    assert potential_values(P71, 1.0) == pytest.approx(10.5, rel=1e-14)
    p = HSParams(9, 0.5)
    v1 = (2 * (9 - 0.5) / 7 - 1) * (9 - 0.5) * 7 / 4
    assert potential_values(p, 1.0) == pytest.approx(v1, rel=1e-14)


def test_assembly_shapes_masses_and_robin():
    grid = grid71(200)
    m0 = assemble_mode(P71, 0, grid)
    m2 = assemble_mode(P71, 2, grid)
    assert m0.r.size == 201 and m0.d.size == 201 and m0.e.size == 200
    assert m2.r.size == 200 and m2.r[0] > 0.0  # Dirichlet node dropped
    # lumped masses telescope to the exact ball integral of r**(n-1)
    assert np.sum(m0.mass) == pytest.approx(grid.R_max**7 / 7.0, rel=1e-14)
    # Robin corner: last diagonal differs between modes by (ell shift) R^(n-2)
    pure_gap = m2.sd[-1] - m0.sd[-1]
    assert pure_gap == pytest.approx(2.0 * grid.R_max**5, rel=1e-12)
    with pytest.raises(DomainError):
        assemble_mode(P71, 1, grid)
    with pytest.raises(DomainError):
        assemble_mode(HSParams(7, 0.0), 0, grid)


def test_first_cell_potential_against_series():
    # for moderate s the first-cell integral has a rapidly convergent series
    # pref * sum_k (-1)^k (k+1) m^(n+k(2-s)-s) / (n+k(2-s)-s)
    grid = grid71(500)
    m0 = assemble_mode(P71, 0, grid)
    n, s = 7, 1.0
    edge = 0.5 * (grid.nodes[0] + grid.nodes[1])
    pref = (P71.crit_exp - 1.0) * (n - s) * (n - 2)
    series = sum(
        (-1) ** k * (k + 1) * edge ** (n + k * (2 - s) - s) / (n + k * (2 - s) - s)
        for k in range(6)
    )
    want = m0.sd[0] - m0.d[0]  # potential part of the first diagonal entry
    assert want == pytest.approx(pref * series, rel=1e-10)


def test_fd_defect_stencils_on_manufactured_solution():
    # u = r^2 exp(-r) with its analytic image under L_2 validates both
    # nonuniform stencils; the measured defect must shrink at 2nd order.
    n, s = 7, 1.0
    out = []
    for N in (500, 1000, 2000):
        grid = grid71(N)
        m2 = assemble_mode(P71, 2, grid)
        r = m2.r
        u = r**2 * np.exp(-r)
        d1 = (2 * r - r**2) * np.exp(-r)
        d2 = (2 - 4 * r + r**2) * np.exp(-r)
        f = -d2 - (n - 1) / r * d1 + 2 * n / r**2 * u - potential_values(P71, r) * u
        out.append(_fd_defect(P71, 2, r, u, f, m2.mass))
    assert out[0] / out[1] == pytest.approx(4.0, abs=0.5)
    assert out[1] / out[2] == pytest.approx(4.0, abs=0.5)


# --------------------------------------------------------------------------
# the load representation and the projected solve


def test_z0_load_normalizer_matches_gradient_moment():
    # z0^T (S z0) discretizes the full-space gradient norm of Z0 divided by
    # the sphere area (Robin corner supplies the truncated tail).
    want = bubble_moment(P71, "z0grad") / sphere_area(7)
    errs = []
    for N in (4000, 8000):
        grid = grid71(N)
        g = z0_laplacian_load(P71, grid)
        zs = z0(P71, grid.nodes)
        errs.append(float(zs @ g) - want)
    assert abs(errs[1]) / want < 5e-5
    # and the deviation is the scheme's O(h^2), not a formulation error
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.6)


def test_trivial_cancellation_is_exact():
    # projected rhs built from W = Delta Z0: multiplier 1, zero load,
    # identically zero solution -- to the last bit, not to a tolerance.
    grid = grid71(2000)
    g = z0_laplacian_load(P71, grid)
    zs = z0(P71, grid.nodes)
    mu = float(zs @ g) / float(zs @ g)
    load = -g + mu * g
    sol = solve_mode(P71, 0, None, grid, rhs_load=load)
    assert mu == 1.0
    assert np.all(sol.profile.values == 0.0)
    assert sol.lagrange == 0.0


def test_solver_linearity():
    grid = grid71(1000)
    f = lambda r: -rdru1(P71, r) / 3.0
    base = solve_mode(P71, 2, RadialProfile.from_callable(f), grid)
    twice = solve_mode(
        P71, 2, RadialProfile.from_callable(lambda r: 2.0 * f(r)), grid
    )
    frac = solve_mode(
        P71, 2, RadialProfile.from_callable(lambda r: 1.7 * f(r)), grid
    )
    np.testing.assert_allclose(
        twice.profile.values, 2.0 * base.profile.values, rtol=1e-13, atol=0
    )
    np.testing.assert_allclose(
        frac.profile.values, 1.7 * base.profile.values, rtol=1e-11,
        atol=1e-11 * np.max(np.abs(base.profile.values)),
    )


def test_solvability_error_for_unprojected_mode0_rhs():
    grid = grid71(1000)
    with pytest.raises(DomainError, match="orthogonal"):
        solve_mode(P71, 0, RadialProfile.from_callable(lambda r: u1(P71, r)),
                   grid)


def test_solve_mode_input_validation():
    grid = grid71(100)
    with pytest.raises(DomainError):
        solve_mode(P71, 0, None, grid)  # no rhs at all
    with pytest.raises(DomainError):
        solve_mode(P71, 2, None, grid, rhs_load=np.ones(5))  # wrong shape


def test_projected_solve_invariants():
    grid = grid71(4000)
    w = WDecomposition(a=0.7, mode0_extra=0.31, t_free_norm2=2.0)
    sols = hat_c(P71, w, grid)
    s0 = sols["mode0"]
    assert s0.solvability <= 1e-12
    assert s0.gradient_orthogonality <= 1e-10
    assert s0.algebraic_residual <= 1e-8
    assert abs(s0.multiplier) > 0.0
    # values stay at profile scale near the origin (no dynamic-range junk)
    assert np.max(np.abs(s0.profile.values[:10])) < 100.0 * u1(P71, 0.0)
    s2 = sols["mode2"]
    assert s2.profile.values[0] == 0.0  # Dirichlet value reattached
    assert s2.defect < 2e-4


@pytest.mark.parametrize("n,s", [(7, 1.0), (16, 1.5), (30, 1.0)])
def test_bordered_solve_matches_dense_reference(n, s):
    # the bordered system [[K, g], [g^T, 0]] built densely and solved by
    # LAPACK after the same symmetric scaling (unscaled, the origin rows are
    # solved only norm-wise and come out wrong by up to 1e135 relative)
    p = HSParams(n, s)
    grid = default_grid(p, N=500, R_max=50.0)
    mats = assemble_mode(p, 0, grid)
    g = z0_laplacian_load(p, grid)
    zs = z0(p, mats.r)
    load_w = mats.mass * (u1(p, mats.r) + 0.4 * rdru1(p, mats.r))
    load = -load_w + (float(zs @ load_w) / float(zs @ g)) * g
    m = mats.d.size
    B = np.diag(np.append(mats.d, 0.0)) + np.diag(np.append(mats.e, 0.0), 1) \
        + np.diag(np.append(mats.e, 0.0), -1)
    B[:m, m] = B[m, :m] = g
    ds = 1.0 / np.sqrt(np.abs(mats.d))
    dfull = np.append(ds, 1.0 / np.linalg.norm(ds * g))
    ref = dfull * np.linalg.solve(B * np.outer(dfull, dfull),
                                  dfull * np.append(load, 0.0))
    sol = solve_mode(p, 0, None, grid, rhs_load=load)
    u = sol.profile.values
    assert np.max(np.abs(u - ref[:m])) <= 1e-10 * np.max(np.abs(ref[:m]))
    assert sol.gradient_orthogonality <= 1e-15


def test_nonlocal_term_assembles_each_mode_once(monkeypatch):
    # real assemblies are cache misses; the first-cell quadrature is the
    # costly part of the ell = 0 one
    quad = []
    real_quad = linearized._first_cell_potential_mass
    monkeypatch.setattr(linearized, "_first_cell_potential_mass",
                        lambda p, edge: quad.append(edge) or real_quad(p, edge))

    def assemblies():
        return assemble_mode.cache_info().misses, len(quad)

    w = WDecomposition(0.7, 0.31, 2.0)
    grid = grid71(500)
    assemble_mode.cache_clear()
    nonlocal_term(P71, w, grid)
    assert assemblies() == (2, 1)
    nonlocal_term(P71, w, grid)  # same (p, grid): nothing is rebuilt
    assert assemblies() == (2, 1)

    # lg_total, then kernel_diagnostics on the same grid
    assemble_mode.cache_clear()
    quad.clear()
    grid = grid71(600)
    lg_total(curvature_preset("sphere:1", 7), PotentialJet(h0_val=7.5, lap_h=0.0),
             P71, grid)
    kernel_diagnostics(P71, grid)
    assert assemblies() == (2, 1)

    for ell in (0, 2):
        with pytest.raises(ValueError):
            assemble_mode(P71, ell, grid).d[0] = 0.0
    with pytest.raises(ValueError):
        z0_laplacian_load(P71, grid)[0] = 0.0


@pytest.mark.parametrize("n,s", [(7, 1.0), (16, 1.5), (30, 1.0), (30, 0.01)])
@pytest.mark.parametrize("N", [500, 2000, 8000])
def test_factored_solve_matches_solve_banded(n, s, N):
    # the cached gttrf factors solve bit for bit like scipy's solve_banded
    # (LAPACK gtsv) on the same equilibrated matrix, per column and for a
    # two-column right-hand side
    import scipy.linalg

    p = HSParams(n, s)
    grid = default_grid(p, N=N)
    rng = np.random.default_rng(N)
    for ell in (0, 2):
        mats = assemble_mode(p, ell, grid)
        f = linearized._factored(p, ell, grid)
        ds = 1.0 / np.sqrt(np.maximum(np.abs(mats.d), np.finfo(float).tiny))
        assert np.array_equal(f.ds, ds)
        es = mats.e * ds[:-1] * ds[1:]
        ab = np.array([np.append(0.0, es), mats.d * ds * ds, np.append(es, 0.0)])
        rhs = rng.standard_normal((mats.d.size, 2))
        want = scipy.linalg.solve_banded((1, 1), ab, rhs)
        assert np.array_equal(linearized._gttrs(f, ell, rhs), want)
        for k in (0, 1):
            got = linearized._gttrs(f, ell, rhs[:, k])
            assert np.array_equal(got, want[:, k])
            assert np.array_equal(
                got, scipy.linalg.solve_banded((1, 1), ab, rhs[:, k]))
        if ell == 0:
            # the cached border column: the second column of the old
            # two-column solve [D load, col]
            both = scipy.linalg.solve_banded(
                (1, 1), ab, np.column_stack([rhs[:, 0], f.col]))
            assert np.array_equal(f.b, both[:, 1])


def _count_lapack(monkeypatch):
    import scipy.linalg.lapack

    calls = {"dgttrf": 0, "dgttrs": 0}
    for name in calls:
        real = getattr(scipy.linalg.lapack, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, name, counted)
    return calls


def test_repeat_pairings_factor_once_and_solve_ell2_once(monkeypatch):
    calls = _count_lapack(monkeypatch)
    ell2 = []
    real_solve = linearized.solve_mode
    monkeypatch.setattr(linearized, "solve_mode", lambda p, ell, *a, **k: (
        ell2.append(ell) if ell == 2 else None) or real_solve(p, ell, *a, **k))
    grid = grid71(500)
    linearized._factored.cache_clear()
    rng = np.random.default_rng(3)
    for i in range(4):
        det = nonlocal_term(P71, WDecomposition(*rng.uniform(0.2, 2.0, 3)),
                            grid, detail=True)
        assert calls["dgttrf"] == 2  # one per mode, on the first call
        assert len(ell2) == 1
        # per call: the bordered solve and its refinement pass; the first
        # call also solves the border column and the ell = 2 unit problem
        assert calls["dgttrs"] == 2 * (i + 1) + 2
        assert det["mode2"] is linearized._factored(P71, 2, grid).mode2


def test_kernel_diagnostics_factors_nothing(monkeypatch):
    calls = _count_lapack(monkeypatch)
    linearized._factored.cache_clear()
    grid = grid71(600)
    kernel_diagnostics(P71, grid)
    assemble_mode(P71, 0, grid)
    assert calls == {"dgttrf": 0, "dgttrs": 0}
    assert linearized._factored.cache_info().currsize == 0


def test_alternating_grids_and_params_match_cleared_cache_runs():
    # the memo never serves one (p, grid) the factors of another
    cases = [(P71, grid71(500)), (HSParams(9, 0.5), grid71(500)),
             (P71, grid71(700)), (HSParams(9, 0.5), grid71(700))]
    w = WDecomposition(0.7, 0.31, 2.0)

    def run(p, grid):
        det = nonlocal_term(p, w, grid, detail=True)
        return (det["total"], det["mode0_part"], det["mode2_part"],
                det["multiplier"], det["mode0"].profile.values.tolist(),
                det["mode2"].profile.values.tolist())

    want = []
    for case in cases:
        assemble_mode.cache_clear()
        linearized._factored.cache_clear()
        want.append(run(*case))
    for k in (0, 1, 2, 3, 1, 0, 3, 2, 2, 0):
        assert run(*cases[k]) == want[k], k


def test_factored_arrays_refuse_writes():
    grid = grid71(500)
    sols = hat_c(P71, WDecomposition(0.7, 0.31, 2.0), grid)
    f0 = linearized._factored(P71, 0, grid)
    f2 = linearized._factored(P71, 2, grid)
    arrays = [f0.ds, *f0.lu, f0.col, f0.b, f0.u1, f0.rdru1, f0.dz,
              f2.ds, *f2.lu, sols["mode2"].profile.values]
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0] = 0
    # the per-source arrays stay the caller's
    sols["mode0"].profile.values[0] = 0.0


def test_cli_import_leaves_scipy_sparse_out():
    # scipy is imported inside the functions that call it, so importing the
    # CLI loads no scipy module at all (scipy.sparse is not used anywhere)
    src = os.path.dirname(os.path.dirname(hsbubble.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    code = ("import sys, hsbubble.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_hat_c_zero_input_gives_zero():
    grid = grid71(500)
    sols = hat_c(P71, WDecomposition(0.0, 0.0, 0.0), grid)
    assert np.all(sols["mode0"].profile.values == 0.0)


def test_defect_second_order_under_refinement():
    w = WDecomposition(a=0.7, mode0_extra=0.31, t_free_norm2=2.0)
    defects = {}
    for N in (2000, 4000, 8000):
        sols = hat_c(P71, w, grid71(N))
        defects[N] = (sols["mode0"].defect, sols["mode2"].defect)
    for k in (0, 1):
        r1 = defects[2000][k] / defects[4000][k]
        r2 = defects[4000][k] / defects[8000][k]
        assert 3.2 < r1 < 4.8, f"mode{2 * k} first ratio {r1}"
        assert 3.2 < r2 < 4.8, f"mode{2 * k} second ratio {r2}"


# --------------------------------------------------------------------------
# the quadratic pairing


def test_bilinear_symmetry():
    grid = grid71(4000)
    rng = np.random.default_rng(0)
    m0 = assemble_mode(P71, 0, grid)
    for _ in range(3):
        w1 = WDecomposition(*rng.uniform(0.2, 2.0, 3))
        w2 = WDecomposition(*rng.uniform(0.2, 2.0, 3))
        s1 = hat_c(P71, w1, grid)
        s2 = hat_c(P71, w2, grid)
        w1v = w1.a * u1(P71, m0.r) + w1.mode0_extra * rdru1(P71, m0.r)
        w2v = w2.a * u1(P71, m0.r) + w2.mode0_extra * rdru1(P71, m0.r)
        a = float(np.sum(m0.mass * w1v * s2["mode0"].profile.values))
        b = float(np.sum(m0.mass * w2v * s1["mode0"].profile.values))
        assert a == pytest.approx(b, rel=1e-8)


def test_nonlocal_scaling_and_structure():
    grid = grid71(2000)
    w = WDecomposition(a=0.9, mode0_extra=0.4, t_free_norm2=1.3)
    base = nonlocal_term(P71, w, grid)
    # scaling W -> lam W means (a, e, |T|^2) -> (lam a, lam e, lam^2 |T|^2)
    doubled = nonlocal_term(
        P71, WDecomposition(2 * w.a, 2 * w.mode0_extra, 4 * w.t_free_norm2), grid
    )
    assert doubled == pytest.approx(4.0 * base, rel=1e-13)
    lam = 1.7
    scaled = nonlocal_term(
        P71,
        WDecomposition(lam * w.a, lam * w.mode0_extra, lam**2 * w.t_free_norm2),
        grid,
    )
    assert scaled == pytest.approx(lam**2 * base, rel=1e-11)
    assert nonlocal_term(P71, WDecomposition(0.0, 0.0, 0.0), grid) == 0.0
    # flat curvature: no trace-free part, so no mode-2 contribution at all
    detail = nonlocal_term(P71, WDecomposition(1.0, 0.0, 0.0), grid, detail=True)
    assert detail["mode2_part"] == 0.0
    assert detail["total"] == detail["mode0_part"]


def test_nonlocal_cauchy_second_order():
    w = WDecomposition(a=0.7, mode0_extra=0.31, t_free_norm2=2.0)
    vals = [nonlocal_term(P71, w, grid71(N)) for N in (2000, 4000, 8000)]
    d1, d2 = vals[0] - vals[1], vals[1] - vals[2]
    order = np.log2(abs(d1 / d2))
    assert order > 1.8, f"Cauchy order {order}"
    assert abs(d2 / vals[2]) < 1e-4


def test_angular_identity_monte_carlo():
    # integral over S^(n-1) of (T sigma, sigma)^2 = 2 omega |T|^2 / (n(n+2))
    n = 7
    rng = np.random.default_rng(0)
    A = rng.normal(size=(n, n))
    T = 0.5 * (A + A.T)
    T -= np.trace(T) / n * np.eye(n)
    t2 = float(np.sum(T * T))
    x = rng.normal(size=(1_000_000, n))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    samples = np.einsum("ij,jk,ik->i", x, T, x) ** 2
    mean, sem = samples.mean(), samples.std(ddof=1) / np.sqrt(samples.size)
    want = 2.0 * t2 / (n * (n + 2))
    assert abs(mean - want) < 3.0 * sem


# --------------------------------------------------------------------------
# spectral diagnostics


def test_kernel_diagnostics_structure_7_1():
    d4 = kernel_diagnostics(P71, grid71(4000))
    d8 = kernel_diagnostics(P71, grid71(8000))
    for d in (d4, d8):
        assert d["mode0_near_zero_count"] == 1
        assert d["mode0_negative_count"] == 1
        assert d["mode0_eigvec_alignment_with_Z0"] >= 0.999
        assert d["mode2_min_eig"] > 0.0
        assert d["mode2_near_zero_count"] == 0
        assert abs(d["mode0_kernel_eig"]) < d["zero_tol"]
    # kernel eigenvalue is a second-order discretization artifact
    ratio = abs(d4["mode0_kernel_eig"] / d8["mode0_kernel_eig"])
    assert 3.0 < ratio < 5.3
    # ell = 2 floor stable under refinement
    assert d4["mode2_min_eig"] == pytest.approx(d8["mode2_min_eig"], rel=0.05)


def test_kernel_diagnostics_9_15():
    p = HSParams(9, 1.5)
    d = kernel_diagnostics(p, default_grid(p, N=4000))
    assert d["mode0_near_zero_count"] == 1
    assert d["mode0_negative_count"] == 1
    assert d["mode0_eigvec_alignment_with_Z0"] >= 0.999
    assert d["mode2_min_eig"] > 0.0


def test_kernel_diagnostics_flags_unresolved_grid():
    # (9, 0.5) at modest N: the kernel eigenvalue has not yet sunk below the
    # box floor; the counts must say so rather than pretend the window works.
    p = HSParams(9, 0.5)
    d = kernel_diagnostics(p, default_grid(p, N=8000))
    assert d["mode0_near_zero_count"] == 0
    assert d["mode0_negative_count"] == 2
    # the alignment identification still finds the kernel member
    assert d["mode0_eigvec_alignment_with_Z0"] >= 0.999
    # and a fine enough grid restores the clean structure
    d32 = kernel_diagnostics(p, default_grid(p, N=32000))
    assert d32["mode0_near_zero_count"] == 1
    assert d32["mode0_negative_count"] == 1


def test_sturm_count_against_dense_eigenvalues():
    # exact inertia counts vs numpy's dense solve on a small grid
    import scipy.linalg

    grid = grid71(300)
    mats = assemble_mode(P71, 0, grid)
    A = np.diag(mats.d) + np.diag(mats.e, 1) + np.diag(mats.e, -1)
    M = np.diag(mats.mass)
    vals = scipy.linalg.eigh(A, M, eigvals_only=True)
    for sigma in (-1.0, -1e-3, 0.0, 1e-3, 0.3, 10.0):
        want = int(np.sum(vals < sigma))
        assert _count_eigs_below(mats.d, mats.e, mats.mass, sigma) == want


def _count_eigs_below_numpy_scalars(d, e, mass, sigma):
    # reference: the same LDL^T recurrence, stepped on numpy scalars
    tiny = np.finfo(float).tiny
    q = d[0] - sigma * mass[0]
    count = int(q < 0.0)
    for i in range(1, d.size):
        if q == 0.0:
            q = tiny
        q = (d[i] - sigma * mass[i]) - e[i - 1] ** 2 / q
        count += q < 0.0
    return count


@pytest.mark.parametrize("n,s", [(7, 1.0), (9, 0.5), (7, 1.5), (30, 1.0)])
@pytest.mark.parametrize("N", [2000, 8000])
def test_sturm_count_matches_numpy_scalar_recurrence(n, s, N):
    p = HSParams(n, s)
    grid = default_grid(p, N=N)
    unit = (np.pi / grid.R_max) ** 2
    ztol, win = 0.75 * unit, 100.0 * unit  # kernel_diagnostics defaults
    for ell in (0, 2):
        mats = assemble_mode(p, ell, grid)
        for sigma in (-win, -ztol, 0.0, ztol, win):
            want = _count_eigs_below_numpy_scalars(mats.d, mats.e, mats.mass,
                                                   sigma)
            got = _count_eigs_below(mats.d, mats.e, mats.mass, sigma)
            assert got == want, (ell, sigma)


def test_zero_cell_mass_is_a_numerical_error():
    # (30, 1.5) with gamma = 4 at N = 2000: the first edge 6.25e-12 gives
    # edge**30 below the smallest subnormal, so the first cell mass is 0
    p = HSParams(30, 1.5)
    grid = default_grid(p, N=2000)
    for call in (lambda: assemble_mode(p, 0, grid),
                 lambda: z0_laplacian_load(p, grid),
                 lambda: kernel_diagnostics(p, grid)):
        with pytest.raises(NumericalError, match="cell masses underflow"):
            call()
