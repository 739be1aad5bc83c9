"""Tests for the mode-decomposed linearized solver."""

import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import hsbubble
from hsbubble import linearized
from hsbubble.bubble import RadialGrid, RadialProfile, default_grid, rdru1, u1, z0
from hsbubble.errors import DomainError, NumericalError
from hsbubble.geometry import PotentialJet, curvature_preset, lg_total
from hsbubble.linearized import (
    ModeMatrices,
    ModeSolution,
    WDecomposition,
    _bisect,
    _eigvecs,
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
    # s = 0 assembles both modes; only the kernel diagnostics refuse it,
    # before they assemble anything
    p0 = HSParams(7, 0.0)
    assemble_mode.cache_clear()
    with pytest.raises(DomainError, match="kernel diagnostics"):
        kernel_diagnostics(p0, grid)
    assert assemble_mode.cache_info().currsize == 0
    assert all(assemble_mode(p0, ell, grid).mass.size for ell in (0, 2))


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
        out.append(_fd_defect(m2, u, f))
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


def test_sampled_rhs_solves_as_its_callable():
    # a sampled profile is a right-hand side too (was a TypeError)
    grid = grid71(1000)
    f = lambda r: -rdru1(P71, r) / 3.0
    called = solve_mode(P71, 2, RadialProfile.from_callable(f), grid)
    sampled = solve_mode(
        P71, 2, RadialProfile.from_samples(grid, f(grid.nodes)), grid)
    np.testing.assert_array_equal(sampled.profile.values,
                                  called.profile.values)
    assert (sampled.defect, sampled.algebraic_residual) == (
        called.defect, called.algebraic_residual)
    with pytest.raises(DomainError, match="sample array does not match"):
        solve_mode(P71, 2, RadialProfile.from_samples(grid71(100),
                                                      f(grid71(100).nodes)),
                   grid)


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
    with pytest.raises(DomainError, match="rhs evaluates to non-finite "
                       "values on the grid"):
        solve_mode(P71, 0, RadialProfile.from_callable(
            lambda r: np.full_like(r, np.nan)), grid)


def test_projected_solve_invariants():
    grid = grid71(4000)
    w = WDecomposition(a=0.7, mode0_extra=0.31, t_free_norm2=2.0)
    sols = hat_c(P71, w, grid)
    s0 = sols["mode0"]
    assert s0.solvability <= 1e-12
    assert s0.gradient_orthogonality <= 1e-10
    assert s0.algebraic_residual <= 1e-8
    assert abs(sols["multiplier"]) > 0.0
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
    lg_total(curvature_preset("sphere:1", 7), PotentialJet(h0=7.5, lap_h=0.0),
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
    # the gttrf factors kept on the memoized ModeMatrices solve bit for bit
    # like scipy's solve_banded (LAPACK gtsv) on the same equilibrated
    # matrix, per column and for a two-column right-hand side
    import scipy.linalg

    p = HSParams(n, s)
    grid = default_grid(p, N=N)
    rng = np.random.default_rng(N)
    for ell in (0, 2):
        mats = assemble_mode(p, ell, grid)
        ds = 1.0 / np.sqrt(np.maximum(np.abs(mats.d), np.finfo(float).tiny))
        assert np.array_equal(mats.ds, ds)
        es = mats.e * ds[:-1] * ds[1:]
        ab = np.array([np.append(0.0, es), mats.d * ds * ds, np.append(es, 0.0)])
        rhs = rng.standard_normal((mats.d.size, 2))
        want = scipy.linalg.solve_banded((1, 1), ab, rhs)
        assert np.array_equal(linearized._gttrs(mats, rhs), want)
        for k in (0, 1):
            got = linearized._gttrs(mats, rhs[:, k])
            assert np.array_equal(got, want[:, k])
            assert np.array_equal(
                got, scipy.linalg.solve_banded((1, 1), ab, rhs[:, k]))
        if ell == 0:
            # the kept border column: the second column of the old
            # two-column solve [D load, col]
            col, _, b, _ = mats.border
            both = scipy.linalg.solve_banded(
                (1, 1), ab, np.column_stack([rhs[:, 0], col]))
            assert np.array_equal(b, both[:, 1])


def _count_lapack(monkeypatch):
    calls = {"dgttrf": 0, "dgttrs": 0}
    for name in calls:
        real = getattr(linearized.lapack, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(linearized.lapack, name, counted)
    return calls


def test_repeat_pairings_factor_once_and_solve_ell2_once(monkeypatch):
    calls = _count_lapack(monkeypatch)
    ell2 = []
    real_solve = linearized.solve_mode
    monkeypatch.setattr(linearized, "solve_mode", lambda p, ell, *a, **k: (
        ell2.append(ell) if ell == 2 else None) or real_solve(p, ell, *a, **k))
    grid = grid71(500)
    assemble_mode.cache_clear()
    rng = np.random.default_rng(3)
    for i in range(4):
        det = nonlocal_term(P71, WDecomposition(*rng.uniform(0.2, 2.0, 3)),
                            grid, detail=True)
        assert calls["dgttrf"] == 2  # one per mode, on the first call
        assert len(ell2) == 1
        # per call: the bordered solve and its refinement pass; the first
        # call also solves the border column and the ell = 2 unit problem
        assert calls["dgttrs"] == 2 * (i + 1) + 2
        assert det["mode2"] is assemble_mode(P71, 2, grid).unit2[0]


def test_kernel_diagnostics_factors_nothing(monkeypatch):
    calls = _count_lapack(monkeypatch)
    assemble_mode.cache_clear()
    grid = grid71(600)
    kernel_diagnostics(P71, grid)
    assemble_mode(P71, 0, grid)
    assert calls == {"dgttrf": 0, "dgttrs": 0}
    # no per-grid solver state was built on either mode
    for ell in (0, 2):
        built = vars(assemble_mode(P71, ell, grid)).keys()
        assert not built & {"ds", "lu", "border", "samples", "unit2", "stencil"}


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
        want.append(run(*case))
    for k in (0, 1, 2, 3, 1, 0, 3, 2, 2, 0):
        assert run(*cases[k]) == want[k], k


def test_factored_arrays_refuse_writes():
    grid = grid71(500)
    sols = hat_c(P71, WDecomposition(0.7, 0.31, 2.0), grid)
    m0, m2 = assemble_mode(P71, 0, grid), assemble_mode(P71, 2, grid)
    # ell = 0 has no centrifugal stencil array
    assert m0.stencil[-1] is None
    arrays = [m0.ds, *m0.lu, m0.border[0], m0.border[2], *m0.samples,
              *m0.z0_scaled[1:3], *m0.stencil[1:-1], *m0.spectral, m2.ds,
              *m2.lu, *m2.stencil[1:], *m2.spectral,
              sols["mode2"].profile.values]
    assert len(arrays) == 41
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0] = 0
    # the per-source arrays stay the caller's
    sols["mode0"].profile.values[0] = 0.0


def test_one_cache_clear_resets_all_per_grid_state(monkeypatch):
    # every per-grid value lives on the memoized ModeMatrices: assemble_mode
    # is the module's one memo, and clearing it rebuilds everything
    memos = [name for name, obj in vars(linearized).items()
             if hasattr(obj, "cache_clear")]
    assert memos == ["assemble_mode"]
    grid = grid71(500)
    w = WDecomposition(0.7, 0.31, 2.0)
    first = nonlocal_term(P71, w, grid, detail=True)
    old = [assemble_mode(P71, ell, grid) for ell in (0, 2)]
    calls = _count_lapack(monkeypatch)
    assemble_mode.cache_clear()
    again = nonlocal_term(P71, w, grid, detail=True)
    new = [assemble_mode(P71, ell, grid) for ell in (0, 2)]
    assert calls["dgttrf"] == 2
    assert new[0] is not old[0] and new[1] is not old[1]
    assert again["mode2"] is new[1].unit2[0]
    assert again["mode2"] is not first["mode2"]
    assert again["total"] == first["total"]


def test_each_grid_and_its_samples_are_built_once(monkeypatch):
    # the ell = 2 operator is the ell = 0 grid past r = 0, V lives on the
    # ModeMatrices, and the ell = 2 source reads r U1' from the ell = 0
    # samples: a pairing and both diagnostics build each of them once
    calls = {"potential_values": 0, "rdru1": 0, "nodes": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("potential_values", "rdru1"):
        monkeypatch.setattr(linearized, name,
                            counted(name, getattr(linearized, name)))
    monkeypatch.setattr(RadialGrid, "nodes",
                        property(counted("nodes", RadialGrid.nodes.fget)))
    assemble_mode.cache_clear()
    grid = grid71(700)
    lg_total(curvature_preset("sphere:1", 7), PotentialJet(1.0, 0.0),
             P71, grid)
    kernel_diagnostics(P71, grid)
    assert calls == {"potential_values": 1, "rdru1": 1, "nodes": 1}


def test_cli_import_leaves_scipy_sparse_out():
    # only hsbubble.linearized imports scipy, and the CLI imports it only in
    # the subcommands that solve, so importing the CLI loads no scipy module
    # at all (scipy.sparse is not used anywhere)
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


def _scaled_source(j):
    return WDecomposition(0.7 * 2.0**j, 0.31 * 2.0**j, 2.0 * 4.0**j)


def _assert_scales_exactly(p, grid, j):
    # a power of two moves no bit: C(2**j W) = 2**j C(W), the pairing
    # scales by 4**j, and every ratio the solve reports keeps its bits
    base, big = (nonlocal_term(p, _scaled_source(i), grid, detail=True)
                 for i in (0, j))
    assert np.array_equal(big["mode0"].profile.values,
                          np.ldexp(base["mode0"].profile.values, j))
    assert big["multiplier"] == np.ldexp(base["multiplier"], j)
    for key in ("defect", "algebraic_residual", "solvability",
                "gradient_orthogonality"):
        assert getattr(big["mode0"], key) == getattr(base["mode0"], key), key
    assert big["total"] == np.ldexp(base["total"], 2 * j)


@pytest.mark.parametrize("n,s,N", [(7, 1.5, 1000), (7, 1.0, 2000)])
@pytest.mark.parametrize("j", [-300, -1, 1, 300])
def test_solve_is_exactly_homogeneous_in_the_source(n, s, N, j):
    p = HSParams(n, s)
    _assert_scales_exactly(p, default_grid(p, N=N, R_max=200.0), j)


def test_hat_c_diagnostics_are_scale_free_where_squares_overflow():
    # from j = 482 the load's norms overflow (were refused), and the solve
    # runs on load * 2**-k; at j = 491 the solve still answers, but the
    # pairing, 4**491 times the base -4.4e12, overflows (was -inf, with no
    # warning) and is refused by its source
    p = HSParams(7, 1.5)
    grid = default_grid(p, N=1000, R_max=200.0)
    for j in (482, 490):
        _assert_scales_exactly(p, grid, j)
    w = _scaled_source(491)
    with pytest.raises(NumericalError, match=re.escape(
            f"the pairing W * C(W) at a = {w.a!r}, mode0_extra = "
            f"{w.mode0_extra!r}, t_free_norm2 = {w.t_free_norm2!r} leaves "
            "the float range")):
        nonlocal_term(p, w, grid)


def test_solution_beyond_the_float_range_is_a_numerical_error():
    # a finite load whose solution overflows even rescaled is refused as a
    # NumericalError, before RadialProfile's DomainError for a non-finite
    # profile
    grid = grid71(500)
    load = np.full(assemble_mode(P71, 2, grid).r.shape, 2.0**1000)
    with pytest.raises(NumericalError, match=r"the ell = 2 load \(max "
                       r"\|load\| = 1\.072e\+301\) or its solution leaves "
                       r"the float range"):
        solve_mode(P71, 2, None, grid, rhs_load=load)


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


def _full_window_diagnostics(p, grid):
    # every pair of the full window |lam| <= win, bisected in one call
    unit = (np.pi / grid.R_max) ** 2
    ztol, win = linearized.ZERO_TOL_REL * unit, linearized.WINDOW_REL * unit
    m0, m2 = assemble_mode(p, 0, grid), assemble_mode(p, 2, grid)
    vals, blocks, isplit = _bisect(m0, -win, win, linearized.EIG_TOL)
    vecs = _eigvecs(m0, vals, blocks, isplit)
    aligns = np.abs(vecs.T @ (m0.mass * m0.z0)) / (
        np.sqrt(np.sum(m0.mass * m0.z0**2))
        * np.sqrt(np.sum(m0.mass[:, None] * vecs**2, axis=0)))
    kbest = int(np.argmax(aligns))
    vals2, _, _ = _bisect(m2, -win, win, linearized.EIG_TOL)
    return {"mode0_min_eig": vals[np.argmin(np.abs(vals))],
            "mode0_kernel_eig": vals[kbest],
            "mode0_eigvec_alignment_with_Z0": aligns[kbest],
            "mode2_min_eig": np.min(vals2),
            "mode0_near_zero_count": int(np.sum(np.abs(vals) <= ztol)),
            "mode2_near_zero_count": int(np.sum(np.abs(vals2) <= ztol))}


@pytest.mark.parametrize("n,s", [(7, 1.0), (9, 0.5), (7, 1.5), (16, 1.5),
                                 (30, 1.0), (10, 1.0), (7, 0.5), (12, 1.5)])
@pytest.mark.parametrize("N,R_max", [(2000, 200.0), (8000, 200.0), (64, 5.0),
                                     (4000, 200.0)])
def test_kernel_diagnostics_matches_full_window(n, s, N, R_max):
    # at N = 4000, (9, 0.5) widens through k = 2 and (7, 1) starts in the
    # zero band
    p = HSParams(n, s)
    grid = default_grid(p, N=N, R_max=R_max)
    got = kernel_diagnostics(p, grid)
    want = _full_window_diagnostics(p, grid)
    for key in ("mode0_near_zero_count", "mode2_near_zero_count"):
        assert got[key] == want[key], key
    assert got["mode0_eigvec_alignment_with_Z0"] == pytest.approx(
        want["mode0_eigvec_alignment_with_Z0"], rel=1e-14, abs=0.0)
    for key in ("mode0_min_eig", "mode0_kernel_eig", "mode2_min_eig"):
        if N == 64:
            # the window leaves the Gershgorin interval of the coarse
            # operator, so the bisection trees differ at roundoff
            assert got[key] == pytest.approx(want[key], rel=0.0, abs=1e-14)
        else:
            assert got[key] == want[key], key


def test_kernel_diagnostics_ell2_widens_past_a_negative_eigenvalue():
    # (16, 1.5) on 20 nodes to R_max = 20 leaves one ell = 2 eigenvalue
    # below -zero_tol inside the window; the positive pairs of the smaller
    # sub-windows must not stop the widening before it is reached
    p = HSParams(16, 1.5)
    grid = default_grid(p, N=20, R_max=20.0)
    got = kernel_diagnostics(p, grid)["mode2_min_eig"]
    assert got == pytest.approx(_full_window_diagnostics(p, grid)[
        "mode2_min_eig"], rel=1e-14)
    assert got < -(np.pi / 20.0) ** 2
    # both start windows reach past -zero_tol, which the ell = 2
    # certificate relies on: k = 4, and K0 = 7, the smallest dyadic window
    # that covers the zero band
    assert linearized.WINDOW_REL / 2**4 > linearized.ZERO_TOL_REL
    assert linearized.WINDOW_REL / 2**7 > linearized.ZERO_TOL_REL \
        >= linearized.WINDOW_REL / 2**8


def _spy_bisection(monkeypatch):
    # every dstebz call as (size, lo, hi, tol, pairs) and every dstein
    # call's pair count
    real_stebz = linearized.lapack.dstebz
    real_stein = linearized.lapack.dstein
    calls = {"dstebz": [], "dstein": []}

    def stebz(d, e, rng, lo, hi, il, iu, tol, order):
        out = real_stebz(d, e, rng, lo, hi, il, iu, tol, order)
        calls["dstebz"].append((d.size, lo, hi, tol, out[0]))
        return out

    def stein(d, e, w, iblock, isplit):
        calls["dstein"].append(w.size)
        return real_stein(d, e, w, iblock, isplit)

    monkeypatch.setattr(linearized.lapack, "dstebz", stebz)
    monkeypatch.setattr(linearized.lapack, "dstein", stein)
    return calls


def test_kernel_diagnostics_bisects_at_most_four_pairs_per_mode(monkeypatch):
    calls = _spy_bisection(monkeypatch)
    kernel_diagnostics(P71, grid71(8000))
    pairs = [m for *_, tol, m in calls["dstebz"] if tol < np.inf]
    # one sub-window per mode; the full window holds 10 and 8 pairs
    assert len(pairs) == 2
    assert max(pairs) <= 4
    # ell = 0 starts in the zero band and bisects the kernel pair alone
    assert pairs[0] == 1
    # two Sturm counts per mode, and eigenvectors for ell = 0 alone
    assert [tol for *_, tol, _ in calls["dstebz"]].count(np.inf) == 4
    assert calls["dstein"] == pairs[:1]


@pytest.mark.parametrize("n,s", [(7, 1.0), (9, 0.5), (7, 1.5)])
@pytest.mark.parametrize("N", [2000, 4000, 8000])
def test_kernel_diagnostics_bisects_each_pair_once(monkeypatch, n, s, N):
    # the grid-ladder grids: the windows a mode bisects tile (-h_start,
    # half], widened to (-half, half] unless the Sturm count puts nothing at
    # or below -zero_tol, and hold as many pairs together as the final
    # window (-half, half] does, so no pair is bisected twice
    p = HSParams(n, s)
    grid = default_grid(p, N=N, R_max=200.0)
    ztol = linearized.ZERO_TOL_REL * (np.pi / grid.R_max) ** 2
    modes = [assemble_mode(p, ell, grid) for ell in (0, 2)]
    calls = _spy_bisection(monkeypatch)
    kernel_diagnostics(p, grid)
    windows = [(size, lo, hi, m) for size, lo, hi, tol, m in calls["dstebz"]
               if tol < np.inf]
    for mats in modes:
        mine = [(lo, hi, m) for size, lo, hi, m in windows
                if size == mats.d.size]
        h_start = mine[0][1]
        half = max(hi for _, hi, _ in mine)
        negative = _bisect(mats, -np.inf, -ztol, np.inf)
        tiles = sorted((lo, hi) for lo, hi, _ in mine)
        assert tiles[0][0] == (-half if negative else -h_start), mats.ell
        assert all(a[1] == b[0] for a, b in zip(tiles, tiles[1:]))
        assert tiles[-1][1] == half
        if not negative:
            assert all(hi > -ztol for _, hi, _ in mine), mats.ell
        assert sum(m for *_, m in mine) == _bisect(mats, -half, half,
                                                    np.inf), mats.ell


def test_kernel_diagnostics_widens_until_z0_alignment_certifies(monkeypatch):
    # (9, 0.5) at N = 2000 (the kernel-9-05 golden) has no eigenvalue near
    # zero.  The smallest sub-window holds one box pair whose Z0 alignment is
    # 2.6e-4, no sub-window certifies, and only the full window holds the
    # best-aligned pair, so ell = 0 widens from k = 4 to k = 0, each step
    # bisecting only the two annuli it adds.
    p = HSParams(9, 0.5)
    grid = default_grid(p, N=2000)
    want = _full_window_diagnostics(p, grid)
    mats = assemble_mode(p, 0, grid)
    win = linearized.WINDOW_REL * (np.pi / grid.R_max) ** 2
    vals, blocks, isplit = _bisect(mats, -win / 16, win / 16,
                                   linearized.EIG_TOL)
    v = _eigvecs(mats, vals, blocks, isplit)[:, 0]
    align = abs(v @ (mats.mass * mats.z0)) / np.sqrt(
        np.sum(mats.mass * mats.z0**2) * np.sum(mats.mass * v**2))
    assert vals.size == 1
    assert align == pytest.approx(2.6e-4, rel=0.02)

    calls = _spy_bisection(monkeypatch)
    got = kernel_diagnostics(p, grid)
    windows = [(lo, hi) for size, lo, hi, tol, _ in calls["dstebz"]
               if size == mats.d.size and tol < np.inf]
    assert windows == [(-win / 16, win / 16)] + [
        annulus for k in (3, 2, 1, 0)
        for annulus in ((-win / 2**k, -win / 2**(k + 1)),
                        (win / 2**(k + 1), win / 2**k))]
    # dstein once per step, on every pair held so far
    assert calls["dstein"] == [1, 2, 4, 6, 9]
    for key in ("mode0_min_eig", "mode0_kernel_eig",
                "mode0_eigvec_alignment_with_Z0"):
        assert got[key] == want[key], key
    assert got["mode0_kernel_eig"] == pytest.approx(0.02435, rel=1e-3)
    assert got["mode0_eigvec_alignment_with_Z0"] == pytest.approx(4.03e-3,
                                                                  rel=1e-3)


def test_sturm_count_against_dense_eigenvalues():
    # exact dstebz counts vs scipy's dense pencil solve on small grids; at
    # 64,5 the window leaves the Gershgorin interval of the scaled form
    import scipy.linalg

    for N, R_max in ((300, 200.0), (64, 5.0)):
        grid = default_grid(P71, N=N, R_max=R_max)
        unit = (np.pi / R_max) ** 2
        ztol = linearized.ZERO_TOL_REL * unit
        win = linearized.WINDOW_REL * unit
        ranges = [(-np.inf, -ztol), (-ztol, ztol), (-win, win)] + [
            (-np.inf, sigma) for sigma in (-1.0, -1e-3, 0.0, 1e-3, 0.3, 10.0)]
        for ell in (0, 2):
            mats = assemble_mode(P71, ell, grid)
            A = np.diag(mats.d) + np.diag(mats.e, 1) + np.diag(mats.e, -1)
            vals = scipy.linalg.eigh(A, np.diag(mats.mass), eigvals_only=True)
            for lo, hi in ranges:
                want = int(np.sum((vals > lo) & (vals <= hi)))
                assert _bisect(mats, lo, hi, np.inf) == want, (N, ell, lo, hi)


@pytest.mark.parametrize("n,s", [(7, 1.0), (9, 0.5), (7, 1.5)])
@pytest.mark.parametrize("N", [2000, 4000, 8000])
def test_sturm_count_equals_pairs_of_the_same_window(n, s, N):
    # the grid-ladder grids: count mode and pair mode of one window agree
    p = HSParams(n, s)
    grid = default_grid(p, N=N, R_max=200.0)
    unit = (np.pi / grid.R_max) ** 2
    ranges = [(-linearized.WINDOW_REL * unit / 2**k,
               linearized.WINDOW_REL * unit / 2**k) for k in range(5)] + [
        (-linearized.ZERO_TOL_REL * unit, linearized.ZERO_TOL_REL * unit)]
    for ell in (0, 2):
        mats = assemble_mode(p, ell, grid)
        for lo, hi in ranges:
            vals, blocks, isplit = _bisect(mats, lo, hi, linearized.EIG_TOL)
            assert _bisect(mats, lo, hi, np.inf) == vals.size, (ell, lo)
            assert np.all((vals > lo) & (vals <= hi))
            if ell == 0 and vals.size:
                assert _eigvecs(mats, vals, blocks, isplit).shape == (
                    mats.d.size, vals.size)


@pytest.mark.parametrize("routine", ["dstebz", "dstein", "dgttrf"])
def test_lapack_info_is_a_numerical_error(monkeypatch, routine):
    real = getattr(linearized.lapack, routine)
    monkeypatch.setattr(linearized.lapack, routine,
                        lambda *args: (*real(*args)[:-1], 2))
    if routine == "dgttrf":
        # kernel_diagnostics factors nothing, and a kept factorization
        # would skip dgttrf
        assemble_mode.cache_clear()
        with pytest.raises(NumericalError, match="ell = 0 banded solve "
                           "failed: singular matrix"):
            nonlocal_term(P71, WDecomposition(0.7, 0.31, 2.0), grid71(500))
    else:
        with pytest.raises(NumericalError, match=f"{routine} info = 2"):
            kernel_diagnostics(P71, grid71(2000))


def test_solver_guards_name_their_cause(monkeypatch):
    # the three refusals of the kept ell = 0 factors, each reached from an
    # assembled mode rebuilt with one field replaced
    mats = assemble_mode(P71, 0, grid71(500))

    def replace(mats, **fields):
        return ModeMatrices(**{k: fields.get(k, getattr(mats, k))
                               for k in ModeMatrices._fields})

    d = mats.d.copy()
    d[3] = np.inf
    with pytest.raises(NumericalError, match="ell = 0 banded solve failed: "
                       "the scaled operator is not finite"):
        replace(mats, d=d).lu
    with pytest.raises(NumericalError, match="degenerate projection "
                       "direction in ell = 0 solve"):
        replace(mats, g=np.zeros_like(mats.g)).border
    monkeypatch.setattr(linearized, "_gttrs",
                        lambda mats, rhs: np.zeros_like(rhs))
    with pytest.raises(NumericalError, match="bordered ell = 0 system is "
                       "singular"):
        replace(mats).border


def test_lapack_is_scipys(monkeypatch):
    # the spies above patch the one binding the solver calls through; it is
    # scipy's own LAPACK extension, so each routine is the very function
    # scipy.linalg.lapack exports
    import importlib.machinery
    import importlib.util

    import scipy.linalg

    for name in ("dgttrf", "dgttrs", "dstebz", "dstein"):
        assert getattr(linearized.lapack, name) is \
            getattr(scipy.linalg.lapack, name), name
    assert linearized._load_lapack() is sys.modules["scipy.linalg._flapack"]
    # where scipy's files are laid out otherwise, or the file does not load
    # without scipy's package init, scipy.linalg.lapack serves
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    with monkeypatch.context() as m:
        m.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".none"])
        assert linearized._load_lapack() is scipy.linalg.lapack

    def unloadable(spec):
        raise ImportError(f"{spec.name}: its bundled BLAS is not set up")

    with monkeypatch.context() as m:
        m.setattr(importlib.util, "module_from_spec", unloadable)
        assert linearized._load_lapack() is scipy.linalg.lapack
    # and without scipy the refusal names it
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    with pytest.raises(ImportError, match="needs scipy, which is not installed"):
        linearized._load_lapack()


@pytest.mark.parametrize("p,ell", [(HSParams(9, 0.5), 0), (P71, 2)])
def test_empty_diagnostic_window_is_a_numerical_error(monkeypatch, p, ell):
    # no grid probed leaves the full window empty, so it is narrowed to one
    # box unit: (9, 0.5) at N = 2000 keeps its kernel pair near -100 units
    # and its box pairs above 2, and (7, 1) at N = 8000 keeps only its
    # near-zero ell = 0 pair inside
    monkeypatch.setattr(linearized, "WINDOW_REL", 1.0)
    grid = default_grid(p, N=2000 if ell == 0 else 8000)
    with pytest.raises(NumericalError, match=f"no ell = {ell} eigenvalues "
                       "inside the diagnostic window"):
        kernel_diagnostics(p, grid)


def test_kernel_alignment_where_z0_norm_overflows():
    # (16, 1.9) on 8 cells: Z0 reaches 1e119 and ||Z0||_M overflows (was an
    # overflow RuntimeWarning and an alignment of 0.0); the alignment does
    # not depend on Z0's scale, so it is taken with Z0 / max|Z0|
    p = HSParams(16, 1.9)
    grid = default_grid(p, N=8, R_max=200.0)
    assert np.max(np.abs(assemble_mode(p, 0, grid).z0)) > 1e100
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = kernel_diagnostics(p, grid)
    assert 0.0 < d["mode0_eigvec_alignment_with_Z0"] <= 1.0


def test_kernel_alignment_is_the_same_with_z0_rescaled(monkeypatch):
    # Z0's norms are kept for Z0 * 2**-k; where ||Z0||_M is finite, the
    # alignment formed with the unscaled Z0 has the same bits
    grid = grid71(2000)
    assert assemble_mode(P71, 0, grid).z0_scaled[0] == 14
    got = kernel_diagnostics(P71, grid)
    monkeypatch.setattr(linearized.ModeMatrices, "z0_scaled", property(
        lambda m: (0, m.z0, m.g, float(np.sqrt(np.sum(m.mass * m.z0**2))),
                   float(m.z0 @ m.g))))
    want = kernel_diagnostics(P71, grid)
    assert got == want


def _count_eigs_below_numpy_scalars(d, e, mass, sigma):
    # reference: the LDL^T pivot recurrence of the raw pencil K - sigma M,
    # stepped on numpy scalars; its inertia counts eigenvalues below sigma
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
    # on grids too large for a dense oracle, the counts of the scaled form
    # match the inertia of the unscaled pencil
    p = HSParams(n, s)
    grid = default_grid(p, N=N)
    unit = (np.pi / grid.R_max) ** 2
    ztol, win = 0.75 * unit, 100.0 * unit  # kernel_diagnostics defaults
    for ell in (0, 2):
        mats = assemble_mode(p, ell, grid)
        below = {sigma: _count_eigs_below_numpy_scalars(mats.d, mats.e,
                                                        mats.mass, sigma)
                 for sigma in (-win, -ztol, 0.0, ztol, win)}
        for sigma, want in below.items():
            assert _bisect(mats, -np.inf, sigma, np.inf) == want, (ell, sigma)
        assert _bisect(mats, -ztol, ztol, np.inf) == \
            below[ztol] - below[-ztol]


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
