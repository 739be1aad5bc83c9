"""Mode-decomposed solver for the linearized critical operator.

The linearization of  u |-> -Delta u - u**(2*(s)-1) r**(-s)  at the standard
bubble U1 acts, on a spherical-harmonic mode of degree ell, as the radial
operator

    L_ell u = -u'' - (n-1)/r u' + ell(ell+n-2)/r**2 u - V(r) u,
    V(r)    = (2*(s)-1) U1(r)**(2*(s)-2) r**(-s)
            = (2*(s)-1) (n-s)(n-2) r**(-s) (1 + r**(2-s))**(-2),

posed on (0, R) with regularity at the origin (u ~ r**ell) and the
decaying-branch Robin closure  u'(R) + ((n-2+ell)/R) u(R) = 0  at the
truncation radius.  Only ell = 0 and ell = 2 occur downstream: the geometric
source W = a U1 + (1/3) T_ij sigma^i sigma^j (r U1') has no other modes, and
L commutes with rotations, so neither does the correction it generates.

The ell = 0 operator has a one-dimensional near-kernel spanned by the
dilation generator Z0 and a single negative direction (the bubble itself);
solvable right-hand sides are those orthogonal to Z0, and the solve is
closed with a bordered (saddle-point) system whose single Lagrange row
enforces discrete gradient-orthogonality to Z0.  The ell = 2 operator is
positive definite and is solved directly.

Discretization: conservative finite volumes on the graded RadialGrid.
Fluxes use cell-edge areas m**(n-1); mass and centrifugal coefficients use
exact cell integrals of r**(n-1) and r**(n-3); the singular potential is
point-sampled except on the first cell, where its integral against
r**(n-1) is computed adaptively (V ~ r**(-s) is integrable but unbounded).
The scheme is second-order on the smoothly graded mesh.

Two exactness properties of this assembly carry the percent-level physics:

  * The discrete load of Delta Z0 (the projection direction) is taken to be
    S z0 -- the pure-stiffness matrix, Robin corner included, applied to the
    sampled Z0 -- rather than a pointwise sampling of the singular function
    (2*(s)-1) U1**(2*(s)-2) r**(-s) Z0.  With this representation the
    multiplier construction cancels a Z0-laplacian right-hand side to
    machine precision instead of to O(h**2), and the bordered constraint
    row, the projection direction, and the multiplier normalizer are all
    built from the same vector, making them exactly adjoint.
  * With loads F_i = -M w_i + mu_i (S z0), any bordered solution pair
    satisfies  w1^T M u2 = -u1^T K u2  identically, so the bilinear pairing
    integral W1 * C(W2) is symmetric at machine precision, not merely to
    discretization order.

The Robin corner (n-2) R**(n-2) in S matches the truncated gradient tail of
any r**(2-n) branch, so z0^T S z0 reproduces the full-space gradient norm of
Z0 up to O(R**(2-n)) relative error.

That bound is for Z0 alone.  The response to W ~ r**(2-n) decays like
r**(4-n), not like the branch the Robin closure fits, so nonlocal_term (and
`lg`, `chat`, `family`/`verdict` without --base-lg) carries a truncation
error of order R_max**(6-n) that refining N does not reduce: with sphere:1
on the default 8000,200 grid, W C(W) is 10% short in magnitude at (n, s) =
(7, 1) and 57% short at (7, 1.5), measured against an R_max-free reference
in log r (ROADMAP.md, open item 2).
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from typing import Optional

import numpy as np

from .bubble import (RadialGrid, RadialProfile, WDecomposition, rdru1,
                     u1, z0)
from .errors import DomainError, NumericalError
from .params import HSParams, Record, sphere_area
from .quadrature import RadialIntegrand, integrate_radial


def _load_lapack():
    """scipy's LAPACK wrappers, without the import tree of scipy.linalg.

    scipy.linalg.lapack re-exports the routines of one extension module,
    scipy/linalg/_flapack<suffix>.  Loading that file alone, found by
    find_spec, spares the about 0.3 s that `import scipy.linalg` spends on
    its other modules and scipy's package init.  It is loaded under its
    real name and registered in sys.modules, so a later scipy.linalg import
    reuses it, and a copy already loaded is reused here.  This relies on
    scipy's private file layout: where no such file exists, or it needs the
    package init (the BLAS set-up of some wheels), scipy.linalg.lapack serves.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("the grid solver needs scipy, which is not installed")
    folder = os.path.join(os.path.dirname(scipy.origin), "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_flapack" + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location(name, path)
            try:
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
            except ImportError:
                break
            sys.modules[name] = module
            return module
    from scipy.linalg import lapack
    return lapack


lapack = _load_lapack()

__all__ = [
    "WDecomposition",
    "ModeSolution",
    "ModeMatrices",
    "potential_values",
    "assemble_mode",
    "z0_laplacian_load",
    "solve_mode",
    "hat_c",
    "nonlocal_term",
    "kernel_diagnostics",
]

# ell = 0 right-hand sides with a larger relative compatibility with Z0
# are refused (see solve_mode)
SOLVABILITY_TOL = 1e-8
# kernel_diagnostics: the near-zero band and the eigenvalue window, in units
# of the box frequency (pi/R_max)**2, and the absolute tolerance of its
# eigenvalue bisection
ZERO_TOL_REL = 0.75
WINDOW_REL = 100.0
EIG_TOL = 1e-14


# --------------------------------------------------------------------------
# domain types


class ModeSolution(Record):
    """Solution of one radial mode problem.

    defect is an a-posteriori consistency residual: an independent
    second-order finite-difference stencil applied to the returned profile,
    measured against the pointwise right-hand side in the mass-weighted RMS
    norm, relative to the same norm of the right-hand side.  It decreases at
    second order under mesh refinement.  algebraic_residual is the relative
    residual of the assembled linear system itself (machine-level for the
    direct solvers used here).

    For ell = 0, lagrange is the bordered multiplier, solvability the
    relative size of the compatibility inner product of the load with Z0
    (checked against the solver tolerance before solving), and
    gradient_orthogonality the achieved relative value of the constraint
    row z0^T S u.
    """

    ell: int
    profile: RadialProfile
    defect: float
    algebraic_residual: float
    lagrange: Optional[float] = None
    solvability: float = 0.0
    gradient_orthogonality: Optional[float] = None


class ModeMatrices(Record):
    """Assembled tridiagonal operators for one mode on one grid.

    Arrays cover the active nodes only: the ell = 2 operator is the ell = 0
    grid past r = 0, the Dirichlet node, and shares its r, mass, e and v.
    d/e: diagonal and subdiagonal of the full operator
    K = S + centrifugal - potential (Robin corner included in S);
    sd: diagonal of the pure-stiffness S alone, whose subdiagonal is e too
    (the centrifugal and potential terms are diagonal);
    mass: lumped (exact) cell masses integral of r**(n-1) over the cell;
    v: V on the nodes, the grid's one V array (inf at r = 0 where s > 0);
    z0, g: ell = 0 only (None for ell = 2), Z0 sampled on the nodes and the
    projection direction g = S z0 (see z0_laplacian_load).  One per mode
    and grid (assemble_mode) and the one home of what no load changes,
    built on first use, so assemble_mode and kernel_diagnostics never
    factor: ds, D = diag(ds) = |diag K|**(-1/2); lu, the gttrf factors of
    D K D (_solve_mode0_bordered says why); for ell = 0 the Keller border
    (col = D g / gscale, gscale = |D g|, b = (D K D)^-1 col, schur = col^T b),
    the node samples U1, r U1', Delta Z0 and z0_scaled, Z0's norms: k,
    z0 * 2**-k (max in [1/2, 1), so its squares stay in range), g * 2**-k,
    ||z0 * 2**-k||_M and z0^T S z0 * 4**-k; for ell = 2 unit2, the
    solution of L_2 c2 = -phi, phi = r U1' / 3, and its pairing with phi;
    the defect's stencil; spectral, the scaled form M**(-1/2) K M**(-1/2)
    as the diagonal and subdiagonal that kernel_diagnostics bisects
    (_bisect: dstebz, each eigenvalue once) and, for ell = 0, hands to
    dstein (_eigvecs), with the M**(-1/2) that back-transforms dstein's
    eigenvectors.
    Every array is read-only.
    """

    p: HSParams
    grid: RadialGrid
    ell: int
    r: np.ndarray
    d: np.ndarray
    e: np.ndarray
    mass: np.ndarray
    sd: np.ndarray
    v: np.ndarray
    z0: Optional[np.ndarray] = None
    g: Optional[np.ndarray] = None

    @functools.cached_property
    def ds(self) -> np.ndarray:
        return _frozen(
            1.0 / np.sqrt(np.maximum(np.abs(self.d), np.finfo(float).tiny)))[0]

    @functools.cached_property
    def lu(self) -> tuple:
        ds = self.ds
        with np.errstate(invalid="ignore", over="ignore"):  # refused below
            es, dd = self.e * ds[:-1] * ds[1:], self.d * ds * ds
        if not np.all(np.isfinite(np.concatenate((es, dd)))):
            raise NumericalError(
                f"ell = {self.ell} banded solve failed: the scaled operator "
                "is not finite")
        *lu, info = lapack.dgttrf(es, dd, es)
        if info > 0:
            raise NumericalError(
                f"ell = {self.ell} banded solve failed: singular matrix")
        return _frozen(*lu)

    @functools.cached_property
    def border(self) -> tuple:
        gs = self.g * self.ds
        gscale = float(np.linalg.norm(gs))
        if gscale == 0.0 or not np.isfinite(gscale):
            raise NumericalError("degenerate projection direction in ell = 0 solve")
        col = gs / gscale
        b = _gttrs(self, col)
        schur = float(col @ b)
        if schur == 0.0:
            raise NumericalError("bordered ell = 0 system is singular")
        return _frozen(col, gscale, b, schur)

    @functools.cached_property
    def samples(self) -> tuple:
        p, r = self.p, self.r
        # pointwise Delta Z0 = V Z0 for the defect; integrably singular at
        # r = 0, a node the defect skips
        dz = self.v * self.z0
        dz[0] = 0.0
        return _frozen(u1(p, r), rdru1(p, r), dz)

    @functools.cached_property
    def z0_scaled(self) -> tuple:
        k = int(np.frexp(np.max(np.abs(self.z0)))[1])
        zs, gs = np.ldexp(self.z0, -k), np.ldexp(self.g, -k)
        return _frozen(k, zs, gs, float(np.sqrt(np.sum(self.mass * zs**2))),
                       float(zs @ gs))

    @functools.cached_property
    def unit2(self) -> tuple:
        # phi = r U1' / 3 from the ell = 0 samples, past r = 0
        phi = assemble_mode(self.p, 0, self.grid).samples[1][1:] / 3.0
        with np.errstate(over="ignore"):
            load = self.mass * -phi
        sol = solve_mode(self.p, 2, None, self.grid, rhs_load=load,
                         rhs_values=-phi)
        c2 = _frozen(sol.profile.values)[0]
        return sol, float(np.sum(self.mass * phi * c2[1:]))

    @functools.cached_property
    def spectral(self) -> tuple:
        inv_sqrt_m = 1.0 / np.sqrt(self.mass)
        with np.errstate(over="ignore", invalid="ignore"):
            dt = self.d * inv_sqrt_m**2
            et = self.e * inv_sqrt_m[:-1] * inv_sqrt_m[1:]
        if not (np.all(np.isfinite(dt)) and np.all(np.isfinite(et))):
            raise NumericalError("scaled operator overflows for this grid")
        return _frozen(dt, et, inv_sqrt_m)

    @functools.cached_property
    def stencil(self) -> tuple:
        r, n, ell = self.r, self.p.n, self.ell
        # active arrays may or may not include r = 0; FD only on strict interior
        i0 = 1 if r[0] == 0.0 else 0
        ri = r[i0 + 1:-1]
        hm, hp = r[i0 + 1:-1] - r[i0:-2], r[i0 + 2:] - r[i0 + 1:-1]
        cent = float(ell * (ell + n - 2)) / ri**2 if ell else None
        return _frozen(i0, hm, hp, hm / (hp * (hp + hm)), (hp - hm) / (hp * hm),
                       hp / (hm * (hp + hm)), (n - 1.0) / ri,
                       self.v[i0 + 1:-1], cent)


def _frozen(*values) -> tuple:
    """values, with every array among them made read-only."""
    for v in values:
        if isinstance(v, np.ndarray):
            v.flags.writeable = False
    return values


# --------------------------------------------------------------------------
# assembly


def potential_values(p: HSParams, r):
    """V(r) = (2*(s)-1)(n-s)(n-2) r**(-s) (1+r**(2-s))**(-2), for r > 0."""
    s = p.s
    r = np.asarray(r, dtype=float)
    with np.errstate(divide="ignore"):
        return p.potential_amp * r ** (-s) * (1.0 + r ** (2.0 - s)) ** (-2.0)


def _first_cell_potential_mass(p: HSParams, m_edge: float) -> float:
    """Exact integral of V(r) r**(n-1) over the first cell [0, m_edge].

    The integrand ~ r**(n-1-s) near 0 is integrable for every s < 2; the
    graded first cell is far too small for point sampling, so integrate
    adaptively (cost: one tiny one-dimensional quadrature per ell = 0
    assembly).
    """
    s = p.s
    out = integrate_radial(RadialIntegrand(
        f=lambda r: (1.0 + r ** (2.0 - s)) ** (-2.0), a=float(p.n - 1) - s,
        R=m_edge), tol=1e-13)
    return p.potential_amp * out["value"]


@functools.lru_cache(maxsize=2)
def assemble_mode(p: HSParams, ell: int, grid: RadialGrid) -> ModeMatrices:
    """Assemble the tridiagonal finite-volume operator for one mode.

    The one place a mode operator is built.  Memoized on (p, ell, grid):
    the two entries hold both modes of the latest grid, so every solve and
    diagnostic on that grid shares one assembly and what it builds on first
    use (ModeMatrices).  The ell = 2 operator is the memoized ell = 0 grid
    past r = 0, so each grid, and the refusals below, are built once, on
    the ell = 0 path.  A strong grading can put the first edges so close
    to 0 that edge**n underflows, and a huge R_max makes it overflow; every
    solve and spectral diagnostic divides by the cell masses, so a zero or
    non-finite mass or flux is refused here, and so are nodes that are not
    strictly increasing (a subnormal R_max, or a grading whose first nodes
    underflow to 0), whose zero gaps would make the fluxes infinite.  A
    grid ending inside the profile's core is a DomainError.
    """
    if ell not in (0, 2):
        raise DomainError(f"ell must be 0 or 2, got {ell}")
    n, R = p.n, grid.R_max
    if ell == 2:
        # the ell = 0 grid past r = 0, whose flux into node 0 stays in the
        # node-1 diagonal (Dirichlet); the Robin corner and the centrifugal
        # cell integrals of r**(n-3) are its own
        m0 = assemble_mode(p, 0, grid)
        r, mass, v = m0.r[1:], m0.mass[1:], m0.v[1:]
        sd = m0.sd[1:].copy()
        sd[-1] = -m0.e[-1] + float(n) * R ** (n - 2)
        edges = np.append(0.5 * (m0.r[1:] + m0.r[:-1]), R)
        cent = float(2 * n) * (np.diff(edges ** (n - 2)) / (n - 2))
        mats = ModeMatrices(p=p, grid=grid, ell=2, r=r, d=sd + cent - v * mass,
                            e=m0.e[1:], mass=mass, sd=sd, v=v)
        _frozen(*vars(mats).values())
        return mats

    r = grid.nodes
    gaps = np.diff(r)
    zero_gaps = int(np.sum(gaps <= 0.0))
    if zero_gaps:
        raise NumericalError(
            f"grid nodes are not strictly increasing: {zero_gaps} of the "
            f"{grid.N} node gaps underflow to 0 (R_max = {R!r}, N = "
            f"{grid.N}, gamma = {grid.gamma}); increase R_max, or reduce "
            "the grading or N")
    edges = np.concatenate([[0.0], 0.5 * (r[1:] + r[:-1]), [R]])
    with np.errstate(over="ignore", invalid="ignore"):
        mass = np.diff(edges**n) / n
        # flux coefficients a_{i+1/2} = m_{i+1/2}**(n-1) / (r_{i+1} - r_i)
        flux = edges[1:-1] ** (n - 1) / gaps
    if not (np.all(np.isfinite(mass)) and np.all(np.isfinite(flux))):
        raise NumericalError(
            f"cell masses or fluxes overflow a float on this grid "
            f"(R_max = {R!r}, N = {grid.N}, n = {n}); reduce R_max")
    if np.any(mass == 0.0):
        # the outermost mass is the largest; it is 0 where R_max**n underflows
        remedy = "increase R_max (R_max**n underflows)" if mass[-1] == 0.0 \
            else "reduce the grading or N"
        raise NumericalError(
            f"cell masses underflow to 0 on this grid (gamma = {grid.gamma}, "
            f"N = {grid.N}, first edge radius {edges[1]:.3e}); {remedy}")
    log_core = -p.log_scale  # in logs: none overflows
    if math.log(R) < log_core:  # the inner radius of power_law_breaks
        raise DomainError(f"the grid ends at R_max = {R!r}, inside the "
                          f"bubble's core of radius {math.exp(log_core):.3g}")

    sd = np.zeros(r.size)
    sd[:-1] += flux
    sd[1:] += flux
    sd[-1] += (n - 2.0) * R ** (n - 2)  # Robin closure, decaying branch
    e = -flux
    v = potential_values(p, r)
    pot = np.concatenate([[_first_cell_potential_mass(p, edges[1])],
                          v[1:] * mass[1:]])
    zs = z0(p, r)
    mats = ModeMatrices(p=p, grid=grid, ell=0, r=r, d=sd - pot, e=e, mass=mass,
                        sd=sd, v=v, z0=zs, g=_apply_tridiag(sd, e, zs))
    _frozen(*vars(mats).values())
    return mats


def _apply_tridiag(d: np.ndarray, e: np.ndarray, x: np.ndarray) -> np.ndarray:
    y = d * x
    y[:-1] += e * x[1:]
    y[1:] += e * x[:-1]
    return y


def z0_laplacian_load(p: HSParams, grid: RadialGrid) -> np.ndarray:
    """Discrete load vector of Delta Z0 for the ell = 0 problem: S z0.

    Weak form: integral (Delta Z0) v r**(n-1) dr = z0^T S v including the
    Robin corner, because Z0's far field is exactly the r**(2-n) branch the
    Robin row encodes.  This is the projection direction used by hat_c; a
    right-hand side built from it cancels identically in the projected
    equation (the exact-cancellation property of the construction).
    """
    return assemble_mode(p, 0, grid).g


# --------------------------------------------------------------------------
# defect measurement


def _ratio(num: float, den: float) -> float:
    """num / den, num where den = 0; nan where either is not finite."""
    if not (math.isfinite(num) and math.isfinite(den)):
        return math.nan
    return num / den if den > 0.0 else num


def _fd_defect(mats: ModeMatrices, u: np.ndarray, f: np.ndarray) -> float:
    """Mass-weighted RMS residual of an independent 3-point FD operator.

    The stencil is the standard nonuniform second-order one (second order on
    the smoothly graded mesh), applied on interior nodes with r > 0; the
    result is normalized by the same norm of the right-hand side.  This is
    deliberately NOT the scheme used to solve, so it measures consistency of
    the returned profile, not how well the linear algebra was done.
    """
    i0, hm, hp, wp, wc, wm, a1, pot, cent = mats.stencil
    um, uc, up = u[i0:-2], u[i0 + 1:-1], u[i0 + 2:]
    d2 = 2.0 * ((up - uc) / hp - (uc - um) / hm) / (hp + hm)
    d1 = wp * up + wc * uc - wm * um
    lhs = -d2 - a1 * d1 - pot * uc
    if cent is not None:
        lhs = lhs + cent * uc
    res = lhs - f[i0 + 1:-1]
    w = mats.mass[i0 + 1:-1]
    return _ratio(float(np.sqrt(np.sum(w * res**2))),
                  float(np.sqrt(np.sum(w * f[i0 + 1:-1]**2))))


# --------------------------------------------------------------------------
# solvers


def _gttrs(mats: ModeMatrices, rhs: np.ndarray) -> np.ndarray:
    """(D K D)^-1 rhs from the kept factors: one LAPACK gttrs."""
    return lapack.dgttrs(*mats.lu, rhs)[0]


def _solve_mode0_bordered(mats: ModeMatrices,
                          load: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve [[K, g], [g^T, 0]] [u, lam] = [load, 0] by block elimination.

    The border removes the near-null Z0 direction (g is never orthogonal to
    it), so the bordered matrix is well conditioned on the constraint
    subspace even though K itself is nearly singular.

    Equilibration: the graded mesh makes the row scales span ~30 orders of
    magnitude (first-cell fluxes are ~r1**(n-1)); a pivoted factorization
    then satisfies the origin rows only to a norm-wise backward error, which
    permits enormous spurious solution components there.  Symmetric
    diagonal scaling K_s = D K D with D = |diag K|**(-1/2) restores
    componentwise accuracy.  The border column becomes D g / gscale, so
    every border right-hand side must be divided by the same gscale.

    Elimination (Keller's bordering method): K_s [a, b] = [D load,
    D g / gscale], then the border row fixes the multiplier.  Only a depends
    on the load; the factors of K_s, b and the Schur scalar are kept on the
    grid's ModeMatrices, so a solve is one gttrs.  K_s is nearly singular, so
    a and b carry large near-kernel components that cancel only to roundoff
    relative to their size; one refinement pass (one more gttrs) on the
    residual of the full bordered system brings the result to machine level
    (Govaerts & Pryce, IMA J. Numer. Anal. 13, 1993).
    """
    (col, gscale, b, schur), ds = mats.border, mats.ds

    def solve_scaled(rhs_u: np.ndarray, rhs_c: float):
        a = _gttrs(mats, rhs_u * ds)
        mu = (float(col @ a) - rhs_c / gscale) / schur
        return (a - mu * b) * ds, mu / gscale

    u, lam = solve_scaled(load, 0.0)
    # one refinement pass in the original (unscaled) variables
    res_u = load - (_apply_tridiag(mats.d, mats.e, u) + lam * mats.g)
    res_c = -float(mats.g @ u)
    du, dlam = solve_scaled(res_u, res_c)
    return u + du, lam + dlam


def _solve_load(mats: ModeMatrices, load: np.ndarray,
                fvals: Optional[np.ndarray]) -> Optional[tuple]:
    """u, the multiplier, solvability, gradient orthogonality, algebraic
    residual and defect for one load and its pointwise values (None: load /
    mass), as solve_mode reports them; None where a norm, a pairing or the
    solution leaves the float range."""
    lagrange, solvability, grad_ortho = None, 0.0, None
    if mats.ell == 0:
        _, zs, gs, zn, zsz = mats.z0_scaled
        solvability = _ratio(abs(float(zs @ load)), zn * float(
            np.sqrt(np.sum(load**2 / mats.mass))))
        if solvability > SOLVABILITY_TOL:
            raise DomainError(
                "ell = 0 right-hand side is not orthogonal to the kernel "
                f"direction Z0: relative compatibility {solvability:.3e} "
                f"exceeds {SOLVABILITY_TOL:.1e}"
            )
        if math.isnan(solvability):
            return None
        u, lagrange = _solve_mode0_bordered(mats, load)
        un = float(np.sqrt(abs(u @ _apply_tridiag(mats.sd, mats.e, u))))
        grad_ortho = _ratio(abs(float(gs @ u)), math.sqrt(zsz) * un)
        resid = _apply_tridiag(mats.d, mats.e, u) + lagrange * mats.g - load
    else:
        u = mats.ds * _gttrs(mats, load * mats.ds)
        resid = _apply_tridiag(mats.d, mats.e, u) - load
    algebraic = _ratio(float(np.linalg.norm(resid)),
                       float(np.linalg.norm(load)))
    defect = _fd_defect(mats, u, load / mats.mass if fvals is None else fvals)
    if math.isnan(algebraic + defect + (grad_ortho or 0.0)):
        return None
    return u, lagrange, solvability, grad_ortho, algebraic, defect


def solve_mode(p: HSParams, ell: int, rhs, grid: RadialGrid, *,
               rhs_load: Optional[np.ndarray] = None,
               rhs_values: Optional[np.ndarray] = None) -> ModeSolution:
    """Solve one radial mode problem L_ell u = rhs on the grid.

    rhs is a RadialProfile; its samples become a consistent load M rhs.
    Alternatively a precomputed load vector over the active nodes can be
    passed as rhs_load (pass rhs=None then), which is how the exactly
    projected right-hand sides are represented.
    rhs_values optionally supplies pointwise right-hand side samples on the
    active nodes for the defect measurement when a load was given.

    ell = 0 right-hand sides must satisfy the discrete solvability condition
    |<load, z0>| <= SOLVABILITY_TOL * ||z0||_M ||load||_(M^-1); the solve is
    then performed in bordered form, enforcing gradient-orthogonality to Z0.

    Where a norm, a pairing or the solution leaves the float range, the
    solve runs once more on load * 2**-k (max in [1/2, 1)) and scales the
    profile and the multiplier back: a power of two moves no bit, so every
    reported ratio keeps the bits an unbounded float would give.  A
    solution out of range once scaled back is a NumericalError.
    """
    mats = assemble_mode(p, ell, grid)
    if rhs_load is not None:
        load = np.asarray(rhs_load, dtype=float)
        if load.shape != mats.r.shape:
            raise DomainError("rhs_load does not match the active grid nodes")
        fvals = None if rhs_values is None else np.asarray(rhs_values,
                                                           dtype=float)
    else:
        if rhs is None:
            raise DomainError("either rhs or rhs_load must be given")
        full = np.asarray(rhs.on(grid), dtype=float)
        fvals = full[1:] if ell == 2 else full
        if not np.all(np.isfinite(fvals)):
            raise DomainError("rhs evaluates to non-finite values on the grid")
        with np.errstate(over="ignore"):
            load = mats.mass * fvals

    with np.errstate(over="ignore", invalid="ignore"):
        out = _solve_load(mats, load, fvals)
        if out is None:
            k = int(np.frexp(np.max(np.abs(load)))[1])
            out = _solve_load(mats, np.ldexp(load, -k),
                              None if fvals is None else np.ldexp(fvals, -k))
            if out is not None:  # lagrange: None at ell = 2
                out = (np.ldexp(out[0], k),
                       out[1] and float(np.ldexp(out[1], k)), *out[2:])
            if out is None or not (np.all(np.isfinite(out[0]))
                                   and math.isfinite(out[1] or 0.0)):
                raise NumericalError(
                    f"the ell = {ell} load (max |load| = "
                    f"{np.max(np.abs(load)):.3e}) or its solution leaves "
                    "the float range")
    u, lagrange, solvability, grad_ortho, algebraic, defect = out

    vals = np.concatenate([[0.0], u]) if ell == 2 else u  # Dirichlet at r = 0
    return ModeSolution(ell=ell, profile=RadialProfile.from_samples(grid, vals),
                        defect=defect, algebraic_residual=algebraic,
                        lagrange=lagrange, solvability=solvability,
                        gradient_orthogonality=grad_ortho)


# --------------------------------------------------------------------------
# the projected correction and its pairing


def hat_c(p: HSParams, w: WDecomposition, grid: RadialGrid) -> dict:
    """Radial mode profiles of the projected correction C.

    mode0 solves  L_0 u = -(a U1 + mode0_extra r U1') + mu Delta Z0  with
    mu = <W, Z0> / |grad Z0|^2 computed from the same discrete objects that
    build the load (so the solvability condition holds identically);
    mode2 solves  L_2 u = -(1/3) r U1'  per unit trace-free amplitude (the
    tensor contraction is applied later, in nonlocal_term), once per grid.
    multiplier is mu, w0 the ell = 0 source a U1 + mode0_extra r U1' on the
    nodes and pair2 the ell = 2 pairing integral of nonlocal_term.
    """
    m0 = assemble_mode(p, 0, grid)
    m0.border  # a bad grid is reported before a bad source
    u1s, rdru1s, dz = m0.samples
    k, zs, gs, _, zsz = m0.z0_scaled
    with np.errstate(all="ignore"):
        w0 = w.a * u1s + w.mode0_extra * rdru1s
        load_w = m0.mass * w0
        # mu * 2**k, whose product with g * 2**-k is mu g to the bit
        mu = float(zs @ load_w) / zsz
        load, mu = -load_w + mu * gs, float(np.ldexp(mu, -k))
        fvals = -w0 + mu * dz
    if not (np.all(np.isfinite(load)) and np.all(np.isfinite(fvals))):
        raise NumericalError(
            f"the ell = 0 source with a = {w.a!r}, mode0_extra = "
            f"{w.mode0_extra!r} and its projection leave the float range")
    mode0 = solve_mode(p, 0, None, grid, rhs_load=load, rhs_values=fvals)
    mode2, pair2 = assemble_mode(p, 2, grid).unit2
    return {"mode0": mode0, "mode2": mode2, "multiplier": mu, "w0": w0,
            "pair2": pair2}


def nonlocal_term(p: HSParams, w: WDecomposition, grid: RadialGrid, *,
                  detail: bool = False):
    """The quadratic pairing integral W * C(W) over all of space.

    Assembled mode by mode (cross terms vanish by harmonic orthogonality):

      ell = 0:  omega_{n-1} * integral (a U1 + e r U1') c0 r**(n-1) dr
      ell = 2:  (2 omega_{n-1} / (n (n+2))) |T|^2 *
                integral phi c2 r**(n-1) dr / with phi = (1/3) r U1' and c2
                the per-unit solution of L_2 c2 = -phi,

    using the trace-free angular identity
    integral over S^(n-1) of (T_ij sigma^i sigma^j)**2 =
    2 omega_{n-1} |T|**2 / (n (n+2)).

    Only the ell = 0 solve depends on W: both modes' factors, the Keller
    border, the node samples and the ell = 2 pairing are kept on the grid's
    ModeMatrices, so a repeat pairing on one grid costs two triangular
    solves (gttrs), the bordered solve and its refinement pass.  A pairing
    beyond the float range is a NumericalError that names W.
    """
    sols = hat_c(p, w, grid)
    omega = sphere_area(p.n)
    mass = assemble_mode(p, 0, grid).mass
    c0 = sols["mode0"].profile.values
    with np.errstate(over="ignore", invalid="ignore"):
        part0 = omega * float(np.sum(mass * sols["w0"] * c0))
    part2 = 2.0 * omega / (p.n * (p.n + 2.0)) * w.t_free_norm2 * sols["pair2"]

    total = part0 + part2
    if not math.isfinite(total):
        raise NumericalError(
            f"the pairing W * C(W) at a = {w.a!r}, mode0_extra = "
            f"{w.mode0_extra!r}, t_free_norm2 = {w.t_free_norm2!r} leaves "
            "the float range")
    if detail:
        return {"total": total, "mode0_part": part0, "mode2_part": part2,
                "multiplier": sols["multiplier"],
                "mode0": sols["mode0"], "mode2": sols["mode2"]}
    return total


# --------------------------------------------------------------------------
# spectral diagnostics


def _bisect(mats: ModeMatrices, lo: float, hi: float, tol: float):
    """LAPACK bisection of the pencil K v = lam M v on lam in (lo, hi].

    dstebz on the scaled form (spectral): exact Sturm counts, immune to the
    huge dynamic range of the graded cells, where shift-invert on the raw
    pencil finds spurious near-zero eigenvalues.  tol = inf counts at lo
    and hi, bisects nothing and returns the count.  A finite absolute tol
    (dstebz's default is relative to the Gershgorin bound, ~1e26 here)
    returns the eigenvalues, their split-off block numbers and the split
    points (dstebz's w, iblock, isplit), in block order, ascending within
    each block.  Each pair costs one bisection.
    """
    dt, et, _ = mats.spectral
    m, w, iblock, isplit, info = lapack.dstebz(dt, et, 1, lo, hi, 0, 0, tol,
                                               "B")
    if info:
        raise NumericalError(f"eigen-diagnostic failed: dstebz info = {info}")
    if tol == np.inf:
        return int(m)
    return w[:m], iblock[:m], isplit


def _eigvecs(mats: ModeMatrices, vals: np.ndarray, blocks: np.ndarray,
             isplit: np.ndarray) -> np.ndarray:
    """dstein's eigenvectors for eigenvalues in _bisect's block order,
    back-transformed by M**(-1/2), so jointly M-orthonormal."""
    dt, et, inv_sqrt_m = mats.spectral
    iblock = np.zeros_like(isplit)  # dstein reads blocks[:m] of n entries
    iblock[:vals.size] = blocks
    y, info = lapack.dstein(dt, et, vals, iblock, isplit)
    if info:
        raise NumericalError(f"eigen-diagnostic failed: dstein info = {info}")
    return y * inv_sqrt_m[:, None]


def kernel_diagnostics(p: HSParams, grid: RadialGrid) -> dict:
    """Spectral diagnostics of both mode operators.

    Reports what the generalized eigenpairs K v = lam M v inside the window
    |lam| <= win = WINDOW_REL * (pi/R_max)**2 say about each mode.  The
    natural frequency unit is (pi/R)**2: the truncated-domain continuum
    spectrum (the "box modes") starts at about 2-3.5 times it in practice.

    ell = 0 structure: one negative O(1..10) direction (the bubble, outside
    the window), one near-zero eigenvalue whose eigenvector is the discrete
    kernel member Z0, then the box floor.  The kernel pair is identified by
    maximal |alignment| with sampled Z0 in the mass inner product -- its
    eigenvalue is a pure O(h**2) discretization artifact and must be driven
    below the box floor by the grid for the near-zero count to be clean.
    Reported:

      mode0_min_eig      smallest-magnitude eigenvalue in the window
      mode0_kernel_eig   eigenvalue of the alignment-identified kernel pair
      mode0_eigvec_alignment_with_Z0   |<v, Z0>_M| / (||v||_M ||Z0||_M)
      mode0_near_zero_count   exact inertia count in (-zero_tol, zero_tol],
                         zero_tol = ZERO_TOL_REL * (pi/R)**2 (0.75x:
                         under the observed box floor >= 2x at every (n, s)
                         probed, above any adequately resolved kernel eig)
      mode0_negative_count    exact count of eigenvalues <= -zero_tol
                         (1 = the bubble direction, when resolved)
      mode2_min_eig      smallest ell = 2 eigenvalue (positive: no kernel)
      mode2_near_zero_count   expected 0

    Counts and pairs come from one LAPACK path, _bisect on the scaled form
    M**(-1/2) K M**(-1/2), which has the pencil's eigenvalues
    (ModeMatrices.spectral, built once per mode and grid).  The counts are
    dstebz's Sturm counts with an infinite tolerance: exact integers and no
    iterative solver.  The eigenpairs are computed on the sub-window
    (-h_k, h_k], h_k = win/2**k, widened (k -= 1) until it certifies that
    its answer is the full window's, so only the pairs the report needs
    are bisected.  A mode whose near-zero count is at least 1 starts at
    K0 = floor(log2(WINDOW_REL / ZERO_TOL_REL)), the smallest dyadic
    sub-window that covers the zero band (h_K0 >= zero_tol); any other
    mode starts at k = 4.  Each widening bisects only the two annuli it
    adds, (-h_(k-1), -h_k] and (h_k, h_(k-1)], and merges their pairs with
    those it holds in dstebz's block order, so every pair is bisected once.
    As h_k >= zero_tol, a mode whose negative count is 0 has nothing in the
    negative annulus and skips it.  For ell = 0, dstein then runs on the
    merged set, so the alignments are those of jointly M-orthonormal
    vectors.  The certificates:

      ell = 0  the sub-window is non-empty, so it holds the full window's
               smallest-|lam| pair, and its best Z0 alignment a has
               a**2 > 1/2; the eigenvectors are M-orthonormal, so the
               squared alignments of all pairs sum to 1 and no pair outside
               can align better;
      ell = 2  the sub-window is non-empty and no eigenvalue lies below
               -zero_tol; h_k >= min(win/16, h_K0) >= zero_tol, so the
               smallest eigenvalue of the full window lies inside.

    At k = 0 the full window answers, certified or not.  After dstebz's
    first split at 0 each sub-window and each annulus is a node of the full
    window's bisection tree, and dstebz bisects a node the same way
    wherever it starts, so the values are those the full window gives (to
    roundoff on coarse grids, whose Gershgorin interval the window leaves).
    The minimum and the arg-extrema need no sorting, so they are read from
    the block order.  "No eigenvalues inside the diagnostic window" is
    raised only when the full window is empty.

    s = 0 is refused before anything is assembled: there the window misses
    the kernel pair (Z0 alignment 4.2e-4 at n = 10, ROADMAP open item 3),
    although both mode operators assemble and solve.
    """
    if p.s == 0.0:
        raise DomainError(
            f"the kernel diagnostics need s in (0, 2), got s={p.s}: at s = 0 "
            "the eigen-window misses the kernel pair")
    # assembled first: its checks name a grid whose cells leave the float
    # range, on which the unit below can overflow
    modes = [assemble_mode(p, ell, grid) for ell in (0, 2)]
    unit = (np.pi / grid.R_max) ** 2
    ztol = ZERO_TOL_REL * unit
    win = WINDOW_REL * unit
    k0 = math.floor(math.log2(WINDOW_REL / ZERO_TOL_REL))
    out: dict = {"zero_tol": ztol,
                 "grid": {"N": grid.N, "R_max": grid.R_max,
                          "gamma": grid.gamma}}

    for mats in modes:
        ell = mats.ell
        negative = _bisect(mats, -np.inf, -ztol, np.inf)
        near_zero = _bisect(mats, -ztol, ztol, np.inf)
        if ell == 0:
            _, z, _, zn, _ = mats.z0_scaled
        k = k0 if near_zero else 4
        half = win / 2**k
        vals, blocks, isplit = _bisect(mats, -half, half, EIG_TOL)
        while True:
            if ell == 0 and vals.size:
                vecs = _eigvecs(mats, vals, blocks, isplit)
                aligns = np.abs(vecs.T @ (mats.mass * z)) / (
                    zn * np.sqrt(np.sum(mats.mass[:, None] * vecs**2, axis=0))
                )
                kbest = int(np.argmax(aligns))
            # the certificates above; k = 0 is the full window
            if k == 0 or vals.size and (aligns[kbest] ** 2 > 0.5 if ell == 0
                                        else negative == 0):
                break
            k -= 1
            inner, half = half, win / 2**k
            found = [(vals, blocks)]
            if negative:  # else (-half, -inner] is empty: -inner <= -ztol
                found.append(_bisect(mats, -half, -inner, EIG_TOL)[:2])
            found.append(_bisect(mats, inner, half, EIG_TOL)[:2])
            vals, blocks = (np.concatenate(x) for x in zip(*found))
            order = np.lexsort((vals, blocks))  # stable: keeps clusters
            vals, blocks = vals[order], blocks[order]
        if vals.size == 0:
            raise NumericalError(
                f"no ell = {ell} eigenvalues inside the diagnostic window; "
                "the grid badly under-resolves the operator"
            )
        if ell == 0:
            out["mode0_min_eig"] = float(vals[np.argmin(np.abs(vals))])
            out["mode0_kernel_eig"] = float(vals[kbest])
            out["mode0_eigvec_alignment_with_Z0"] = float(aligns[kbest])
            out["mode0_near_zero_count"] = near_zero
            out["mode0_negative_count"] = negative
        else:
            out["mode2_min_eig"] = float(np.min(vals))
            out["mode2_near_zero_count"] = near_zero
    return out
