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
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .bubble import RadialGrid, RadialProfile, rdru1, u1, z0
from .errors import DomainError, NumericalError
from .params import HSParams
from .quadrature import RadialIntegrand, integrate_radial

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
# of the box frequency (pi/R_max)**2
ZERO_TOL_REL = 0.75
WINDOW_REL = 100.0


# --------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class WDecomposition:
    """Mode decomposition of the geometric source W.

    W(x) = a U1(r) + (1/3) T_ij sigma^i sigma^j (r U1'(r)) + mode0_extra
    after splitting the full quadratic-coefficient contraction into its
    spherical mean (which joins the radial mode) and its trace-free part T:

      a           -- amplitude of the U1 component (a potential value, or
                     c_ns * scalar curvature, depending on the caller);
      mode0_extra -- radial amplitude multiplying r dU1/dr (the spherical
                     mean of the contraction, e.g. Scal/(3n));
      t_free_norm2-- |T|**2 for the trace-free part T = Ric - (Scal/n) g.
                     Only |T|**2 enters any rotationally invariant output.
    """

    a: float
    mode0_extra: float
    t_free_norm2: float

    def __post_init__(self):
        for name in ("a", "mode0_extra", "t_free_norm2"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise DomainError(
                    f"WDecomposition field {name!r} must be finite, got {v!r}")
        if self.t_free_norm2 < 0.0:
            raise DomainError(
                f"t_free_norm2 must be >= 0, got {self.t_free_norm2}"
            )


@dataclass(frozen=True)
class ModeSolution:
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
    row z0^T S u.  multiplier is the projection coefficient mu used to
    build the right-hand side when the solve came from hat_c, else None.
    """

    ell: int
    profile: RadialProfile
    defect: float
    algebraic_residual: float
    lagrange: Optional[float] = None
    solvability: float = 0.0
    gradient_orthogonality: Optional[float] = None
    multiplier: Optional[float] = None


@dataclass(frozen=True)
class ModeMatrices:
    """Assembled tridiagonal operators for one mode on one grid.

    Arrays cover the active nodes only (ell = 2 drops the Dirichlet node at
    r = 0; ell = 0 keeps it).  d/e: diagonal and subdiagonal of the full
    operator K = S + centrifugal - potential (Robin corner included in S);
    sd: diagonal of the pure-stiffness S alone, whose subdiagonal is e too
    (the centrifugal and potential terms are diagonal);
    mass: lumped (exact) cell masses integral of r**(n-1) over the cell;
    z0, g: ell = 0 only (None for ell = 2), Z0 sampled on the nodes and the
    projection direction g = S z0 (see z0_laplacian_load).  One per mode
    and grid (assemble_mode); the first solve caches the factors, border and
    node samples that every later solve on the grid reuses (_factored).
    """

    ell: int
    r: np.ndarray
    d: np.ndarray
    e: np.ndarray
    mass: np.ndarray
    sd: np.ndarray
    z0: Optional[np.ndarray] = None
    g: Optional[np.ndarray] = None


# --------------------------------------------------------------------------
# assembly


def potential_values(p: HSParams, r):
    """V(r) = (2*(s)-1)(n-s)(n-2) r**(-s) (1+r**(2-s))**(-2), for r > 0."""
    n, s = p.n, p.s
    r = np.asarray(r, dtype=float)
    qm1 = p.crit_exp - 1.0
    with np.errstate(divide="ignore"):
        return qm1 * (n - s) * (n - 2.0) * r ** (-s) * (1.0 + r ** (2.0 - s)) ** (-2.0)


def _first_cell_potential_mass(p: HSParams, m_edge: float) -> float:
    """Exact integral of V(r) r**(n-1) over the first cell [0, m_edge].

    The integrand ~ r**(n-1-s) near 0 is integrable for every s < 2; the
    graded first cell is far too small for point sampling, so integrate
    adaptively (cost: one tiny one-dimensional quadrature per ell = 0
    assembly).
    """
    n, s = p.n, p.s
    qm1 = p.crit_exp - 1.0
    pref = qm1 * (n - s) * (n - 2.0)
    out = integrate_radial(
        RadialIntegrand(
            f=lambda r: (1.0 + r ** (2.0 - s)) ** (-2.0),
            a=float(n - 1) - s,
            R=m_edge,
        ),
        tol=1e-13,
    )
    return pref * out["value"]


@functools.lru_cache(maxsize=2)
def assemble_mode(p: HSParams, ell: int, grid: RadialGrid) -> ModeMatrices:
    """Assemble the tridiagonal finite-volume operator for one mode.

    The one place a mode operator is built.  Memoized on (p, ell, grid):
    the two entries hold both modes of the latest grid, so every solve and
    diagnostic on that grid shares one assembly, and the arrays are
    read-only.  A strong grading can put the first edges so close to 0 that
    edge**n underflows; every solve and spectral diagnostic divides by the
    cell masses, so a zero mass is refused here.
    """
    if ell not in (0, 2):
        raise DomainError(f"ell must be 0 or 2, got {ell}")
    if p.s <= 0.0:
        raise DomainError("the linearized solver requires s in (0, 2)")
    n = p.n
    r = grid.nodes
    R = grid.R_max
    edges = np.concatenate([[0.0], 0.5 * (r[1:] + r[:-1]), [R]])
    mass = np.diff(edges**n) / n
    if np.any(mass == 0.0):
        raise NumericalError(
            f"cell masses underflow to 0 on this grid (gamma = {grid.gamma}, "
            f"N = {grid.N}, first edge radius {edges[1]:.3e}); "
            "reduce the grading or N")

    # flux coefficients a_{i+1/2} = m_{i+1/2}**(n-1) / (r_{i+1} - r_i)
    flux = edges[1:-1] ** (n - 1) / np.diff(r)
    sd = np.zeros(r.size)
    sd[:-1] += flux
    sd[1:] += flux
    sd[-1] += (n - 2.0 + ell) * R ** (n - 2)  # Robin closure, decaying branch
    e = -flux
    pot = potential_values(p, r[1:]) * mass[1:]

    if ell == 2:
        # Dirichlet at r = 0: drop node 0 (its flux coupling folds into the
        # node-1 diagonal, which the stiffness already contains).  The
        # centrifugal term uses the exact cell integrals of r**(n-3).
        cent_cell = np.diff(edges[1:] ** (n - 2)) / (n - 2)
        cent = float(ell * (ell + n - 2)) * cent_cell
        mats = ModeMatrices(ell=2, r=r[1:], d=sd[1:] + cent - pot, e=e[1:],
                            mass=mass[1:], sd=sd[1:])
    else:
        pot = np.concatenate([[_first_cell_potential_mass(p, edges[1])], pot])
        zs = z0(p, r)
        mats = ModeMatrices(ell=0, r=r, d=sd - pot, e=e, mass=mass, sd=sd,
                            z0=zs, g=_apply_tridiag(sd, e, zs))
    for arr in vars(mats).values():
        if isinstance(arr, np.ndarray):
            arr.flags.writeable = False
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


def _fd_defect(p: HSParams, ell: int, r: np.ndarray, u: np.ndarray,
               f: np.ndarray, mass: np.ndarray) -> float:
    """Mass-weighted RMS residual of an independent 3-point FD operator.

    The stencil is the standard nonuniform second-order one (second order on
    the smoothly graded mesh), applied on interior nodes with r > 0; the
    result is normalized by the same norm of the right-hand side.  This is
    deliberately NOT the scheme used to solve, so it measures consistency of
    the returned profile, not how well the linear algebra was done.
    """
    # active arrays may or may not include r = 0; FD only on strict interior
    i0 = 1 if r[0] == 0.0 else 0
    ri = r[i0 + 1:-1]
    hm = r[i0 + 1:-1] - r[i0:-2]
    hp = r[i0 + 2:] - r[i0 + 1:-1]
    um, uc, up = u[i0:-2], u[i0 + 1:-1], u[i0 + 2:]
    d2 = 2.0 * ((up - uc) / hp - (uc - um) / hm) / (hp + hm)
    d1 = (hm / (hp * (hp + hm))) * up \
        + ((hp - hm) / (hp * hm)) * uc \
        - (hp / (hm * (hp + hm))) * um
    n = p.n
    lhs = -d2 - (n - 1.0) / ri * d1 - potential_values(p, ri) * uc
    if ell:
        lhs = lhs + float(ell * (ell + n - 2)) / ri**2 * uc
    res = lhs - f[i0 + 1:-1]
    w = mass[i0 + 1:-1]
    num = float(np.sqrt(np.sum(w * res**2)))
    den = float(np.sqrt(np.sum(w * f[i0 + 1:-1] ** 2)))
    if den == 0.0:
        return 0.0 if num == 0.0 else num
    return num / den


# --------------------------------------------------------------------------
# solvers


@functools.lru_cache(maxsize=2)
def _factored(p: HSParams, ell: int, grid: RadialGrid) -> SimpleNamespace:
    """What every solve of one mode on one grid shares: no load changes it.

    Memoized like assemble_mode (both modes of the latest grid) but built by
    the first solve, so assemble_mode and kernel_diagnostics never factor.
    ds: D = diag(ds) = |diag K|**(-1/2); lu: the LAPACK gttrf factors of
    D K D (_solve_mode0_bordered says why both modes are solved through it),
    so each solve is one gttrs.  ell = 0 adds the Keller border (col,
    gscale, b = (D K D)^-1 col, schur = col^T b) and the node samples u1,
    rdru1 and dz (Delta Z0) that hat_c needs; hat_c adds the ell = 2 unit
    solution mode2 and its pairing pair2.  Arrays are read-only.
    """
    from scipy.linalg import lapack

    mats = assemble_mode(p, ell, grid)
    ds = 1.0 / np.sqrt(np.maximum(np.abs(mats.d), np.finfo(float).tiny))
    f = SimpleNamespace(ds=ds)
    if ell == 0:
        gs = mats.g * ds
        f.gscale = float(np.linalg.norm(gs))
        if f.gscale == 0.0 or not np.isfinite(f.gscale):
            raise NumericalError("degenerate projection direction in ell = 0 solve")
    es, dd = mats.e * ds[:-1] * ds[1:], mats.d * ds * ds
    _finite_or_fail(ell, np.concatenate((es, dd)))
    *f.lu, info = lapack.dgttrf(es, dd, es)
    if info > 0:
        raise NumericalError(f"ell = {ell} banded solve failed: singular matrix")
    if ell == 0:
        f.col = gs / f.gscale
        f.b = _gttrs(f, 0, f.col)
        f.schur = float(f.col @ f.b)
        if f.schur == 0.0:
            raise NumericalError("bordered ell = 0 system is singular")
        r = mats.r
        f.u1, f.rdru1 = u1(p, r), rdru1(p, r)
        # pointwise Delta Z0 = (2*-1) U1**(2*-2) r**(-s) Z0 for the defect;
        # integrably singular at r = 0, a node the defect skips
        with np.errstate(divide="ignore", invalid="ignore"):
            f.dz = (p.crit_exp - 1.0) * f.u1 ** (p.crit_exp - 2.0) \
                * r ** (-p.s) * mats.z0
        f.dz[0] = 0.0
    for arr in [*vars(f).values(), *f.lu]:
        if isinstance(arr, np.ndarray):
            arr.flags.writeable = False
    return f


def _finite_or_fail(ell: int, x: np.ndarray) -> np.ndarray:
    try:
        return np.asarray_chkfinite(x)
    except ValueError as exc:
        raise NumericalError(f"ell = {ell} banded solve failed: {exc}") from exc


def _gttrs(f: SimpleNamespace, ell: int, rhs: np.ndarray) -> np.ndarray:
    """(D K D)^-1 rhs from the cached factors: one LAPACK gttrs."""
    from scipy.linalg import lapack

    return lapack.dgttrs(*f.lu, _finite_or_fail(ell, rhs))[0]


def _solve_mode0_bordered(mats: ModeMatrices, f: SimpleNamespace,
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
    on the load; the factors of K_s, b and the Schur scalar are cached per
    grid (_factored), so a solve is one gttrs.  K_s is nearly singular, so
    a and b carry large near-kernel components that cancel only to roundoff
    relative to their size; one refinement pass (one more gttrs) on the
    residual of the full bordered system brings the result to machine level
    (Govaerts & Pryce, IMA J. Numer. Anal. 13, 1993).
    """
    def solve_scaled(rhs_u: np.ndarray, rhs_c: float):
        a = _gttrs(f, 0, rhs_u * f.ds)
        mu = (float(f.col @ a) - rhs_c / f.gscale) / f.schur
        return (a - mu * f.b) * f.ds, mu / f.gscale

    u, lam = solve_scaled(load, 0.0)
    # one refinement pass in the original (unscaled) variables
    res_u = load - (_apply_tridiag(mats.d, mats.e, u) + lam * mats.g)
    res_c = -float(mats.g @ u)
    du, dlam = solve_scaled(res_u, res_c)
    u, lam = u + du, lam + dlam
    if not (np.all(np.isfinite(u)) and np.isfinite(lam)):
        raise NumericalError("bordered ell = 0 solve produced non-finite values")
    return u, lam


def _norm_m(mass: np.ndarray, x: np.ndarray) -> float:
    return float(np.sqrt(np.sum(mass * x**2)))


def solve_mode(p: HSParams, ell: int, rhs, grid: RadialGrid, *,
               rhs_load: Optional[np.ndarray] = None,
               rhs_values: Optional[np.ndarray] = None,
               multiplier: Optional[float] = None) -> ModeSolution:
    """Solve one radial mode problem L_ell u = rhs on the grid.

    rhs may be a callable of r or a RadialProfile built from one, in which
    case its samples are turned into a consistent load M rhs; alternatively a precomputed load vector over
    the active nodes can be passed as rhs_load (pass rhs=None then), which
    is how the exactly projected right-hand sides are represented.
    rhs_values optionally supplies pointwise right-hand side samples on the
    active nodes for the defect measurement when a load was given.

    ell = 0 right-hand sides must satisfy the discrete solvability condition
    |<load, z0>| <= SOLVABILITY_TOL * ||z0||_M ||load||_(M^-1); the solve is
    then performed in bordered form, enforcing gradient-orthogonality to Z0.
    """
    mats = assemble_mode(p, ell, grid)
    r = mats.r

    if rhs_load is not None:
        load = np.asarray(rhs_load, dtype=float)
        if load.shape != r.shape:
            raise DomainError("rhs_load does not match the active grid nodes")
        fvals = rhs_values if rhs_values is not None else load / mats.mass
    else:
        if rhs is None:
            raise DomainError("either rhs or rhs_load must be given")
        prof = rhs if isinstance(rhs, RadialProfile) \
            else RadialProfile.from_callable(rhs)
        full = np.asarray(prof.on(grid), dtype=float)
        fvals = full[1:] if ell == 2 else full
        if not np.all(np.isfinite(fvals)):
            raise DomainError("rhs evaluates to non-finite values on the grid")
        load = mats.mass * fvals

    lagrange = None
    solvability = 0.0
    grad_ortho = None
    mu = multiplier

    if ell == 0:
        z, g = mats.z0, mats.g
        ip = float(z @ load)
        scale = _norm_m(mats.mass, z) * float(
            np.sqrt(np.sum(load**2 / mats.mass))
        )
        solvability = abs(ip) / scale if scale > 0.0 else 0.0
        if solvability > SOLVABILITY_TOL:
            raise DomainError(
                "ell = 0 right-hand side is not orthogonal to the kernel "
                f"direction Z0: relative compatibility {solvability:.3e} "
                f"exceeds {SOLVABILITY_TOL:.1e}"
            )
        u, lagrange = _solve_mode0_bordered(mats, _factored(p, 0, grid), load)
        gn = float(np.sqrt(z @ g))  # sqrt(z0^T S z0) > 0
        un = float(np.sqrt(abs(u @ _apply_tridiag(mats.sd, mats.e, u))))
        den = gn * un
        grad_ortho = abs(float(g @ u)) / den if den > 0.0 else 0.0
        resid = _apply_tridiag(mats.d, mats.e, u) + lagrange * g - load
    else:
        f = _factored(p, 2, grid)
        u = f.ds * _gttrs(f, 2, load * f.ds)
        resid = _apply_tridiag(mats.d, mats.e, u) - load

    rnorm = float(np.linalg.norm(resid))
    lnorm = float(np.linalg.norm(load))
    algebraic = rnorm / lnorm if lnorm > 0.0 else rnorm

    defect = _fd_defect(p, ell, r, u, np.asarray(fvals, dtype=float), mats.mass)

    if ell == 2:
        vals = np.concatenate([[0.0], u])  # Dirichlet value at r = 0
    else:
        vals = u
    profile = RadialProfile.from_samples(grid, vals)
    return ModeSolution(ell=ell, profile=profile, defect=defect,
                        algebraic_residual=algebraic, lagrange=lagrange,
                        solvability=solvability,
                        gradient_orthogonality=grad_ortho, multiplier=mu)


# --------------------------------------------------------------------------
# the projected correction and its pairing


def hat_c(p: HSParams, w: WDecomposition, grid: RadialGrid) -> dict:
    """Radial mode profiles of the projected correction C.

    mode0 solves  L_0 u = -(a U1 + mode0_extra r U1') + mu Delta Z0  with
    mu = <W, Z0> / |grad Z0|^2 computed from the same discrete objects that
    build the load (so the solvability condition holds identically);
    mode2 solves  L_2 u = -(1/3) r U1'  per unit trace-free amplitude (the
    tensor contraction is applied later, in nonlocal_term), once per grid.
    w0 is the ell = 0 source a U1 + mode0_extra r U1' on the nodes and
    pair2 the ell = 2 pairing integral of nonlocal_term.
    """
    m0, f0 = assemble_mode(p, 0, grid), _factored(p, 0, grid)
    with np.errstate(all="ignore"):
        w0 = w.a * f0.u1 + w.mode0_extra * f0.rdru1
        load_w = m0.mass * w0
        mu = float(m0.z0 @ load_w) / float(m0.z0 @ m0.g)
        load, fvals = -load_w + mu * m0.g, -w0 + mu * f0.dz
    if not (np.all(np.isfinite(load)) and np.all(np.isfinite(fvals))):
        raise NumericalError(
            f"the ell = 0 source with a = {w.a!r}, mode0_extra = "
            f"{w.mode0_extra!r} and its projection leave the float range")
    mode0 = solve_mode(p, 0, None, grid, rhs_load=load, rhs_values=fvals,
                       multiplier=mu)
    f2 = _factored(p, 2, grid)
    if not hasattr(f2, "mode2"):
        f2.mode2 = solve_mode(p, 2, RadialProfile.from_callable(
            lambda rr: -rdru1(p, rr) / 3.0), grid)
        c2, m2 = f2.mode2.profile.values, assemble_mode(p, 2, grid)
        c2.flags.writeable = False
        f2.pair2 = float(np.sum(m2.mass * (rdru1(p, m2.r) / 3.0) * c2[1:]))
    return {"mode0": mode0, "mode2": f2.mode2, "w0": w0, "pair2": f2.pair2}


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
    border, the node samples and the ell = 2 pairing are cached per grid
    (_factored), so a repeat pairing on one grid costs two triangular
    solves (gttrs), the bordered solve and its refinement pass.
    """
    from .params import sphere_area

    sols = hat_c(p, w, grid)
    omega = sphere_area(p.n)
    mass = assemble_mode(p, 0, grid).mass
    c0 = sols["mode0"].profile.values
    part0 = omega * float(np.sum(mass * sols["w0"] * c0))
    part2 = 2.0 * omega / (p.n * (p.n + 2.0)) * w.t_free_norm2 * sols["pair2"]

    total = part0 + part2
    if detail:
        return {"total": total, "mode0_part": part0, "mode2_part": part2,
                "multiplier": sols["mode0"].multiplier,
                "mode0": sols["mode0"], "mode2": sols["mode2"]}
    return total


# --------------------------------------------------------------------------
# spectral diagnostics


def _count_eigs_below(d: np.ndarray, e: np.ndarray, mass: np.ndarray,
                      sigma: float) -> int:
    """Number of pencil eigenvalues K v = lam M v with lam < sigma.

    Sturm count via the LDL^T pivot recurrence of K - sigma M; exact
    integer inertia, immune to the huge dynamic range of the graded cells.
    The recurrence is sequential, so it runs on Python floats (numpy
    scalars cost several times more per step).
    """
    tiny = float(np.finfo(float).tiny)
    shifted = (d - sigma * mass).tolist()
    e2 = (e * e).tolist()
    q = shifted[0]
    count = int(q < 0.0)
    for di, ei2 in zip(shifted[1:], e2):
        if q == 0.0:
            q = tiny
        q = di - ei2 / q
        count += q < 0.0
    return count


def _window_eigenpairs(mats: ModeMatrices, lo: float, hi: float, *,
                       vectors: bool):
    """All pencil eigenpairs K v = lam M v with lam in (lo, hi).

    Works on the symmetrically scaled standard form M**(-1/2) K M**(-1/2)
    and computes the window by LAPACK bisection plus inverse iteration.
    Bisection's Sturm counts are immune to the enormous dynamic range of
    the graded cells (no factorization of the full matrix is involved),
    where shift-invert iterations on the raw pencil produce spurious
    near-zero eigenvalues.  An explicit absolute tolerance is passed:
    the driver default is relative to the Gershgorin bound, which the
    origin cells push to ~1e26, uselessly coarse near zero.  With
    vectors=False only the eigenvalues are computed (the same bisection,
    so the same values) and None stands in for the eigenvectors.
    """
    import scipy.linalg

    inv_sqrt_m = 1.0 / np.sqrt(mats.mass)
    dt = mats.d * inv_sqrt_m**2
    et = mats.e * inv_sqrt_m[:-1] * inv_sqrt_m[1:]
    if not (np.all(np.isfinite(dt)) and np.all(np.isfinite(et))):
        raise NumericalError("scaled operator overflows for this grid")
    try:
        out = scipy.linalg.eigh_tridiagonal(
            dt, et, eigvals_only=not vectors, select="v",
            select_range=(lo, hi), tol=1e-14
        )
    except Exception as exc:
        raise NumericalError(f"eigen-diagnostic failed: {exc}") from exc
    if not vectors:
        return out, None
    vals, y = out
    # back-transform: u = M**(-1/2) y, already M-orthonormal
    return vals, y * inv_sqrt_m[:, None]


def kernel_diagnostics(p: HSParams, grid: RadialGrid) -> dict:
    """Spectral diagnostics of both mode operators.

    All generalized eigenpairs K v = lam M v inside the window
    |lam| <= WINDOW_REL * (pi/R_max)**2 are computed for each mode.  The
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
      mode0_near_zero_count   exact inertia count in [-zero_tol, zero_tol],
                         zero_tol = ZERO_TOL_REL * (pi/R)**2 (0.75x:
                         under the observed box floor >= 2x at every (n, s)
                         probed, above any adequately resolved kernel eig)
      mode0_negative_count    exact count of eigenvalues < -zero_tol
                         (1 = the bubble direction, when resolved)
      mode2_min_eig      smallest ell = 2 eigenvalue (positive: no kernel)
      mode2_near_zero_count   expected 0

    Counts are Sturm-sequence inertias of the pencil itself -- exact
    integers, no iterative solver involved.
    """
    unit = (np.pi / grid.R_max) ** 2
    ztol = ZERO_TOL_REL * unit
    win = WINDOW_REL * unit
    out: dict = {"zero_tol": ztol,
                 "grid": {"N": grid.N, "R_max": grid.R_max,
                          "gamma": grid.gamma}}

    for ell in (0, 2):
        mats = assemble_mode(p, ell, grid)
        vals, vecs = _window_eigenpairs(mats, -win, win, vectors=ell == 0)
        if vals.size == 0:
            raise NumericalError(
                f"no ell = {ell} eigenvalues inside the diagnostic window; "
                "the grid badly under-resolves the operator"
            )
        below_lo = _count_eigs_below(mats.d, mats.e, mats.mass, -ztol)
        below_hi = _count_eigs_below(mats.d, mats.e, mats.mass, ztol)
        if ell == 0:
            out["mode0_min_eig"] = float(vals[np.argmin(np.abs(vals))])
            zn = _norm_m(mats.mass, mats.z0)
            aligns = np.abs(vecs.T @ (mats.mass * mats.z0)) / (
                zn * np.sqrt(np.sum(mats.mass[:, None] * vecs**2, axis=0))
            )
            kbest = int(np.argmax(aligns))
            out["mode0_kernel_eig"] = float(vals[kbest])
            out["mode0_eigvec_alignment_with_Z0"] = float(aligns[kbest])
            out["mode0_near_zero_count"] = below_hi - below_lo
            out["mode0_negative_count"] = below_lo
        else:
            out["mode2_min_eig"] = float(np.min(vals))
            out["mode2_near_zero_count"] = below_hi - below_lo
    return out
