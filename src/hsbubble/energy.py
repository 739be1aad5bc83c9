"""Energy of the truncated bubble on radial model densities.

The ambient space enters J only through the spherically averaged volume
density G(r) ~ 1 + c2 r^2 + c4 r^4 (from the curvature invariants) and the
averaged potential 2-jet hbar(r) = h0 - (r^2/(2n)) lap_h.  For a bubble of
concentration delta truncated at radius r0,

  J(delta) = omega_{n-1} [ (1/2) int_0^{r0} (U_d'^2 + hbar U_d^2) G r^{n-1} dr
             - (1/2*) int_0^{r0} U_d^{2*} G r^{n-1-s} dr ],

and the small-delta expansion J = c0 + c2 delta^2 + c4 delta^4 + o(delta^4)
has coefficients expressible in closed form through the bubble moments:

  c0 = ((2-s)/(2(n-s))) int U1^{2*} |X|^{-s},
  c2 = (1/2) (h0 - c_ns Scal) int U1^2,
  c4 = F ((1/2) int |X|^4 |grad U1|^2 - (1/2*) int |X|^4 U1^{2*} |X|^{-s})
       - (1/(4n)) (lap_h + Scal h0 / 3) int |X|^2 U1^2,

with F the r^4 density coefficient.  predicted_coeffs returns these;
j_at_bubble evaluates J by adaptive quadrature with no expansion, so the two
routes are independent and the fit adjudicates the delta^4 structure.  At
the critical potential h0 = c_ns Scal the c4 line above collapses (by the
identity tested in the geometry module) to
-(1/(4n)) (lap_h - Lambda_ns lap_scal - K) int |X|^2 U1^2.

The remainder density h0 U1 + (1/3) Ric_ij sigma^i sigma^j (r U1') is
measured in L^{2n/(n+2)}; its concentration rescaling scales the norm by
exactly delta^2, which fixes the normalization alpha of the blow-up family.

Truncation policy: the smooth cutoff is replaced by a sharp cutoff at r0.
The discarded tail is O(delta^{n-2}); the delta-sweep fit carries
delta^{n-2}, delta^{n-1}, delta^{n-1} log(1/delta), delta^n nuisance columns
meant to absorb it.  Its constant is not small for s near 2: the profile's
power-law tail starts only at r^(2-s) >> (n-2)/(2-s), so at (n, s) = (7, 1.9)
and delta = 0.05 the crit moment beyond r0/delta still holds 6.6e-2 of c0.
There the nuisance columns do not absorb the cutoff, and it aliases into the
reported c0/c2/c4.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .bubble import du1, power_law_breaks, u1
from .errors import DomainError, NumericalError
from .geometry import CurvatureData, PotentialJet, density_coeffs
from .moments import bubble_moment, ipq
from .params import HSParams, derive_constants, sphere_area
from .quadrature import (RadialIntegrand, integrate_radial,
                         integrate_radial_batch)

# relative quadrature tolerance of every energy integral
TOL = 1e-12

__all__ = [
    "RadialModel",
    "FitReport",
    "j_at_bubble",
    "predicted_coeffs",
    "fit_expansion",
    "remainder_alpha",
    "remainder_norm_scaled",
    "flat_alpha_inv_closed_form",
]


@dataclass(frozen=True)
class RadialModel:
    """A radial stand-in for the ambient space near the concentration point.

    Holds the curvature data (which fixes the truncated density
    G(r) = 1 + c2 r^2 + c4 r^4), the potential 2-jet, and the truncation
    radius r0.  The truncated polynomial must stay positive on [0, 2 r0];
    a model violating that is rejected as unphysical at this radius.
    """

    c: CurvatureData
    jet: PotentialJet
    r0: float = 1.0

    def __post_init__(self):
        if not (isinstance(self.r0, (int, float)) and math.isfinite(self.r0)
                and self.r0 > 0.0):
            raise DomainError(f"r0 must be a positive number, got {self.r0}")
        c2, c4 = self.coeffs["c2"], self.coeffs["c4"]
        # positivity of g(x) = 1 + c2 x + c4 x^2 on x in [0, X], X = (2 r0)^2:
        # endpoints plus the interior critical point x* = -c2/(2 c4)
        try:
            X = (2.0 * self.r0) ** 2
        except OverflowError:
            raise DomainError(f"r0 = {self.r0!r} is too large: (2 r0)**2 "
                              "overflows a float") from None
        lo = min(1.0, 1.0 + c2 * X + c4 * X * X)
        if c4 != 0.0:
            xstar = -c2 / (2.0 * c4)
            if 0.0 < xstar < X:
                lo = min(lo, 1.0 + c2 * xstar + c4 * xstar * xstar)
        if lo <= 0.0:
            raise DomainError(
                f"truncated density 1 + ({c2}) r^2 + ({c4}) r^4 reaches "
                f"{lo} on [0, {2.0 * self.r0}]; the model is unphysical "
                "at this truncation radius"
            )

    @functools.cached_property
    def coeffs(self) -> dict:
        """density_coeffs of the curvature data, computed once per model."""
        return density_coeffs(self.c)

    def density(self, r):
        """G(r) = 1 + c2 r^2 + c4 r^4 (vectorized)."""
        dc = self.coeffs
        r = np.asarray(r, dtype=float)
        return 1.0 + dc["c2"] * r**2 + dc["c4"] * r**4


@dataclass(frozen=True)
class FitReport:
    """Fitted vs predicted expansion coefficients for one delta sweep.

    *_dev are relative deviations (fit - pred) over a per-coefficient scale:
    |pred| when nonzero, else the generic magnitude of that order's term
    (so a coefficient predicted to vanish is compared against the size it
    would have had generically, which is the meaningful yardstick).
    nuisance holds the fitted truncation-order amplitudes, reported but
    never compared to predictions.
    """

    c0_fit: float
    c2_fit: float
    c4_fit: float
    c0_se: float
    c2_se: float
    c4_se: float
    c0_pred: float
    c2_pred: float
    c4_pred: float
    c0_dev: float
    c2_dev: float
    c4_dev: float
    condition: float
    rms_residual: float
    nuisance: dict = field(default_factory=dict)

    def __post_init__(self):
        devs = (self.c0_dev, self.c2_dev, self.c4_dev)
        if not all(math.isfinite(d) for d in devs):
            raise DomainError("fit deviations must be finite")


def _check_regime(model: RadialModel, p: HSParams, delta: float) -> None:
    p.require("the energy expansion", n_min=7)
    if not (isinstance(delta, (int, float)) and math.isfinite(delta)):
        raise DomainError(f"delta must be a finite number, got {delta}")
    if not (0.0 < delta <= model.r0 / 10.0):
        raise DomainError(
            f"delta = {delta} outside the asymptotic regime "
            f"(0, r0/10] = (0, {model.r0 / 10.0}]"
        )


def _j_sweep(model: RadialModel, p: HSParams, deltas) -> list:
    """J at each delta of a sweep the caller has checked, by quadrature.

    The three integrands are functions of (rho, delta), built once, so the
    three integrals at every delta run as one quadrature batch that calls
    each integrand once per round, however many deltas there are.
    """
    n, s, two_star = p.n, p.s, p.crit_exp
    h0, lap_h = model.jet.h0_val, model.jet.lap_h
    omega = sphere_area(n)

    def grad_f(rho, delta):
        return du1(p, rho) ** 2 * model.density(delta * rho)

    def pot_f(rho, delta):
        hbar = h0 - (delta * rho) ** 2 * lap_h / (2.0 * n)
        return hbar * u1(p, rho) ** 2 * model.density(delta * rho)

    def crit_f(rho, delta):
        return u1(p, rho) ** two_star * model.density(delta * rho)

    parts = ((grad_f, 0.0), (pot_f, 0.0), (crit_f, -s))
    v = [res["value"] for res in integrate_radial_batch(
        [RadialIntegrand(f=f, a=n - 1.0, sing=sing, R=model.r0 / delta,
                         arg=delta)
         for delta in deltas for f, sing in parts], tol=TOL)]
    return [omega * (0.5 * (grad + delta**2 * pot) - crit / two_star)
            for delta, grad, pot, crit in zip(deltas, v[0::3], v[1::3],
                                              v[2::3])]


def j_at_bubble(model: RadialModel, p: HSParams, delta: float) -> float:
    """J at the truncated bubble of concentration delta, by quadrature.

    Integrates in the concentration variable rho = r/delta (an exact change
    of variables that keeps the peak at O(1) scale); no series expansion of
    any factor is used, so this is an independent route against
    predicted_coeffs.  It is fit_expansion's sweep on one delta: each
    member of a quadrature batch integrates as it would alone, so a fit
    sample equals j_at_bubble at its delta bit for bit.
    """
    _check_regime(model, p, delta)
    return _j_sweep(model, p, [delta])[0]


def predicted_coeffs(model: RadialModel, p: HSParams) -> dict:
    """Closed-form c0, c2, c4 of the small-delta expansion of J.

    All three come from the bubble-moment registry; c4 is the exact
    delta^4 coefficient of the truncated-model energy (the form that the
    collapse identity reorganizes into the obstruction functional at the
    critical potential).
    """
    p.require("the energy expansion", n_min=7)
    n, two_star = p.n, p.crit_exp
    F = model.coeffs["c4"]
    h0, lap_h = model.jet.h0_val, model.jet.lap_h
    scal = model.c.scal

    c0 = (2.0 - p.s) / (2.0 * (n - p.s)) * bubble_moment(p, "crit")
    c2 = 0.5 * (h0 - p.c_ns * scal) * bubble_moment(p, "mass2")
    c4 = (F * (0.5 * bubble_moment(p, "r4grad")
               - bubble_moment(p, "r4crit") / two_star)
          - (lap_h + scal * h0 / 3.0) * bubble_moment(p, "r2mass")
          / (4.0 * n))
    return {"c0": c0, "c2": c2, "c4": c4}


def _fit_columns(deltas: np.ndarray, n: int, nuisance: bool):
    """Design-matrix columns and their names for the delta-sweep fit."""
    cols = [np.ones_like(deltas), deltas**2, deltas**4]
    names = ["1", "delta^2", "delta^4"]
    if nuisance:
        cols.append(deltas ** (n - 2))
        names.append(f"delta^{n - 2}")
        cols.append(deltas ** (n - 1) * np.log(1.0 / deltas))
        names.append(f"delta^{n - 1}*log(1/delta)")
        cols.append(deltas ** (n - 1))
        names.append(f"delta^{n - 1}")
        cols.append(deltas ** n)
        names.append(f"delta^{n}")
    return np.column_stack(cols), names


def fit_expansion(model: RadialModel, p: HSParams,
                  deltas: Sequence[float], *,
                  nuisance: bool = True) -> FitReport:
    """Least-squares fit of J(delta) against {1, delta^2, delta^4}.

    The sweep must hold at least 6 distinct deltas spanning a decade inside
    the asymptotic regime.  Truncation-order nuisance columns (delta^{n-2},
    delta^{n-1} log(1/delta), delta^{n-1}, delta^n) guard the reported
    coefficients against aliasing; pass nuisance=False to drop them.

    J is sampled at every delta in one quadrature batch (the sweep behind
    j_at_bubble), so the 3 integrals per delta advance together and each
    sample equals j_at_bubble at its delta exactly.
    """
    deltas = np.asarray(sorted(float(d) for d in deltas), dtype=float)
    if deltas.size < 6:
        raise DomainError(f"need at least 6 deltas, got {deltas.size}")
    for d in deltas:
        _check_regime(model, p, float(d))
    span = deltas[-1] / deltas[0]
    if span < 10.0 * (1.0 - 1e-9):
        raise DomainError(
            f"delta sweep spans a factor {span:.3g}; need a full decade")

    # closed forms and the design first: an overflowing moment prefactor or
    # a degenerate sweep fails here, before the quadrature sweep
    pred = predicted_coeffs(model, p)
    X, names = _fit_columns(deltas, p.n, nuisance)
    scales = np.max(np.abs(X), axis=0)
    Xs = X / scales
    dof = deltas.size - Xs.shape[1]
    if dof < 1:
        raise DomainError(
            f"{deltas.size} samples cannot determine {Xs.shape[1]} "
            "coefficients with a residual degree of freedom")

    U, sv, Vt = np.linalg.svd(Xs, full_matrices=False)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf
    if not math.isfinite(cond) or cond > 1e9:
        raise NumericalError(
            f"fit design matrix condition {cond:.3g} too large; the sweep "
            "is too narrow or contains near-duplicate deltas")

    try:
        y = np.array(_j_sweep(model, p, deltas.tolist()))
        with np.errstate(over="ignore", invalid="ignore"):
            coef_s = Vt.T @ ((U.T @ y) / sv)
            coef = coef_s / scales
            resid = y - X @ coef
            rss = float(resid @ resid)
            sigma2 = rss / dof
            # cov of scaled coefs = sigma^2 V S^-2 V^T; unscale per column
            cov_s_diag = np.einsum("ij,j,ij->i", Vt.T, sv**-2.0, Vt.T) * sigma2
            se = np.sqrt(np.maximum(cov_s_diag, 0.0)) / scales
        if not np.all(np.isfinite([*y, *coef, *se, rss])):
            raise NumericalError("its fitted values leave the float range")
    except NumericalError as exc:
        raise NumericalError(
            f"the energy fit with h0 = {model.jet.h0_val!r}: {exc}") from None

    generic2 = 0.5 * max(abs(model.jet.h0_val),
                         abs(p.c_ns * model.c.scal),
                         1.0) * bubble_moment(p, "mass2")
    generic4 = (abs(model.coeffs["c4"])
                * (0.5 * bubble_moment(p, "r4grad")
                   + bubble_moment(p, "r4crit") / p.crit_exp)
                + (abs(model.jet.lap_h)
                   + abs(model.c.scal * model.jet.h0_val) / 3.0)
                * bubble_moment(p, "r2mass") / (4.0 * p.n))
    # deviations are relative to |pred| when the prediction is nonzero; a
    # coefficient predicted to (essentially) vanish is measured against the
    # generic magnitude of its order instead, which is the meaningful scale
    denom0 = abs(pred["c0"])  # strictly positive
    denom2 = abs(pred["c2"]) if abs(pred["c2"]) >= 1e-9 * generic2 \
        else generic2
    g4 = max(generic4, 1e-9 * denom0)
    denom4 = abs(pred["c4"]) if abs(pred["c4"]) >= 1e-9 * g4 else g4

    nuis = {names[k]: float(coef[k]) for k in range(3, len(names))}
    return FitReport(
        c0_fit=float(coef[0]), c2_fit=float(coef[1]), c4_fit=float(coef[2]),
        c0_se=float(se[0]), c2_se=float(se[1]), c4_se=float(se[2]),
        c0_pred=pred["c0"], c2_pred=pred["c2"], c4_pred=pred["c4"],
        c0_dev=float((coef[0] - pred["c0"]) / denom0),
        c2_dev=float((coef[1] - pred["c2"]) / denom2),
        c4_dev=float((coef[2] - pred["c4"]) / denom4),
        condition=cond,
        rms_residual=math.sqrt(rss / deltas.size),
        nuisance=nuis,
    )


# --------------------------------------------------------------- remainder


def _tfree_axial_mu(c: CurvatureData) -> float:
    """Axial amplitude: T = mu (e x e - g/n) has |T|^2 = mu^2 (n-1)/n.

    Only |T|^2 enters any rotationally invariant quantity, so the axial
    representative is fully general for the norms computed here.
    """
    return math.sqrt(c.tfree_ric_norm2 * c.n / (c.n - 1.0))


# Gauss-Jacobi points of the angular rule in the trace-free remainder norm
JACOBI_POINTS = 2000

# radial points per angular block: bounds the (block x nodes) temporary while
# the quadrature engine hands over all initial panels' nodes in one call; 15
# is one K15 panel, so every block holds exactly one panel's nodes
_RADIAL_BLOCK = 15


@functools.lru_cache(maxsize=None)
def _angular_rule(jacobi_points: int, n: int):
    """Angular weights (u^2 - 1/n)/3 and Gauss-Jacobi weights for
    (1-u^2)^{(n-3)/2} on [-1, 1], folded onto the nodes u >= 0.

    The rule is symmetric, so each nonnegative node carries the summed
    weight of its pair (u, -u); a centre node (odd point count) keeps its
    own.  Cached: the arrays are read-only because every caller shares them.
    """
    from scipy.special import roots_jacobi

    a_jac = (n - 3.0) / 2.0
    u, w = roots_jacobi(jacobi_points, a_jac, a_jac)
    half = jacobi_points // 2
    ang_w = (u[half:] ** 2 - 1.0 / n) / 3.0
    wt = w[half:].copy()
    wt[jacobi_points % 2:] += w[:half][::-1]
    ang_w.flags.writeable = False
    wt.flags.writeable = False
    return ang_w, wt


def remainder_norm_scaled(c: CurvatureData, p: HSParams, h0_val: float,
                          delta: float = 1.0) -> float:
    """L^{2n/(n+2)} norm of the concentration-rescaled remainder density

      h0 U_delta + (1/3) Ric_ij sigma^i sigma^j delta^{-(n-2)/2} (r U1')(r/delta).

    The angular contraction splits into its spherical mean Scal/n (radial)
    and the trace-free part, reduced via the axial representative to a weight
    (u^2 - 1/n) with u the cosine against the axis; the angular integral of
    |...|^q then becomes a Gauss-Jacobi sum with weight (1-u^2)^{(n-3)/2},
    and the radial integral is adaptive, in x = log r over the whole
    half-line.  The density decays like r**(-(n-2)), so the engine gets the
    declared tail exponent b = q (n-2) and the profile's breaks delta
    beta**(-+1/(2-s)), beta = (n-2)/(2-s), and decides the span from them
    rather than from samples of the integrand.  Integration runs in the
    original radial variable (no delta substitution), so the delta^2
    scaling law is an outcome, not an input.

    The JACOBI_POINTS-point rule is built once per n and reused by
    every later call; it is folded onto its nonnegative nodes (the weight
    depends on u only through u^2), which halves the angular work.
    """
    p.require("the remainder norm", n_min=7)
    if not (math.isfinite(h0_val) and math.isfinite(delta) and delta > 0.0):
        raise DomainError("h0_val must be finite and delta positive")
    n = p.n
    q = 2.0 * n / (n + 2.0)
    scal_amp = c.scal / (3.0 * n)
    mu = _tfree_axial_mu(c)
    if h0_val == 0.0 and scal_amp == 0.0 and mu == 0.0:
        return 0.0
    omega_inner = sphere_area(n - 1)
    overflow = (f"the remainder density with h0 = {h0_val!r} at delta = "
                f"{delta!r} leaves the float range")
    try:
        pref = delta ** (-(n - 2.0) / 2.0)
    except OverflowError:
        raise NumericalError(overflow) from None

    def checked(x, r=1.0):
        # the quadrature weighs the density by r**(n-1) and drops a
        # non-finite value as 0, so an overflow of the density, or of its
        # product with a finite weight, would shrink the norm silently
        # (callers silence numpy's warnings).  Both are nonnegative, so one
        # product of maxima clears the common case; where the weight itself
        # overflows (r far out in the tail) the density has underflowed and
        # nothing in the integral overflows
        if np.isfinite(np.asarray(x).max() * np.asarray(r).max() ** (n - 1.0)):
            return x
        w = np.power(r, n - 1.0)
        if not np.all((np.isfinite(x) & (np.isfinite(x * w) | np.isinf(w)))
                      | np.isinf(r)):
            raise NumericalError(overflow)
        return x

    if mu != 0.0:
        ang_w, ang_wt = _angular_rule(JACOBI_POINTS, n)

    def radial_f(r):
        rho = r / delta
        with np.errstate(over="ignore", invalid="ignore"):
            A = pref * (h0_val * u1(p, rho) + scal_amp * rho * du1(p, rho))
            if mu == 0.0:
                return checked(np.abs(A) ** q, r)
            B = pref * mu * rho * du1(p, rho)
            out = np.empty_like(A)
            for k in range(0, A.size, _RADIAL_BLOCK):
                blk = slice(k, k + _RADIAL_BLOCK)
                vals = np.abs(A[blk, None] + B[blk, None] * ang_w[None, :]) ** q
                out[blk] = vals @ ang_wt
            return checked(omega_inner * out, r)

    derive_constants(p)  # a kappa overflow is named before the scale's
    total = integrate_radial(RadialIntegrand(
        f=radial_f, a=n - 1.0, b=q * (n - 2.0),
        breaks=power_law_breaks(p, delta)), tol=TOL)["value"]
    if mu == 0.0:
        total *= sphere_area(n)
    return float(checked(total) ** (1.0 / q))


def remainder_alpha(c: CurvatureData, p: HSParams, h0_val: float) -> dict:
    """The normalization constant of the blow-up family.

    alpha_inv = L^{2n/(n+2)} norm of h0 U1 + (1/3) Ric_ij sigma^i sigma^j
    (r U1'); alpha is its reciprocal.  When the density vanishes identically
    (h0 = 0 and Ricci zero at the point) the constant is undefined and the
    degenerate marker is returned instead.
    """
    nrm = remainder_norm_scaled(c, p, h0_val, 1.0)
    if nrm == 0.0:
        return {"alpha_inv": 0.0, "alpha": None, "degenerate": True}
    return {"alpha_inv": nrm, "alpha": 1.0 / nrm, "degenerate": False}


def flat_alpha_inv_closed_form(p: HSParams, h0_val: float) -> float:
    """|h0| * ||U1||_{2n/(n+2)} in closed form (flat curvature case).

    ||U1||_q^q = omega_{n-1} kappa^q * (1/(2-s)) B(n/(2-s), beta q - n/(2-s))
    with beta = (n-2)/(2-s), evaluated through the moment kernel.
    """
    n, s = p.n, p.s
    q = 2.0 * n / (n + 2.0)
    beta_q = (n - 2.0) / (2.0 - s) * q
    m = n / (2.0 - s)
    val = sphere_area(n) * p.kappa**q * ipq(beta_q, m - 1.0) / (2.0 - s)
    return abs(h0_val) * float(val ** (1.0 / q))
