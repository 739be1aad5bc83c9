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

from .bubble import du1, power_law_breaks, rdru1, u1
from .errors import DomainError, NumericalError
from .geometry import CurvatureData, PotentialJet, assemble_w, density_coeffs
from .moments import bubble_moment
from .params import HSParams, Record, derive_constants, sphere_area
from .quadrature import (RadialIntegrand, integrate_radial,
                         integrate_radial_batch)

# relative quadrature tolerance of every energy integral
TOL = 1e-12


class RadialModel(Record):
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
        if not (math.isfinite(c2) and math.isfinite(c4)):
            raise NumericalError(
                f"the volume density coefficients c2 = {c2!r}, c4 = {c4!r} "
                "of this curvature leave the float range")
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
    p.require("the energy expansion")
    model.c.check_dimension(p)
    if not (isinstance(delta, (int, float)) and math.isfinite(delta)):
        raise DomainError(f"delta must be a finite number, got {delta}")
    if not (0.0 < delta <= model.r0 / 10.0):
        raise DomainError(
            f"delta = {delta} outside the asymptotic regime "
            f"(0, r0/10] = (0, {model.r0 / 10.0}]"
        )
    # in Python floats, whose quotient overflows to inf without a warning
    if not math.isfinite(float(model.r0) / float(delta)):
        raise DomainError(f"delta = {delta} is too small: r0/delta "
                          f"(r0 = {model.r0!r}) overflows a float")


def _j_sweep(model: RadialModel, p: HSParams, deltas) -> list:
    """J at each delta of a sweep the caller has checked, by quadrature.

    The three integrands are functions of (rho, delta), built once, so the
    three integrals at every delta run as one quadrature batch that calls
    each integrand once per round, however many deltas there are.
    """
    n, s, two_star = p.n, p.s, p.crit_exp
    h0, lap_h = model.jet.h0, model.jet.lap_h

    def grad_f(rho, delta):
        return du1(p, rho) ** 2 * model.density(delta * rho)

    def pot_f(rho, delta):
        hbar = h0 - (delta * rho) ** 2 * lap_h / (2.0 * n)
        return hbar * u1(p, rho) ** 2 * model.density(delta * rho)

    def crit_f(rho, delta):
        return u1(p, rho) ** two_star * model.density(delta * rho)

    parts = ((grad_f, 0.0), (pot_f, 0.0), (crit_f, -s))
    v = [res["value"] for res in integrate_radial_batch(
        [RadialIntegrand(f=f, a=n - 1.0 + sing, R=model.r0 / delta,
                         arg=delta)
         for delta in deltas for f, sing in parts], tol=TOL)]
    # both integrands are positive: a zero sum means the bubble fell inside
    # the first panel of the grading toward rho = 0 (the potential one is
    # legitimately 0 when h0 = lap_h = 0)
    for delta, grad, crit in zip(deltas, v[0::3], v[2::3]):
        if grad == 0.0 or crit == 0.0:
            raise NumericalError(
                f"J at delta = {delta} is out of the quadrature's reach: "
                f"the bubble lies inside the first panel of [0, r0/delta = "
                f"{model.r0 / delta:.3g}], where the "
                f"{'gradient' if grad == 0.0 else 'critical'} integral "
                "sums to 0")
    omega = sphere_area(n)  # after the batch, which names a kappa overflow
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
    delta^4 coefficient of the truncated-model energy.  At the critical
    potential the identity in the geometry module turns it into the local
    term of the obstruction functional times r2mass / r4grad; the nonlocal
    term is not part of it.
    """
    p.require("the energy expansion")
    model.c.check_dimension(p)
    n, two_star = p.n, p.crit_exp
    F = model.coeffs["c4"]
    h0, lap_h = model.jet.h0, model.jet.lap_h
    scal = model.c.scal

    c0 = (2.0 - p.s) / (2.0 * (n - p.s)) * bubble_moment(p, "crit")
    c2 = 0.5 * (h0 - p.c_ns * scal) * bubble_moment(p, "mass2")
    c4 = (F * (0.5 * bubble_moment(p, "r4grad")
               - bubble_moment(p, "r4crit") / two_star)
          - (lap_h + scal * h0 / 3.0) * bubble_moment(p, "r2mass")
          / (4.0 * n))
    return {"c0": c0, "c2": c2, "c4": c4}


def fit_expansion(model: RadialModel, p: HSParams,
                  deltas: Sequence[float]) -> FitReport:
    """Least-squares fit of J(delta) against {1, delta^2, delta^4}.

    The sweep must span a decade inside the asymptotic regime with more
    distinct deltas than the fit's columns: these three and the nuisance
    columns delta^{n-2}, delta^{n-1} log(1/delta), delta^{n-1}, delta^n,
    which guard the reported coefficients against truncation aliasing.

    J is sampled at every delta in one quadrature batch (the sweep behind
    j_at_bubble), so the 3 integrals per delta advance together and each
    sample equals j_at_bubble at its delta exactly.  A design column that
    underflows to 0 or overflows over the whole sweep is a NumericalError,
    raised before the SVD and the quadrature sweep.
    """
    deltas = np.asarray(sorted(float(d) for d in deltas), dtype=float)
    if deltas.size < 8:
        raise DomainError(
            f"need at least 8 deltas (7 fit columns and one residual degree "
            f"of freedom), got {deltas.size}")
    for d in deltas:
        _check_regime(model, p, float(d))
    span = deltas[-1] / deltas[0]
    if span < 10.0 * (1.0 - 1e-9):
        raise DomainError(
            f"delta sweep spans a factor {span:.3g}; need a full decade")

    # closed forms and the design first: an overflowing moment prefactor or
    # a degenerate sweep fails here, before the quadrature sweep
    pred = predicted_coeffs(model, p)
    n = p.n
    with np.errstate(over="ignore", invalid="ignore"):
        lead = deltas ** (n - 1)
        # where lead underflows to 0 and 1/delta overflows, the column is
        # 0, not 0 * inf
        nuisance = {f"delta^{n - 2}": deltas ** (n - 2),
                    f"delta^{n - 1}*log(1/delta)":
                        np.where(lead > 0.0, lead * np.log(1.0 / deltas), 0.0),
                    f"delta^{n - 1}": lead,
                    f"delta^{n}": deltas ** n}
        X = np.column_stack([np.ones_like(deltas), deltas**2, deltas**4,
                             *nuisance.values()])
    scales = np.max(np.abs(X), axis=0)
    for name, scale in zip(["1", "delta^2", "delta^4", *nuisance], scales):
        if not 0.0 < scale < math.inf:
            raise NumericalError(
                f"the energy fit's design column {name} "
                f"{'underflows to 0' if scale == 0.0 else 'overflows a float'}"
                f" over the sweep [{float(deltas[0])!r}, "
                f"{float(deltas[-1])!r}]")
    Xs = X / scales
    dof = deltas.size - Xs.shape[1]

    U, sv, Vt = np.linalg.svd(Xs, full_matrices=False)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf
    if not math.isfinite(cond) or cond > 1e9:
        lo, hi = float(deltas[0]), float(deltas[-1])
        raise NumericalError(
            f"fit design matrix condition {cond:.3g} too large for the sweep "
            f"[{lo!r}, {hi!r}] ({math.log10(hi) - math.log10(lo):.1f} "
            f"decades, {np.unique(deltas).size} distinct deltas): its "
            "columns are nearly dependent when fewer than 7 deltas are "
            "distinct, when the span is so wide that the high powers of "
            "delta vanish over most of it, or when n is so large that the "
            f"nuisance columns delta^{n - 2} to delta^{n} barely differ")

    try:
        y = np.array(_j_sweep(model, p, deltas.tolist()))
        bad = ~np.isfinite(y)
        if bad.any():
            raise NumericalError(f"J at delta = {float(deltas[bad][0])!r} "
                                 "leaves the float range")
        # the fit runs on y * 2**-k, k the exponent of max|y|, so its
        # residual's square stays in range; a power of two moves no bit
        k = int(np.frexp(np.max(np.abs(y)))[1])
        y = np.ldexp(y, -k)
        with np.errstate(over="ignore", invalid="ignore"):
            coef_s = Vt.T @ ((U.T @ y) / sv)
            coef = coef_s / scales
            resid = y - X @ coef
            rss = float(resid @ resid)
            sigma2 = rss / dof
            # cov of scaled coefs = sigma^2 V S^-2 V^T; unscale per column
            cov_s_diag = np.einsum("ij,j,ij->i", Vt.T, sv**-2.0, Vt.T) * sigma2
            se = np.sqrt(np.maximum(cov_s_diag, 0.0)) / scales
            coef, se = np.ldexp(coef, k), np.ldexp(se, k)
            rms = float(np.ldexp(math.sqrt(rss / deltas.size), k))
        if not np.all(np.isfinite([*coef, *se, rms])):
            raise NumericalError("its fitted values leave the float range")
    except NumericalError as exc:
        raise NumericalError(
            f"the energy fit with h0 = {model.jet.h0!r}, lap_h = "
            f"{model.jet.lap_h!r}: {exc}") from None

    generic2 = 0.5 * max(abs(model.jet.h0),
                         abs(p.c_ns * model.c.scal),
                         1.0) * bubble_moment(p, "mass2")
    generic4 = (abs(model.coeffs["c4"])
                * (0.5 * bubble_moment(p, "r4grad")
                   + bubble_moment(p, "r4crit") / p.crit_exp)
                + (abs(model.jet.lap_h)
                   + abs(model.c.scal * model.jet.h0) / 3.0)
                * bubble_moment(p, "r2mass") / (4.0 * p.n))
    # deviations are relative to |pred| when the prediction is nonzero; a
    # coefficient predicted to (essentially) vanish is measured against the
    # generic magnitude of its order instead, which is the meaningful scale
    denom0 = abs(pred["c0"])  # strictly positive
    denom2 = abs(pred["c2"]) if abs(pred["c2"]) >= 1e-9 * generic2 \
        else generic2
    g4 = max(generic4, 1e-9 * denom0)
    denom4 = abs(pred["c4"]) if abs(pred["c4"]) >= 1e-9 * g4 else g4

    return FitReport(
        c0_fit=float(coef[0]), c2_fit=float(coef[1]), c4_fit=float(coef[2]),
        c0_se=float(se[0]), c2_se=float(se[1]), c4_se=float(se[2]),
        c0_pred=pred["c0"], c2_pred=pred["c2"], c4_pred=pred["c4"],
        c0_dev=float((coef[0] - pred["c0"]) / denom0),
        c2_dev=float((coef[1] - pred["c2"]) / denom2),
        c4_dev=float((coef[2] - pred["c4"]) / denom4),
        condition=cond,
        rms_residual=rms,
        nuisance=dict(zip(nuisance, coef[3:].tolist())),
    )


# --------------------------------------------------------------- remainder


# Gauss-Legendre points on each side of the kink in the trace-free
# remainder's angular integral
ANGULAR_POINTS = 48


@functools.cache
def _graded_rule():
    """ANGULAR_POINTS-point Gauss-Legendre on [0, 1], graded toward 0: nodes
    v**3 and weights 3 v**2 w.  Cached: the arrays are read-only because
    every caller shares them."""
    v, w = np.polynomial.legendre.leggauss(ANGULAR_POINTS)
    v = 0.5 * (v + 1.0)
    x, wx = v**3, 1.5 * v**2 * w
    x.flags.writeable = False
    wx.flags.writeable = False
    return x, wx


def remainder_norm_scaled(c: CurvatureData, p: HSParams, h0: float,
                          delta: float = 1.0) -> float:
    """L^{2n/(n+2)} norm of the concentration-rescaled remainder density

      h0 U_delta + (1/3) Ric_ij sigma^i sigma^j delta^{-(n-2)/2} (r U1')(r/delta).

    The density is the reduction's source W = assemble_w(c, p, h0): a radial
    part h0 U1 + mode0_extra (r U1') and a trace-free part, whose axial
    representative T = mu (e x e - g/n), |T|^2 = mu^2 (n-1)/n, gives a weight
    (u^2 - 1/n) with u = cos t the cosine against the axis.  At each radial
    node the angular integral of |A + B (u^2 - 1/n)/3|^q then runs over
    t in [0, pi/2] with the smooth weight sin^(n-2) t, and its one kink
    sits at cos^2 t* = 1/n - 3A/B (clipped to [0, 1]).  Each side of t* is
    an ANGULAR_POINTS-point Gauss-Legendre sum graded toward t*
    (_graded_rule); where t* is clipped to an end, as at most radial nodes,
    one side has length 0, adds exactly 0 and is not evaluated, and the
    other side's angles, which depend on t* alone, are formed once for all
    the nodes that share it.  The radial integral is adaptive, in x = log r
    over the whole half-line.  The density decays like r**(-(n-2)), so the
    engine gets the declared tail exponent b = q (n-2) and the profile's breaks
    delta beta**(-+1/(2-s)), beta = (n-2)/(2-s), and decides the span from
    them rather than from samples of the integrand.  Integration runs in the
    original radial variable (no delta substitution), so the delta^2
    scaling law is an outcome, not an input.
    """
    p.require("the remainder norm")
    if not (math.isfinite(h0) and math.isfinite(delta) and delta > 0.0):
        raise DomainError("h0 must be finite and delta positive")
    w = assemble_w(c, p, h0)
    n = p.n
    q = 2.0 * n / (n + 2.0)
    mu = math.sqrt(w.t_free_norm2 * n / (n - 1.0))
    if w.a == 0.0 and w.mode0_extra == 0.0 and mu == 0.0:
        return 0.0
    derive_constants(p)  # a kappa overflow is named before the scale's
    omega_inner = sphere_area(n - 1)
    overflow = (f"the remainder density with h0 = {h0!r} at delta = "
                f"{delta!r} leaves the float range")
    try:
        pref = delta ** (-(n - 2.0) / 2.0)
    except OverflowError:
        raise NumericalError(overflow) from None

    def radial_f(r):
        rho = r / delta
        rdu = rdru1(p, rho)
        A = pref * (w.a * u1(p, rho) + w.mode0_extra * rdu)
        if mu == 0.0:
            return np.abs(A) ** q
        B = pref * mu * rdu
        # the kink A + B (cos^2 t - 1/n)/3 = 0; where B underflows to 0
        # there is none, and any split is exact
        ts = np.arccos(np.sqrt(np.clip(
            1.0 / n - np.nan_to_num(3.0 * A / B), 0.0, 1.0)))
        x, wx = _graded_rule()
        out = np.zeros_like(ts)
        for L in (-ts, 0.5 * np.pi - ts):
            # where the kink is clipped to an end, this side has length
            # 0 and adds exactly 0: sum only the nodes where it does not
            on = np.flatnonzero(L)
            # a side's angles depend on its kink alone, and most kinks
            # are clipped to the same end: form the angular factors
            # once per distinct kink
            kinks, first, at = np.unique(ts[on], return_index=True,
                                         return_inverse=True)
            t = L[on[first], None] * x + kinks[:, None]
            vals = (np.abs((np.cos(t) ** 2 - 1.0 / n)[at] * B[on, None] / 3.0
                           + A[on, None]) ** q
                    * (np.sin(t) ** (n - 2.0))[at])
            # one dot per node, so f stays elementwise bit for bit
            out[on] += np.abs(L[on]) * np.vecdot(vals, wx)
        return 2.0 * omega_inner * out

    try:
        total = integrate_radial(RadialIntegrand(
            f=radial_f, a=n - 1.0, b=q * (n - 2.0),
            breaks=power_law_breaks(p, delta)), tol=TOL)["value"]
    except NumericalError as exc:
        if hasattr(exc, "r"):  # the engine's non-finite summand
            raise NumericalError(f"{overflow}: {exc}") from None
        raise
    if total == 0.0:
        # the density is not identically 0, so it, or its product with the
        # weight, underflowed everywhere
        raise NumericalError(overflow)
    if mu == 0.0:
        total *= sphere_area(n)
    if not math.isfinite(total):  # then neither is the norm
        raise NumericalError(overflow)
    return float(total ** (1.0 / q))


def remainder_alpha(c: CurvatureData, p: HSParams, h0: float) -> dict:
    """The normalization constant of the blow-up family.

    alpha_inv = L^{2n/(n+2)} norm of h0 U1 + (1/3) Ric_ij sigma^i sigma^j
    (r U1'); alpha is its reciprocal.  When the density vanishes identically
    (h0 = 0 and Ricci zero at the point) the constant is undefined and the
    degenerate marker is returned instead.
    """
    nrm = remainder_norm_scaled(c, p, h0, 1.0)
    if nrm == 0.0:
        return {"alpha_inv": 0.0, "alpha": None, "degenerate": True}
    return {"alpha_inv": nrm, "alpha": 1.0 / nrm, "degenerate": False}

