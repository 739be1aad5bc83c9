"""Moment integrals of the radial profiles, in closed Beta form.

The base integral is

    I_p^q = int_0^inf t^q (1+t)^{-p} dt = Gamma(q+1) Gamma(p-q-1) / Gamma(p)

(convergent iff p - q > 1 and q > -1) with the recursions

    I_{p+1}^q     = (p-q-1)/p I_p^q,
    I_{p+1}^{q+1} = (q+1)/p   I_p^q.

Every profile moment reduces to prefactor * sum(coef * I_P^q) through the
substitution t = r**(2-s):

    int_0^inf r^a (1 + r^{2-s})^{-P} dr = 1/(2-s) * I_P^{(a+1)/(2-s) - 1}.

The registry ``_REDUCTIONS`` is the single audited location of that
bookkeeping: each tag maps (n, s) to (prefactor, [(coef, P, q), ...]) where
the prefactor carries the sphere area omega_{n-1}, the kappa powers, and the
1/(2-s) Jacobian.  Gamma values are handled in log space so large P (s near
2) cannot overflow.

An independent quadrature route (``moment_quadrature``) evaluates the same
moments directly in the r variable from the profile closed forms, without the
t-substitution; ``identity_report`` compares the two routes against the six
closed-form ratio identities.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import bubble
from .errors import DomainError
from .params import HSParams, derive_constants, sphere_area
from .quadrature import RadialIntegrand, integrate_radial

MOMENT_KINDS = (
    "mass2",    # int U1^2 dX
    "r2mass",   # int |X|^2 U1^2 dX
    "gradsq",   # int |grad U1|^2 dX
    "r2grad",   # int |X|^2 |grad U1|^2 dX
    "r4grad",   # int |X|^4 |grad U1|^2 dX
    "crit",     # int U1^{2*(s)} |X|^{-s} dX
    "r2crit",   # int |X|^{2-s} U1^{2*(s)} dX
    "r4crit",   # int |X|^{4-s} U1^{2*(s)} dX
    "z0grad",   # int |grad Z0|^2 dX
)


def ipq(p: float, q: float) -> float:
    """I_p^q in closed Beta form."""
    from scipy.special import gammaln

    if p - q <= 1.0 or q <= -1.0:
        raise DomainError(
            f"I_p^q diverges for p={p}, q={q} (need p - q > 1 and q > -1)")
    return float(np.exp(gammaln(q + 1.0) + gammaln(p - q - 1.0) - gammaln(p)))


def _reduction(p: HSParams, kind: str):
    """(prefactor, [(coef, P, q), ...]) for one moment tag."""
    n, s = p.n, float(p.s)
    c = derive_constants(p)
    omega = sphere_area(n)
    g = 2.0 - s
    m = (n - s) / g           # tail exponent of (1+t) in U1'
    two_beta = 2.0 * (n - 2) / g

    def q_of(a):
        return (a + 1.0) / g - 1.0

    if kind == "mass2":
        return omega * c.kappa**2 / g, [(1.0, two_beta, q_of(n - 1))]
    if kind == "r2mass":
        return omega * c.kappa**2 / g, [(1.0, two_beta, q_of(n + 1))]
    if kind == "gradsq":
        pref = omega * (n - 2) ** 2 * c.kappa**2 / g
        return pref, [(1.0, 2.0 * m, q_of(n + 1 - 2 * s))]
    if kind == "r2grad":
        pref = omega * (n - 2) ** 2 * c.kappa**2 / g
        return pref, [(1.0, 2.0 * m, q_of(n + 3 - 2 * s))]
    if kind == "r4grad":
        pref = omega * (n - 2) ** 2 * c.kappa**2 / g
        return pref, [(1.0, 2.0 * m, q_of(n + 5 - 2 * s))]
    if kind == "crit":
        pref = omega * c.kappa**p.crit_exp / g
        return pref, [(1.0, 2.0 * m, q_of(n - 1 - s))]
    if kind == "r2crit":
        pref = omega * c.kappa**p.crit_exp / g
        return pref, [(1.0, 2.0 * m, q_of(n + 1 - s))]
    if kind == "r4crit":
        pref = omega * c.kappa**p.crit_exp / g
        return pref, [(1.0, 2.0 * m, q_of(n + 3 - s))]
    if kind == "z0grad":
        # Z0' = (n-2)/2 kappa g r^{1-s} (1+t)^{-m-1} [(1+m) + (1-m) t]
        pref = omega * (0.5 * (n - 2)) ** 2 * c.kappa**2 * g
        q0 = q_of(n + 1 - 2 * s)
        return pref, [
            ((1.0 + m) ** 2, 2.0 * m + 2.0, q0),
            (2.0 * (1.0 + m) * (1.0 - m), 2.0 * m + 2.0, q0 + 1.0),
            ((1.0 - m) ** 2, 2.0 * m + 2.0, q0 + 2.0),
        ]
    raise DomainError(f"unknown moment kind {kind!r}")


def bubble_moment(p: HSParams, kind: str) -> float:
    """Closed Beta-form value of one profile moment."""
    pref, terms = _reduction(p, kind)
    try:
        return pref * sum(coef * ipq(P, q) for coef, P, q in terms)
    except DomainError as exc:
        raise DomainError(f"moment {kind!r} diverges at (n={p.n}, s={p.s}): {exc}")


def moment_quadrature(p: HSParams, kind: str, tol: float = 1e-10) -> float:
    """The same moment by direct adaptive quadrature in the r variable.

    Deliberately independent of the t-substitution route: the integrands are
    built from the profile closed forms, with the endpoint exponent split off
    so the engine sees a smooth factor.
    """
    n, s = p.n, float(p.s)
    a = float(n - 1)

    def du_smooth(r):
        # U1'(r) * r^{s-1}: smooth at 0
        t = r ** (2.0 - s)
        return -p.kappa * (n - 2) * (1.0 + t) ** (-(n - s) / (2.0 - s))

    def dz_smooth(r):
        m = (n - s) / (2.0 - s)
        t = r ** (2.0 - s)
        return 0.5 * (n - 2) * p.kappa * (2.0 - s) * (1.0 + t) ** (-m - 1.0) \
            * ((1.0 + m) + (1.0 - m) * t)

    table = {
        "mass2": (lambda r: bubble.u1(p, r) ** 2, a, 0.0),
        "r2mass": (lambda r: bubble.u1(p, r) ** 2, a + 2.0, 0.0),
        "gradsq": (lambda r: du_smooth(r) ** 2, a, 2.0 - 2.0 * s),
        "r2grad": (lambda r: du_smooth(r) ** 2, a + 2.0, 2.0 - 2.0 * s),
        "r4grad": (lambda r: du_smooth(r) ** 2, a + 4.0, 2.0 - 2.0 * s),
        "crit": (lambda r: bubble.u1(p, r) ** p.crit_exp, a, -s),
        "r2crit": (lambda r: bubble.u1(p, r) ** p.crit_exp, a + 2.0, -s),
        "r4crit": (lambda r: bubble.u1(p, r) ** p.crit_exp, a + 4.0, -s),
        "z0grad": (lambda r: dz_smooth(r) ** 2, a, 2.0 - 2.0 * s),
    }
    if kind not in table:
        raise DomainError(f"unknown moment kind {kind!r}")
    f, aa, sing = table[kind]
    res = integrate_radial(RadialIntegrand(f=f, a=aa, sing=sing), tol=tol)
    return sphere_area(n) * res["value"]


@dataclass
class IdentityReport:
    n: int
    s: float
    ratios: dict
    elapsed_seconds: float


# closed-form predictions for the six ratio identities
def _ratio_predictions(p: HSParams) -> dict:
    n, s = p.n, float(p.s)
    c = derive_constants(p)
    d = 2.0 * (2.0 * n - 2.0 - s)
    return {
        "r2grad_over_mass2": n * (n - 2) * (n + 2 - s) / d,
        "r2crit_over_mass2": c.kappa_pow * n * (n - 4) / ((n - 2) * d),
        "r4grad_over_r2mass": (n - 2) * (n + 2) * (n + 4 - s) / d,
        "r4crit_over_r2mass": (n - s) * (n - 6) * (n + 2) / d,
        "fraction0": 6.0 * n * c.c_ns,
        "r4combined": (n + 2) * (n - 2) * (10.0 - s) / d,
    }


def identity_report(p: HSParams, tol: float = 1e-10) -> IdentityReport:
    """Quadrature-vs-closed-form check of the six moment-ratio identities.

    fraction0 is r2grad/mass2 - (2/2*(s)) r2crit/mass2 = 6 n c_ns, and
    r4combined is r4grad/r2mass - (2/2*(s)) r4crit/r2mass.  The quadrature
    side uses only moment_quadrature; the closed-form side only rational
    arithmetic on (n, s).  Requires n >= 7 so all six ratios are finite.
    """
    if p.n < 7:
        raise DomainError(f"identity report needs n >= 7 (r4 moments), got n={p.n}")
    if not (0.0 < p.s < 2.0):
        raise DomainError(f"identity report needs s in (0, 2), got s={p.s}")

    t0 = time.perf_counter()
    q = {kind: moment_quadrature(p, kind, tol=tol)
         for kind in ("mass2", "r2mass", "r2grad", "r4grad", "r2crit", "r4crit")}
    two_over_crit = 2.0 / p.crit_exp
    measured = {
        "r2grad_over_mass2": q["r2grad"] / q["mass2"],
        "r2crit_over_mass2": q["r2crit"] / q["mass2"],
        "r4grad_over_r2mass": q["r4grad"] / q["r2mass"],
        "r4crit_over_r2mass": q["r4crit"] / q["r2mass"],
    }
    measured["fraction0"] = (
        measured["r2grad_over_mass2"] - two_over_crit * measured["r2crit_over_mass2"])
    measured["r4combined"] = (
        measured["r4grad_over_r2mass"] - two_over_crit * measured["r4crit_over_r2mass"])
    elapsed = time.perf_counter() - t0

    predicted = _ratio_predictions(p)
    ratios = {}
    for name, pred in predicted.items():
        got = measured[name]
        ratios[name] = {
            "quadrature": got,
            "closed_form": pred,
            "abs_residual": abs(got - pred),
            "rel_residual": abs(got - pred) / abs(pred),
        }
    return IdentityReport(n=p.n, s=float(p.s), ratios=ratios,
                          elapsed_seconds=elapsed)
