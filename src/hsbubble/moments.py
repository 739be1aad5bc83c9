"""Moment integrals of the radial profiles, in closed Beta form.

The base integral is

    I_p^q = int_0^inf t^q (1+t)^{-p} dt = Gamma(q+1) Gamma(p-q-1) / Gamma(p)

(convergent iff p - q > 1 and q > -1) with the recursions

    I_{p+1}^q     = (p-q-1)/p I_p^q,
    I_{p+1}^{q+1} = (q+1)/p   I_p^q.

Every profile moment reduces to prefactor * sum(coef * I_P^q) through the
substitution t = r**(2-s):

    int_0^inf r^a (1 + r^{2-s})^{-P} dr = 1/(2-s) * I_P^{(a+1)/(2-s) - 1}.

One registry, ``_KINDS``, gives each of the nine moment kinds as a profile
function and the power of |X| it adds; ``_profiles`` gives each profile's
kappa power, endpoint exponent, tail exponent and Beta data, and
``_profile_functions`` its integrand factor.  The closed form, the
quadrature and their refusals read nothing else.  Gamma values
are handled in log space so large P (s near 2) cannot overflow.

The log-gamma is ``_lgamma``, a port for x > 0 of Cephes ``lgam`` (S. L.
Moshier, *Methods and Programs for Mathematical Functions*, 1989), the code
behind SciPy's ``gammaln``: same coefficients, same branches, same
operation order, so it returns gammaln's double bit for bit.  ``ipq``
exponentiates with ``math.exp``, so the closed forms run on ``math`` alone
and load neither numpy nor scipy.

An independent quadrature route (``moment_quadrature``) evaluates the same
moments directly in the r variable from the profile closed forms, without the
t-substitution; ``identity_report`` compares the two routes against the six
closed-form ratio identities.  It runs the trapezoidal rule in x = log r
(``quadrature.integrate_log_trapezoid``): a moment integrand has no kink and
no finite end, so the rule converges geometrically and matches the adaptive
engine's accuracy at a fraction of its cost.  The moments weigh four profile
functions, and the identity report's six moments run as one list, so the
rule evaluates each function once per level for all the moments using it.
Only this route needs numpy: ``bubble`` and ``quadrature`` are imported
where it runs.  ``integrate_radial`` still resolves here by name, through
the module ``__getattr__``, because the benchmark's span tracer wraps the
adaptive engine at this site.
"""

from __future__ import annotations

import math

from .errors import DomainError, NumericalError
from .params import DEFAULT_TOL, HSParams, Record, derive_constants, sphere_area


def __getattr__(name):
    # the benchmark's span tracer wraps the adaptive engine at this site by
    # name; ROADMAP item 11 drops the site and this
    if name == "integrate_radial":
        from .quadrature import integrate_radial
        return integrate_radial
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

# kind: (profile, power of |X| it adds), in the order MOMENT_KINDS lists
_KINDS = {
    "mass2": ("mass", 0),     # int U1^2 dX
    "r2mass": ("mass", 2),    # int |X|^2 U1^2 dX
    "gradsq": ("grad", 0),    # int |grad U1|^2 dX
    "r2grad": ("grad", 2),    # int |X|^2 |grad U1|^2 dX
    "r4grad": ("grad", 4),    # int |X|^4 |grad U1|^2 dX
    "crit": ("crit", 0),      # int U1^{2*(s)} |X|^{-s} dX
    "r2crit": ("crit", 2),    # int |X|^{2-s} U1^{2*(s)} dX
    "r4crit": ("crit", 4),    # int |X|^{4-s} U1^{2*(s)} dX
    "z0grad": ("z0grad", 0),  # int |grad Z0|^2 dX
}
MOMENT_KINDS = tuple(_KINDS)


# Cephes lgam coefficients: Stirling series (A), rational (B/C) on [2, 3)
_LGAM_A = (8.11614167470508450300E-4, -5.95061904284301438324E-4,
           7.93650340457716943945E-4, -2.77777777730099687205E-3,
           8.33333333333331927722E-2)
_LGAM_B = (-1.37825152569120859100E3, -3.88016315134637840924E4,
           -3.31612992738871184744E5, -1.16237097492762307383E6,
           -1.72173700820839662146E6, -8.53555664245765465627E5)
_LGAM_C = (-3.51815701436523470549E2, -1.70642106651881159223E4,  # leading 1
           -2.20528590553854454839E5, -1.13933444367982507207E6,
           -2.53252307177582951285E6, -2.01889141433532773231E6)
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))
_MAXLGM = 2.556348e305  # lgam overflows beyond this


def _lgamma(x: float) -> float:
    """log Gamma(x) for x > 0, bit-identical to Cephes lgam (scipy's gammaln).

    Every step keeps Cephes' order of operations; ``math.lgamma`` differs
    in the last bits, which the cancellation in the energy fit amplifies.
    """
    if x < 13.0:
        # shift u = x + p into [2, 3), collecting the Gamma ratio in z
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        x += p - 2.0
        num, den = _LGAM_B[0], x + _LGAM_C[0]
        for b in _LGAM_B[1:]:
            num = num * x + b
        for c in _LGAM_C[1:]:
            den = den * x + c
        return math.log(z) + x * num / den
    if x > _MAXLGM:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p
                     - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    a = _LGAM_A[0]
    for c in _LGAM_A[1:]:
        a = a * p + c
    return q + a / x


def ipq(p: float, q: float) -> float:
    """I_p^q in closed Beta form."""
    if p - q <= 1.0 or q <= -1.0:
        raise DomainError(
            f"I_p^q diverges for p={p}, q={q} (need p - q > 1 and q > -1)")
    return math.exp(_lgamma(q + 1.0) + _lgamma(p - q - 1.0) - _lgamma(p))


def _kind(kind: str) -> tuple:
    """(profile, power of |X|) of a moment kind; refuses an unknown one."""
    try:
        return _KINDS[kind]
    except KeyError:
        raise DomainError(f"unknown moment kind {kind!r}") from None


def _profiles(p: HSParams) -> dict:
    """{profile: ((e, name), (j, c), b, (coef, g_pow, terms))} at (n, s).

    For a kind adding |X|**k the quadrature integrates f r**(n-1+k+j-c s),
    f from ``_profile_functions``: f is O(1) at r = 0 and O(r**-b) at
    infinity (U1 decays like r**-(n-2); U1' r**(s-1), Z0' r**(s-1) and
    U1**2*(s) all give r**-(2(n-s)) once squared), and carries kappa**e,
    which the closed form's refusal names kappa**name.  The
    Beta form is omega coef kappa**e g**g_pow sum(w I_P^(q+dq)) over the
    terms (w, P, dq), q from the same r power and g = 2 - s: 1/g is the
    Jacobian of t = r**(2-s), and Z0' carries g, so its square g**2.
    """
    n, s, m = p.n, float(p.s), p.m
    two, b = (2, "2"), 2.0 * (n - s)
    return {
        "mass": (two, (0, 0), 2.0 * (n - 2),
                 (1, -1, ((1.0, 2.0 * p.beta, 0),))),
        "grad": (two, (2, 2), b, ((n - 2) ** 2, -1, ((1.0, 2.0 * m, 0),))),
        "crit": ((p.crit_exp, "(2*(s))"), (0, 1), b,
                 (1, -1, ((1.0, 2.0 * m, 0),))),
        "z0grad": (two, (2, 2), b, ((0.5 * (n - 2)) ** 2, 1, (
            ((1.0 + m) ** 2, 2.0 * m + 2.0, 0),
            (2.0 * (1.0 + m) * (1.0 - m), 2.0 * m + 2.0, 1),
            ((1.0 - m) ** 2, 2.0 * m + 2.0, 2)))),
    }


def _profile_functions(p: HSParams) -> dict:
    """{profile: f}, the factor of each quadrature integrand on r arrays."""
    from .bubble import u1

    n, s, m = p.n, float(p.s), p.m

    def mass(r):
        return u1(p, r) ** 2

    def grad(r):
        # (U1'(r) r^{s-1})**2: smooth at 0
        t = r ** (2.0 - s)
        return (-p.kappa * (n - 2) * (1.0 + t) ** (-m)) ** 2

    def crit(r):
        return u1(p, r) ** p.crit_exp

    def z0grad(r):
        # Z0' = (n-2)/2 kappa g r^{1-s} (1+t)^{-m-1} [(1+m) + (1-m) t]
        t = r ** (2.0 - s)
        return (0.5 * (n - 2) * p.kappa * (2.0 - s) * (1.0 + t) ** (-m - 1.0)
                * ((1.0 + m) + (1.0 - m) * t)) ** 2

    return {"mass": mass, "grad": grad, "crit": crit, "z0grad": z0grad}


def _reduction(p: HSParams, kind: str):
    """(prefactor, [(coef, P, q), ...]) for one moment tag."""
    name, k = _kind(kind)
    (e, e_name), (j, c), _, (coef, g_pow, terms) = _profiles(p)[name]
    n, s = p.n, float(p.s)
    g = 2.0 - s
    try:
        pref = sphere_area(n) * coef * p.kappa ** e
    except OverflowError:
        raise NumericalError(
            f"the moment prefactor kappa**{e_name} overflows a float at "
            f"n = {n}, s = {s} (kappa = {p.kappa:.6g})") from None
    q = ((n - 1 + k + j) - c * s + 1.0) / g - 1.0
    return (pref * g if g_pow > 0 else pref / g,
            [(w, P, q + dq) for w, P, dq in terms])


def bubble_moment(p: HSParams, kind: str) -> float:
    """Closed Beta-form value of one profile moment."""
    pref, terms = _reduction(p, kind)
    try:
        value = pref * sum(coef * ipq(P, q) for coef, P, q in terms)
    except DomainError as exc:
        raise DomainError(f"moment {kind!r} diverges at (n={p.n}, s={p.s}): {exc}")
    if not math.isfinite(value):
        raise NumericalError(f"the {kind} moment overflows a float at n = "
                             f"{p.n}, s = {float(p.s)} (kappa = {p.kappa:.6g})")
    return value


def moment_quadrature(p: HSParams, kind: str,
                      tol: float = DEFAULT_TOL) -> float:
    """The same moment by direct quadrature in the r variable.

    Deliberately independent of the t-substitution route: the integrands are
    built from the profile closed forms, with the endpoint exponent split off
    so the rule sees a smooth factor.  Each declares its tail exponent and
    the profile's breaks (``bubble.power_law_breaks``), from which the
    trapezoidal rule places its x = log r span: at s = 1.9 the mass reaches
    r ~ 1e17.
    """
    return _moment_runs(p, (kind,), tol)[0]


def _moment_runs(p: HSParams, kinds, tol: float) -> list:
    """moment_quadrature of each kind, as one run of the trapezoidal rule.

    The kinds share one f per profile (``_profile_functions``), so the rule
    calls each once per level for all the kinds that weigh it.  The run ends
    at the first failure it meets, level by level and in input order within
    a level, and raises it for that kind; a quadrature failure is raised
    before a moment that sums to 0.
    """
    from . import quadrature
    from .bubble import power_law_breaks

    n, s = p.n, float(p.s)
    profiles, functions = _profiles(p), _profile_functions(p)
    rows = [(profiles[name], functions[name], k)
            for name, k in map(_kind, kinds)]
    derive_constants(p)  # a kappa overflow is its own error, not the moment's

    def refusal(i, symptom):
        # the integrand carries its profile's kappa**e; where that power
        # overflows, it is the cause, whatever the symptom
        (power, _), cause = rows[i][0][0], ""
        try:
            p.kappa ** power
        except OverflowError:
            cause = (f"; the cause is kappa**{power:.6g}, which overflows a "
                     f"float (kappa = {p.kappa:.3g})")
        return NumericalError(f"the {kinds[i]} moment by quadrature at n = "
                              f"{n}, s = {s}{symptom}{cause}")

    breaks = power_law_breaks(p)
    try:
        runs = quadrature.integrate_log_trapezoid(
            [quadrature.RadialIntegrand(
                f=f, a=(float(n - 1) + k) + (j - c * s), b=b, breaks=breaks)
             for (_, (j, c), b, _), f, k in rows], tol=tol)
    except NumericalError as exc:
        raise refusal(exc.member, f": {exc}") from None
    values = []
    for i, run in enumerate(runs):
        if run["value"] == 0.0:
            # the rule drops integrand values beyond the float range, so a
            # moment whose whole mass lies there sums to 0
            raise refusal(i, f" is {run['value']}: its integrand leaves "
                          "the float range")
        values.append(sphere_area(n) * run["value"])
    return values


class IdentityReport(Record):
    n: int
    s: float
    ratios: dict


# closed-form predictions for the six ratio identities
def _ratio_predictions(p: HSParams) -> dict:
    n, s = p.n, float(p.s)
    d = 2.0 * (2.0 * n - 2.0 - s)
    return {
        "r2grad_over_mass2": n * (n - 2) * (n + 2 - s) / d,
        "r2crit_over_mass2": p.kappa_pow * n * (n - 4) / ((n - 2) * d),
        "r4grad_over_r2mass": (n - 2) * (n + 2) * (n + 4 - s) / d,
        "r4crit_over_r2mass": (n - s) * (n - 6) * (n + 2) / d,
        "fraction0": 6.0 * n * p.c_ns,
        "r4combined": (n + 2) * (n - 2) * (10.0 - s) / d,
    }


def identity_report(p: HSParams, tol: float = DEFAULT_TOL) -> IdentityReport:
    """Quadrature-vs-closed-form check of the six moment-ratio identities.

    fraction0 is r2grad/mass2 - (2/2*(s)) r2crit/mass2 = 6 n c_ns, and
    r4combined is r4grad/r2mass - (2/2*(s)) r4crit/r2mass.  The quadrature
    side uses only the moment_quadrature integrands, its six moments run
    as one trapezoidal rule (a moment there may differ from
    moment_quadrature's by the integrand's roundoff, since it sums on the
    union of the six spans); the closed-form side only rational arithmetic
    on (n, s).  Requires n >= 7 so all six ratios are finite; every s in
    [0, 2) is accepted, the Yamabe limit s = 0 included.
    """
    p.require("the identity report")
    kinds = ("mass2", "r2mass", "r2grad", "r4grad", "r2crit", "r4crit")
    q = dict(zip(kinds, _moment_runs(p, kinds, tol)))
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
    return IdentityReport(n=p.n, s=float(p.s), ratios=ratios)
