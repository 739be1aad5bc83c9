"""Adaptive quadrature for singular/decaying radial integrands.

Every integral in the package has the shape

    I = int_0^R  f(r) * r**(a + sing)  dr,        R finite or infinite,

with f smooth on (0, oo), a the geometric weight power (something like n-1),
and sing a possibly negative endpoint exponent at r = 0 (something like -s).
The combined power a + sing must exceed -1 or the integral diverges at the
origin.

Engine
------
Plain adaptive Gauss-Kronrod (G7, K15) on panels:

  * an infinite domain runs in x = log r (int g(r) dr = int g(e^x) e^x dx),
    where the power laws at 0 and at infinity are exponentials; its span is
    set from the exponents and break radii the caller declares (see
    RadialIntegrand), in uniform panels about 2 wide plus an edge at each
    break;
  * a finite domain [0, R] is geometrically graded toward r = 0 (panel edges
    at R 2**-j), which resolves r**(a+sing) singularities without
    weight-specific rules;
  * the panel with the largest |K15 - G7| discrepancy is bisected until the
    accumulated discrepancy drops below tol * |I| or a roundoff floor is
    hit; an exhausted budget or a non-finite panel sum is an error.

The integrand is called on many panels' nodes at once: one call on the nodes
of every initial panel, then one call per bisection on the 30 nodes of both
halves.  f must therefore be elementwise over a 1-D numpy array: each output
may depend only on the r at the same position.  The K15 rule is open (no
endpoint nodes), so f is never called at r = 0.
"""

from dataclasses import dataclass
from heapq import heappush, heappop
from math import ceil, inf, isfinite, log
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, NumericalError
from .params import DEFAULT_TOL

# 15-point Kronrod extension of 7-point Gauss (positive half; the rule is
# symmetric).  Classic tabulated values.
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# full 15-node array in [-1, 1] and both weight vectors aligned with it
_NODES = np.sort(np.concatenate([-_XGK[:-1], _XGK]))
_W15 = np.empty(15)
_W7 = np.zeros(15)
for _i, _x in enumerate(_NODES):
    _j = int(np.argmin(np.abs(_XGK - abs(_x))))
    _W15[_i] = _WGK[_j]
    if _j % 2 == 1:  # odd Kronrod indices are the original Gauss nodes
        _W7[_i] = _WG[(_j - 1) // 2]

PANEL_BUDGET = 1_000_000  # function evaluations
_GRADE_LEVELS = 60        # initial geometric grading depth toward r = 0
_X_WIDTH = 2.0            # initial panel width in x = log r (infinite domain)
_LOG_EPS = -log(float(np.finfo(float).eps))  # e-folds down to float eps
_LOG_MAX = log(float(np.finfo(float).max))   # largest x with e**x finite


@dataclass
class RadialIntegrand:
    """Integrand f(r) * r**(a + sing) on [0, R] (R = None means infinity).

    `a` is the geometric weight power and `sing` the extra endpoint exponent;
    they are kept separate purely as bookkeeping for callers.  `f` must be
    elementwise over 1-D numpy arrays of r > 0.

    On an infinite domain `b` declares the tail, f = O(r**-b), and `breaks`
    the radii where f leaves its power laws: f = O(1) holds below the first
    and f ~ r**-b above the last, within a factor of order one.  The span
    in x = log r runs from where the first law, to where the second, has
    fallen by float eps.  Without breaks, or without b at the tail end, it
    runs as far as the weight r**(a + sing + 1) stays in the float range,
    and without b no divergence at infinity is decided.
    """

    f: Callable[[np.ndarray], np.ndarray]
    a: float = 0.0
    sing: float = 0.0
    R: Optional[float] = None
    b: Optional[float] = None
    breaks: Sequence[float] = ()


def _panels(g, lo, hi):
    """15-point Kronrod and embedded 7-point Gauss sums on panels [lo[i], hi[i]].

    g is called once, on the nodes of every panel.  The sums stay one dot
    product per panel: a single matrix product over all panels may sum in a
    different order and move the last bit of each panel value.  Returns
    (k15, |k15 - g7|, |k15| sum) per panel, in order; a sum may overflow.
    """
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    x = c[:, None] + h[:, None] * _NODES
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        y = np.asarray(g(x.ravel()), dtype=float).reshape(x.shape)
        y = np.where(np.isfinite(y), y, 0.0)  # an overflowing weight times 0
        return [(k15 := hk * float(_W15 @ yk), abs(k15 - hk * float(_W7 @ yk)),
                 hk * float(_W15 @ ak))
                for hk, yk, ak in zip(h.tolist(), y, np.abs(y))]


def _log_edges(power, b, breaks):
    """Initial x = log r edges: each end is where its power law in x,
    e**((power+1) x) or e**((power+1-b) x) anchored at the nearest break,
    has fallen by float eps, or, undeclared, where the weight
    e**((power+1) x) leaves the float range."""
    if not all(0.0 < r < inf for r in breaks):
        raise NumericalError(f"the break points {list(breaks)} of a radial "
                             "integrand must be positive and finite")
    wide = _LOG_MAX / max(power + 1.0, 1.0)
    xb = np.log(np.asarray(breaks, dtype=float))
    lo, hi = -wide, wide
    if len(xb):
        lo = max(float(xb.min()) - _LOG_EPS / (power + 1.0), -wide)
        if b is not None:
            hi = float(xb.max()) + _LOG_EPS / (b - power - 1.0)
    count = max(1, ceil((hi - lo) / _X_WIDTH))
    return np.union1d(np.linspace(lo, hi, count + 1),
                      xb[(xb > lo) & (xb < hi)])


def integrate_radial(integrand: RadialIntegrand,
                     tol: float = DEFAULT_TOL) -> dict:
    """Adaptive evaluation of the radial integral.

    Returns {"value", "error_estimate", "evaluations"}; on success
    error_estimate <= tol * |value| (or sits at the roundoff floor).  Raises
    DomainError when the integrand is divergent (endpoint exponent <= -1, or
    a declared tail exponent a + sing - b >= -1 on an infinite domain) and
    NumericalError when a panel sum is not finite or PANEL_BUDGET runs out
    before convergence.

    integrand.f is called on the nodes of many panels at once (all initial
    panels in one call, then both halves of each bisection), so it must be
    elementwise: a value may not depend on the array's length or on the
    other points in it.
    """
    if not 0.0 <= tol < np.inf:
        raise DomainError(f"quadrature tolerance must be finite and >= 0, "
                          f"got tol={tol}")
    power = integrand.a + integrand.sing
    if power <= -1.0:
        raise DomainError(
            f"r**({power}) is not integrable at 0 (need exponent > -1)")

    def g(r):
        return integrand.f(r) * r ** power

    if integrand.R is None:
        b = integrand.b
        if b is not None and power - b >= -1.0:
            raise DomainError(
                f"the integrand decays like r**({power - b}) at infinity; "
                "integral diverges (need exponent < -1)")

        def target(x):
            r = np.exp(x)
            return g(r) * r

        edges = _log_edges(power, b, integrand.breaks)
    else:
        if integrand.R <= 0:
            raise DomainError("domain radius must be positive")
        R = float(integrand.R)
        edges = R * np.array(
            [0.0] + [2.0 ** -j for j in range(_GRADE_LEVELS, -1, -1)])
        target = g

    heap = []
    serial = 0
    total, err_total, abs_total, evals = 0.0, 0.0, 0.0, 0
    eps = float(np.finfo(float).eps)

    def push(lo, hi):
        # lo, hi: lists of edge floats; a bisection hands its panel's own edge
        # objects on, so a long heap holds one float per edge, not per entry
        nonlocal serial, total, err_total, abs_total, evals
        sums = _panels(target, np.array(lo), np.array(hi))
        for plo, phi, (val, err, kabs) in zip(lo, hi, sums):
            if not (isfinite(err) and isfinite(kabs)):  # err is, if val is
                raise NumericalError(f"a quadrature panel sum on [{plo:.6g}, "
                                     f"{phi:.6g}] leaves the float range")
            total += val
            err_total += err
            abs_total += kabs
            evals += 15
            # stop refining panels at the roundoff floor or of negligible width
            dead = (err <= 30.0 * eps * kabs) or \
                (phi - plo <= 1e-15 * max(abs(phi), 1e-250))
            if not dead:
                heappush(heap, (-err, serial, plo, phi, val, err))
                serial += 1

    edges = edges.tolist()
    push(edges[:-1], edges[1:])

    def converged():
        scale = max(abs(total), 1e-300)
        return err_total <= tol * scale or err_total <= 50.0 * eps * abs_total

    while heap and not converged():
        if evals + 30 > PANEL_BUDGET:
            raise NumericalError(
                f"quadrature budget of {PANEL_BUDGET} evaluations exhausted; "
                f"error estimate {err_total:.3e} vs target "
                f"{tol * abs(total):.3e}")
        neg_err, _, lo, hi, val, err = heappop(heap)
        total -= val
        err_total -= err
        mid = 0.5 * (lo + hi)
        push([lo, mid], [mid, hi])

    return {"value": total, "error_estimate": err_total, "evaluations": evals}
