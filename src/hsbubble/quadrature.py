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

  * infinite domains are compactified by u = r/(1+r), r = u/(1-u),
    dr = du/(1-u)^2, turning algebraic tails r**(-beta) into endpoint
    behaviour (1-u)**(beta-2) at u = 1;
  * the initial partition is geometrically graded toward both endpoints
    (panel edges at 2**-j), which resolves r**(a+sing) singularities at 0 and
    slow algebraic tails at infinity without weight-specific rules;
  * the panel with the largest |K15 - G7| discrepancy is bisected until the
    accumulated discrepancy drops below tol * |I|, a roundoff floor is hit,
    or the evaluation budget runs out.

The integrand is called on many panels' nodes at once: one call on the nodes
of every initial panel (61 panels on a finite domain, 108 on an infinite
one), then one call per bisection on the 30 nodes of both halves.  f must
therefore be elementwise over a 1-D numpy array: each output may depend only
on the r at the same position.  The K15 rule is open (no endpoint nodes), so
f is never called at r = 0 or u = 1.
"""

from dataclasses import dataclass
from heapq import heappush, heappop
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, NumericalError

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
_TAIL_LEVELS = 48         # grading depth toward u = 1 (float spacing limit)


@dataclass
class RadialIntegrand:
    """Integrand f(r) * r**(a + sing) on [0, R] (R = None means infinity).

    `a` is the geometric weight power and `sing` the extra endpoint exponent;
    they are kept separate purely as bookkeeping for callers.  `f` must be
    elementwise over 1-D numpy arrays of r > 0.
    """

    f: Callable[[np.ndarray], np.ndarray]
    a: float = 0.0
    sing: float = 0.0
    R: Optional[float] = None


def _panels(g, lo, hi):
    """15-point Kronrod and embedded 7-point Gauss sums on panels [lo[i], hi[i]].

    g is called once, on the nodes of every panel.  The sums stay one dot
    product per panel: a single matrix product over all panels may sum in a
    different order and move the last bit of each panel value.  Yields
    (k15, |k15 - g7|, |k15| sum) per panel, in order.
    """
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    x = c[:, None] + h[:, None] * _NODES
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        y = np.asarray(g(x.ravel()), dtype=float).reshape(x.shape)
    y = np.where(np.isfinite(y), y, 0.0)  # underflow/rounding guard at u -> 1
    for hk, yk, ak in zip(h.tolist(), y, np.abs(y)):
        k15 = hk * float(_W15 @ yk)
        g7 = hk * float(_W7 @ yk)
        yield k15, abs(k15 - g7), hk * float(_W15 @ ak)


def _tail_slope(g):
    """Crude log-log decay slope of g at large r (divergence screen)."""
    rs = np.array([1e3, 1e4, 1e5, 1e6])
    vals = np.abs(np.asarray(g(rs), dtype=float))
    if np.all(vals < 1e-290):
        return -np.inf  # effectively compactly supported
    good = vals > 0
    if good.sum() < 2:
        return -np.inf
    lr, lv = np.log(rs[good]), np.log(vals[good])
    return (lv[-1] - lv[0]) / (lr[-1] - lr[0])


def integrate_radial(integrand: RadialIntegrand, tol: float = 1e-10,
                     budget: int = PANEL_BUDGET) -> dict:
    """Adaptive evaluation of the radial integral.

    Returns {"value", "error_estimate", "evaluations"}; on success
    error_estimate <= tol * |value| (or sits at the roundoff floor).  Raises
    DomainError when the integrand is divergent (endpoint exponent <= -1, or
    a non-decaying tail on an infinite domain) and NumericalError when the
    panel budget is exhausted before the tolerance is met.

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
        slope = _tail_slope(g)
        if slope >= -1.001:
            raise DomainError(
                f"integrand decays like r**({slope:.3f}) at infinity; "
                "integral diverges")

        def gu(u):
            r = u / (1.0 - u)
            return g(r) / (1.0 - u) ** 2

        lo_edges = [0.0] + [2.0 ** -j for j in range(_GRADE_LEVELS, 0, -1)]
        hi_edges = [1.0 - 2.0 ** -j for j in range(1, _TAIL_LEVELS + 1)] + [1.0]
        edges = np.array(lo_edges + hi_edges[1:])
        target = gu
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
        if evals + 30 > budget:
            raise NumericalError(
                f"quadrature budget of {budget} evaluations exhausted; "
                f"error estimate {err_total:.3e} vs target "
                f"{tol * abs(total):.3e}")
        neg_err, _, lo, hi, val, err = heappop(heap)
        total -= val
        err_total -= err
        mid = 0.5 * (lo + hi)
        push([lo, mid], [mid, hi])

    return {"value": total, "error_estimate": err_total, "evaluations": evals}
