"""Quadrature for singular/decaying radial integrands.

Every integral in the package has the shape

    I = int_0^R  f(r) * r**a  dr,        R finite or infinite,

with f smooth on (0, oo) and a the weight power: the geometric power
(something like n-1) plus any endpoint exponent at r = 0 (something like
-s).  a must exceed -1 or the integral diverges at the origin.

Two rules serve them.

Trapezoidal rule in x = log r (integrate_log_trapezoid)
-------------------------------------------------------
For a half-line integrand that declares its tail exponent and breaks and is
analytic in a strip about the real x axis, as the profile moments are.
There its power laws at 0 and at infinity decay exponentially in x, and the
plain trapezoidal rule converges geometrically in 1/h (Trefethen &
Weideman, SIAM Rev. 56, 2014).  Nested levels give the h versus 2h
difference as a deterministic error estimate.  A kink (the remainders'
|A|**q) or a finite end breaks that convergence, so those integrands keep
the adaptive engine.

Adaptive engine (integrate_radial, integrate_radial_batch)
----------------------------------------------------------
Plain adaptive Gauss-Kronrod (G7, K15) on panels:

  * an infinite domain runs in x = log r (int g(r) dr = int g(e^x) e^x dx),
    where the power laws at 0 and at infinity are exponentials; its span is
    set from the exponents and break radii the caller declares (see
    RadialIntegrand), in uniform panels about 2 wide plus an edge at each
    break;
  * a finite domain [0, R] is geometrically graded toward r = 0 (panel edges
    at R 2**-j), which resolves r**a singularities without weight-specific
    rules;
  * the panel with the largest |K15 - G7| discrepancy is bisected until the
    accumulated discrepancy drops below tol * |I| or a roundoff floor is
    hit; an exhausted budget or a non-finite panel sum is an error, and so
    is an undeclared tail end whose outermost panel still holds more than
    tol * |I| (the integral may diverge there).

integrate_radial_batch runs several integrands in lockstep.  Each keeps its
own panels, heap, stopping rule and budget, so its result is exactly that of
a run of its own; in each round every unconverged member bisects its worst
panel, and the nodes of all members that share an integrand function (and
weight power and domain kind) go to that function in one call.  The first
round calls it on the nodes of every initial panel.  f must therefore be
elementwise over a 1-D numpy array: each output may depend only on the r
(and the arg, see RadialIntegrand) at the same position.  The K15 rule is
open (no endpoint nodes), so f is never called at r = 0.  A failing member
ends the batch: every divergence screen runs, in input order, before any f
call, and after them the first DomainError or NumericalError met, round by
round in the order the groups are summed, is raised.  The panel edges,
the heap and the running sums are Python floats; numpy evaluates the
integrand and the panel sums, under one error-state scope per batch.
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

# full 15-node array in [-1, 1], ascending, and both weight vectors aligned
# with it; the Gauss nodes are the odd Kronrod ones
_NODES = np.concatenate((-_XGK[:-1], _XGK[::-1]))
_W15 = np.concatenate((_WGK[:-1], _WGK[::-1]))
_W7 = np.zeros(15)
_W7[1::2] = np.concatenate((_WG[:-1], _WG[::-1]))

PANEL_BUDGET = 1_000_000  # function evaluations
_GRADE_LEVELS = 60        # initial geometric grading depth toward r = 0
_X_WIDTH = 2.0            # initial panel width in x = log r (infinite domain)
_EPS = float(np.finfo(float).eps)
_LOG_EPS = -log(_EPS)                        # e-folds down to float eps
_LOG_MAX = log(float(np.finfo(float).max))   # largest x with e**x finite
_DEAD = 30.0 * _EPS       # a panel with err <= _DEAD * |panel| is at roundoff
_ROUNDOFF = 50.0 * _EPS   # both rules' roundoff floor, relative to the value
# initial finite-domain edges on [0, 1], graded toward r = 0
_GRADE = [0.0] + [2.0 ** -j for j in range(_GRADE_LEVELS, -1, -1)]
_TRAP_STEP = 0.5          # coarsest step of the trapezoidal rule in x = log r
_TRAP_HALVINGS = 12       # its step halvings before it gives up


@dataclass
class RadialIntegrand:
    """Integrand f(r) * r**a on [0, R] (R = None means infinity).

    `a` is the whole weight power, endpoint exponent included.  `f` must be
    elementwise over 1-D numpy arrays of r > 0.  With `arg` set, f is called
    as f(r, arg), arg an array of r's shape holding the value at every node,
    so the members of a batch that share f evaluate in one call.

    On an infinite domain `b` declares the tail, f = O(r**-b), and `breaks`
    the radii where f leaves its power laws: f = O(1) holds below the first
    and f ~ r**-b above the last, within a factor of order one.  The span
    in x = log r runs from where the first law, to where the second, has
    fallen by float eps.  Without breaks, or without b at the tail end, it
    runs as far as the weight r**(a + 1) stays in the float range;
    without b, an outermost panel holding more than tol * |I| is refused
    as a possible divergence.
    """

    f: Callable[..., np.ndarray]
    a: float = 0.0
    R: Optional[float] = None
    b: Optional[float] = None
    breaks: Sequence[float] = ()
    arg: Optional[float] = None


def _panels(g, lo, hi, arg):
    """15-point Kronrod and embedded 7-point Gauss sums on panels [lo[i], hi[i]].

    g is called once, on the nodes of every panel, and given arg[i] at
    panel i's nodes unless arg is None.  Each sum is one np.vecdot over the
    panels: it runs numpy's dot loop once per panel, the same sequential
    BLAS ddot as a dot product on that panel alone, so each panel's sums
    match a panel integrated alone bit for bit (a matrix product over all
    panels may block its sums differently and move the last bit).  Returns
    (k15, |k15 - g7|, |k15| sum) per panel as arrays; a sum may overflow.
    The caller sets numpy's error state: g's overflows and 0 * inf are
    expected here.
    """
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    x = (c[:, None] + h[:, None] * _NODES).ravel()
    extra = () if arg is None else (np.repeat(arg, _NODES.size),)
    y = _finite(np.asarray(g(x, *extra), dtype=float)
                .reshape(-1, _NODES.size))
    k15 = h * np.vecdot(y, _W15)
    return (k15, np.abs(k15 - h * np.vecdot(y, _W7)),
            h * np.vecdot(np.abs(y), _W15))


def _finite(y):
    """y with each non-finite value, an overflowing weight times 0, as 0."""
    return np.where(np.isfinite(y), y, 0.0)


def _log_span(power, b, breaks):
    """(lo, hi, xb): the x = log r span of an infinite domain and the breaks
    in x, xb a list of floats.  A declared end is where its power law in x,
    e**((power+1) x) or e**((power+1-b) x) anchored at the nearest break,
    has fallen by float eps, and no lower than x = -_LOG_MAX, so r = e**x
    stays a positive float; an undeclared end is where the weight
    e**((power+1) x) leaves the float range."""
    if not all(0.0 < r < inf for r in breaks):
        raise NumericalError(f"the break points {list(breaks)} of a radial "
                             "integrand must be positive and finite")
    wide = _LOG_MAX / max(power + 1.0, 1.0)
    # np.log, not math.log: the two differ in the last bit of a few inputs
    xb = np.log(np.asarray(breaks, dtype=float)).tolist()
    lo, hi = -wide, wide
    if xb:
        lo = max(min(xb) - _LOG_EPS / (power + 1.0), -_LOG_MAX)
        if b is not None:
            hi = max(xb) + _LOG_EPS / (b - power - 1.0)
    return lo, hi, xb


def _log_edges(power, b, breaks):
    """Initial x = log r edges of the adaptive engine, as a sorted list of
    floats: uniform edges about _X_WIDTH apart fill _log_span's span, as
    np.linspace places them, and every break inside it is an edge too."""
    lo, hi, xb = _log_span(power, b, breaks)
    count = max(1, ceil((hi - lo) / _X_WIDTH))
    step = (hi - lo) / count
    edges = [i * step + lo for i in range(count)] + [hi]
    return sorted(set(edges + [x for x in xb if lo < x < hi]))


def _summand(f, power, log):
    """The function the panels sum: f(r) r**power, times r more in x = log r."""
    def g(x, *arg):
        r = np.exp(x) if log else x
        y = f(r, *arg) * r ** power
        return y * r if log else y
    return g


def _check_tol(tol):
    if not 0.0 <= tol < inf:
        raise DomainError(f"quadrature tolerance must be finite and >= 0, "
                          f"got tol={tol}")


def _refuse_divergence(power, b):
    """The divergence screens, decided from the declaration alone: r**power
    at 0 and, with b declared, r**(power - b) at infinity."""
    if power <= -1.0:
        raise DomainError(
            f"r**({power}) is not integrable at 0 (need exponent > -1)")
    if b is not None and power - b >= -1.0:
        raise DomainError(
            f"the integrand decays like r**({power - b}) at infinity; "
            "integral diverges (need exponent < -1)")


class _Run:
    """The adaptive state of one integrand: its panel heap, serial numbers,
    running sums and stopping rule, as in a run of its own.  `todo` holds
    the (lo, hi) edge lists of the panels to sum next, None once done.
    Edges and sums are Python floats throughout."""

    def __init__(self, integrand: RadialIntegrand, tol: float):
        power = integrand.a
        log = integrand.R is None
        _refuse_divergence(power, integrand.b if log else None)
        self.tail_end = None  # x of an undeclared tail end
        if log:
            edges = _log_edges(power, integrand.b, integrand.breaks)
            if integrand.b is None:
                self.tail_end = edges[-1]
        else:
            if integrand.R <= 0:
                raise DomainError("domain radius must be positive")
            edges = [integrand.R * g for g in _GRADE]
        # members with one key are summed in one call of one summand
        self.key = (id(integrand.f), power, log, integrand.arg is None)
        self.g = _summand(integrand.f, power, log)
        self.arg = integrand.arg
        self.tol = tol
        self.heap = []
        self.serial = 0
        self.total, self.err_total, self.abs_total = 0.0, 0.0, 0.0
        self.evals = 0
        self.outer = 0.0  # value of the panel at tail_end
        self.todo = (edges[:-1], edges[1:])

    def push(self, sums):
        # a bisection hands its panel's own edge objects on, so a long heap
        # holds one float per edge, not per entry.  The loop keeps the books
        # in locals; after a raise the batch ends and nothing reads them.
        los, his = self.todo
        total, err_total, abs_total = self.total, self.err_total, self.abs_total
        heap, serial, tail_end = self.heap, self.serial, self.tail_end
        for plo, phi, val, err, kabs in zip(los, his, *sums):
            if not (isfinite(err) and isfinite(kabs)):  # err is, if val is
                raise NumericalError(f"a quadrature panel sum on [{plo:.6g}, "
                                     f"{phi:.6g}] leaves the float range")
            total += val
            err_total += err
            abs_total += kabs
            if phi == tail_end:
                self.outer = val
            # stop refining panels at the roundoff floor or of negligible width
            dead = (err <= _DEAD * kabs) or \
                (phi - plo <= 1e-15 * max(abs(phi), 1e-250))
            if not dead:
                heappush(heap, (-err, serial, plo, phi, val, err))
                serial += 1
        self.total, self.err_total, self.abs_total = total, err_total, abs_total
        self.serial = serial
        self.evals += 15 * len(los)

    def bisect(self):
        """Set todo to the halves of the worst panel, or to None once the
        sums have converged or no panel is left to refine."""
        self.todo = None
        scale = max(abs(self.total), 1e-300)
        if not self.heap or self.err_total <= self.tol * scale or \
                self.err_total <= _ROUNDOFF * self.abs_total:
            if abs(self.outer) > self.tol * abs(self.total):
                raise DomainError(
                    "the integral may diverge at infinity: its outermost "
                    f"panel, ending at x = log r = {self.tail_end:.6g}, still "
                    f"holds {self.outer:.3e} of {self.total:.3e}; declare "
                    "the integrand's tail exponent b")
            return
        if self.evals + 30 > PANEL_BUDGET:
            raise NumericalError(
                f"quadrature budget of {PANEL_BUDGET} evaluations exhausted; "
                f"error estimate {self.err_total:.3e} vs target "
                f"{self.tol * abs(self.total):.3e}")
        _, _, lo, hi, val, err = heappop(self.heap)
        self.total -= val
        self.err_total -= err
        mid = 0.5 * (lo + hi)
        self.todo = ([lo, mid], [mid, hi])


def integrate_radial_batch(integrands: Sequence[RadialIntegrand],
                           tol: float = DEFAULT_TOL) -> list:
    """integrate_radial on each integrand, run in lockstep.

    Each member's result is exactly what integrate_radial gives it alone.
    The divergence screens run in input order before any f call, and the
    first that fails is raised.  After them the batch ends at the first
    failure it meets, round by round, in the order the groups are summed;
    so when several members would fail, which error is raised can differ
    from a loop over integrate_radial.  An exception raised by f itself
    also leaves the batch at once.
    """
    _check_tol(tol)
    runs = [_Run(integrand, tol) for integrand in integrands]
    live = runs
    with np.errstate(all="ignore"):  # for every _panels call of the batch
        while live:
            groups = {}
            for run in live:
                groups.setdefault(run.key, []).append(run)
            for members in groups.values():
                lo = [e for run in members for e in run.todo[0]]
                hi = [e for run in members for e in run.todo[1]]
                arg = None if members[0].arg is None else \
                    [run.arg for run in members for _ in run.todo[0]]
                k15, err, kabs = (v.tolist() for v in _panels(
                    members[0].g, np.array(lo), np.array(hi), arg))
                start = 0
                for run in members:
                    stop = start + len(run.todo[0])
                    run.push((k15[start:stop], err[start:stop],
                              kabs[start:stop]))
                    run.bisect()
                    start = stop
            live = [run for run in live if run.todo is not None]
    return [{"value": run.total, "error_estimate": run.err_total,
             "evaluations": run.evals} for run in runs]


def integrate_radial(integrand: RadialIntegrand,
                     tol: float = DEFAULT_TOL) -> dict:
    """Adaptive evaluation of the radial integral.

    Returns {"value", "error_estimate", "evaluations"}; on success
    error_estimate <= tol * |value| (or sits at the roundoff floor).  Raises
    DomainError when the integrand is divergent (endpoint exponent <= -1, a
    declared tail exponent a - b >= -1 on an infinite domain, or an
    undeclared tail whose outermost panel holds more than tol * |value|) and
    NumericalError when a panel sum is not finite or PANEL_BUDGET runs out
    before convergence.  integrand.f must be elementwise (module docstring).
    """
    return integrate_radial_batch([integrand], tol)[0]


def integrate_log_trapezoid(integrand: RadialIntegrand,
                            tol: float = DEFAULT_TOL) -> dict:
    """The trapezoidal rule in x = log r on a declared half-line integrand.

    The integrand needs R = None, a declared tail exponent b and at least
    one break.  Its span, non-finite values and roundoff floor are the
    engine's (_log_span, _finite, _ROUNDOFF).  The nodes are uniform in x,
    from a step of about _TRAP_STEP; each level halves the step and reuses
    every node.  The summand is g(x) = f(e**x) e**((a+1) x), with weight
    1/2 at the two end nodes.  The run stops at the first halving with
    |T_h - T_2h| <= max(tol, _ROUNDOFF) |T_h| and returns
    {"value": T_h, "error_estimate": |T_h - T_2h|, "evaluations"}.

    Raises DomainError for any other integrand and for the engine's
    divergence screens, and NumericalError when a level sum is not finite
    or _TRAP_HALVINGS halvings do not converge.
    """
    _check_tol(tol)
    if integrand.R is not None or integrand.b is None or \
            not integrand.breaks or integrand.arg is not None:
        raise DomainError(
            "the trapezoidal rule in x = log r needs an infinite domain, a "
            "declared tail exponent b and breaks, and no arg")
    power = integrand.a
    _refuse_divergence(power, integrand.b)
    lo, hi, _ = _log_span(power, integrand.b, integrand.breaks)
    count = ceil((hi - lo) / _TRAP_STEP)
    h = (hi - lo) / count
    g = _summand(integrand.f, power, True)

    def add(total, y):
        part = float(y.sum())  # finite only if every value of y is
        total += part if isfinite(part) else float(_finite(y).sum())
        if not isfinite(total):  # exactly when h * total is not (h <= 1/2)
            raise NumericalError(
                f"a trapezoidal sum on [{lo:.6g}, {hi:.6g}] in x = log r "
                "leaves the float range")
        return total

    with np.errstate(all="ignore"):
        y = g(lo + h * np.arange(count + 1.0))
        y[0] *= 0.5
        y[-1] *= 0.5
        total = add(0.0, y)
        value, evals = h * total, count + 1
        for _ in range(_TRAP_HALVINGS):
            total = add(total, g(lo + h * (np.arange(count) + 0.5)))
            evals += count
            h *= 0.5
            count *= 2
            coarse, value = value, h * total
            err = abs(value - coarse)
            if err <= max(tol, _ROUNDOFF) * abs(value):
                return {"value": value, "error_estimate": err,
                        "evaluations": evals}
    raise NumericalError(
        "the trapezoidal rule in x = log r did not converge in "
        f"{_TRAP_HALVINGS} halvings: |T_h - T_2h| = {err:.3e} against "
        f"{max(tol, _ROUNDOFF) * abs(value):.3e}")
