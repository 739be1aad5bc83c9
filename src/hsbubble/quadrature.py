"""Quadrature for singular/decaying radial integrands.

Every integral in the package has the shape

    I = int_0^R  f(r) * r**a  dr,        R finite or infinite,

with f smooth on (0, oo) and a the weight power: the geometric power
(something like n-1) plus any endpoint exponent at r = 0 (something like
-s).  a must exceed -1 or the integral diverges at the origin.

Two rules serve them.  Each takes a list of integrands and ends it at the
first failure it meets.

Trapezoidal rule in x = log r (integrate_log_trapezoid)
-------------------------------------------------------
For half-line integrands that declare their tail exponents and breaks and
are analytic in a strip about the real x axis, as the profile moments are.
There their power laws at 0 and at infinity decay exponentially in x, and
the plain trapezoidal rule converges geometrically in 1/h (Trefethen &
Weideman, SIAM Rev. 56, 2014).  Nested levels give the h versus 2h
difference as a deterministic error estimate.  The rule takes a list: its
members share one node set, over the union of their spans, and each
distinct f is evaluated once per level for all the members that weigh it,
each with its own sums and stopping rule.  A kink (the remainders' |A|**q)
or a finite end breaks that convergence, so those integrands keep the
adaptive engine.

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
    hit; an exhausted budget, a non-finite panel sum or summand (where
    f != 0) is an error, and so is an undeclared tail end whose outermost
    panel holds more than tol * |I| (the integral may diverge there).

integrate_radial_batch runs several integrands in lockstep, each exactly as
a run of its own (its docstring gives the round rules), and the nodes of all
members that share an integrand function (and weight power, domain kind and
initial panel count) go to that function in one call.  f must therefore be
elementwise over a 1-D numpy array: each output may depend only on the r
(and the arg, see RadialIntegrand) at the same position.  The K15 rule is
open (no endpoint nodes), so f is never called at r = 0.  The panel edges,
the heap and the running sums are Python floats; numpy evaluates the
integrand and the panel sums, under one error-state scope per batch.
"""

from heapq import heapify, heappush, heappop
from math import ceil, inf, isfinite, log
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, NumericalError
from .params import DEFAULT_TOL, Record

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
_AHEAD = 3                # most look-ahead panels a run holds; calls per
                          # (7, 1) fit: 23 without, 11, 9, 9 with 2, 3, 4


class RadialIntegrand(Record):
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


def _panels(members):
    """(lo, hi, (k15, |k15 - g7|, |k15| sum)), as arrays over the todo
    panels [lo[i], hi[i]] of all members, in order: 15-point Kronrod and
    embedded 7-point Gauss sums from one call of their summand, given each
    member's arg at its panels' nodes unless arg is None.  Each sum is one
    np.vecdot over the panels: it runs numpy's dot loop once per panel, the
    same sequential BLAS ddot as a dot product on that panel alone, so each
    panel's sums match a panel integrated alone bit for bit (a matrix
    product over all panels may block its sums differently and move the
    last bit).  A non-finite summand where f != 0 raises (its radius is
    the error's `r`); a sum may overflow.  The caller sets numpy's error
    state: g's overflows and 0 * inf (f underflowed) are expected here.
    """
    lo = np.array([e for run in members for e in run.todo[0]])
    hi = np.array([e for run in members for e in run.todo[1]])
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    x = (c[:, None] + h[:, None] * _NODES).ravel()
    extra = () if members[0].arg is None else (np.repeat(
        [run.arg for run in members for _ in run.todo[0]], _NODES.size),)
    r, fr, y = members[0].g(x, *extra)
    finite = np.isfinite(y)
    for i in np.flatnonzero(~finite & (fr != 0.0))[:1]:
        exc = NumericalError(
            f"a quadrature summand f(r) r**({members[0].key[1]}) is not "
            f"finite at r = {r[i]:.6g}, where f(r) = {fr[i]:.6g}")
        exc.r = float(r[i])
        raise exc
    y = np.where(finite, y, 0.0).reshape(-1, _NODES.size)
    k15 = h * np.vecdot(y, _W15)
    return lo, hi, (k15, np.abs(k15 - h * np.vecdot(y, _W7)),
                    h * np.vecdot(np.abs(y), _W15))


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
    """g(x) = (r, f(r), f(r) r**power), times r more in x = log r."""
    def g(x, *arg):
        r = np.exp(x) if log else x
        fr = f(r, *arg)
        return r, fr, (fr * r ** power * r if log else fr * r ** power)
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
    the (lo, hi) edge lists of the panels to sum next (initial, then
    halves), None once done; `ready` maps a heap panel's lower edge to its
    summed halves until bisect commits them.  Edges and sums are Python
    floats throughout."""

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
        # members with one key are summed in one call, and booked in one table
        self.key = (id(integrand.f), power, log, integrand.arg is None,
                    len(edges))
        self.g = _summand(integrand.f, power, log)
        self.arg = integrand.arg
        self.tol = tol
        self.evals = 0
        self.ready = {}
        self.todo = (edges[:-1], edges[1:])

    def push(self, los, his, rows):
        # a bisection hands its panel's own edge objects on, so a long heap
        # holds one float per edge, not per entry.  The loop keeps the books
        # in locals; after a raise the batch ends and nothing reads them.
        total, err_total, abs_total = self.total, self.err_total, self.abs_total
        heap, serial, tail_end = self.heap, self.serial, self.tail_end
        for plo, phi, (val, err, kabs) in zip(los, his, rows):
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
        """Bisect worst panels, as the serial engine would, while their
        halves are ready.  Then set todo to the halves of the worst panel
        and of more from the heap's first 7 entries (they hold its 3 worst),
        worst first, while the error the stopping rule still has to shed
        exceeds what the earlier picks remove and ready holds at most
        _AHEAD of them; or to None once the sums converge or no panel is
        left to refine."""
        while True:
            self.todo = None
            scale = max(abs(self.total), 1e-300)
            if not self.heap or self.err_total <= self.tol * scale or \
                    self.err_total <= _ROUNDOFF * self.abs_total:
                if abs(self.outer) > self.tol * abs(self.total):
                    raise DomainError(
                        "the integral may diverge at infinity: its outermost "
                        f"panel, ending at x = log r = {self.tail_end:.6g}, "
                        f"still holds {self.outer:.3e} of {self.total:.3e}; "
                        "declare the integrand's tail exponent b")
                return
            if self.evals + 30 > PANEL_BUDGET:
                raise NumericalError(
                    f"quadrature budget of {PANEL_BUDGET} evaluations "
                    f"exhausted; error estimate {self.err_total:.3e} vs "
                    f"target {self.tol * abs(self.total):.3e}")
            halves = self.ready.pop(self.heap[0][2], None)
            if halves is None:
                break
            _, _, _, _, val, err = heappop(self.heap)
            self.total -= val
            self.err_total -= err
            self.push(*halves)
        self.todo = los, his = [], []
        room = self.err_total - max(self.tol * scale,
                                    _ROUNDOFF * self.abs_total)
        for _, _, lo, hi, _, err in sorted(self.heap[:7]):
            if room <= 0.0 or len(self.ready) + len(los) // 2 > _AHEAD:
                break
            room -= err
            if lo not in self.ready:
                mid = 0.5 * (lo + hi)
                los += [lo, mid]
                his += [mid, hi]


def _start(members, lo, hi, sums):
    """Book each member's initial panels as push would, then bisect it, in
    input order: its sums are a sequential np.cumsum along its row (a
    leading 0.0 keeps the loop's sign of zero), its live panels heapified."""
    k15, err, kabs = sums
    m, count = len(members), len(members[0].todo[0])
    rows = np.zeros((3, m, count + 1))
    rows[:, :, 1:] = np.reshape(sums, (3, m, count))
    books = np.cumsum(rows, axis=2)[:, :, -1].T.tolist()
    bad = np.flatnonzero(~np.isfinite(np.maximum(err, kabs))).tolist()
    live = np.flatnonzero((err > _DEAD * kabs) & (
        hi - lo > 1e-15 * np.maximum(np.abs(hi), 1e-250)))
    cols = [v[live].tolist() for v in (-err, lo, hi, k15, err)]
    cuts = np.searchsorted(live, range(0, m * count + 1, count)).tolist()
    for i, run in enumerate(members):
        a, b, end = cuts[i], cuts[i + 1], (i + 1) * count
        run.heap = list(zip(cols[0][a:b], range(b - a),
                            *(v[a:b] for v in cols[1:])))
        heapify(run.heap)
        run.serial, run.evals = b - a, 15 * count
        run.total, run.err_total, run.abs_total = books[i]
        run.outer = 0.0 if run.tail_end is None else float(k15[end - 1])
        if bad and bad[0] < end:  # push raises on its first bad panel
            j = bad[0]
            run.push([lo[j]], [hi[j]], [(k15[j], err[j], kabs[j])])
        run.bisect()


def integrate_radial_batch(integrands: Sequence[RadialIntegrand],
                           tol: float = DEFAULT_TOL) -> list:
    """integrate_radial on each integrand, run in lockstep.

    Each member's result is exactly what integrate_radial gives it alone:
    the sums, heap pops and stopping decisions of a run that bisects one
    worst panel at a time.  The first round sums every initial panel; in
    each later round a member sums the halves of its worst panel and,
    looking ahead, of up to _AHEAD more heap panels (_Run.bisect), committed
    in the serial order; `evaluations` and the budget count committed
    panels only.  The divergence screens run in input order before any f
    call, and the first that fails is raised.  After them the batch ends at
    the first failure it meets, round by round, in the order the groups are
    summed; so when several members would fail, which error is raised can
    differ from a loop over integrate_radial, and from one-panel rounds.
    An exception from f or a non-finite summand leaves the batch if its
    call, made again without look-ahead panels, fails again.
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
                if not members[0].evals:
                    _start(members, *_panels(members))
                    continue
                try:
                    sums = _panels(members)[2]
                except Exception:
                    # f may fail on a look-ahead node that the serial
                    # engine never sums; only a failure without them counts
                    if all(len(run.todo[0]) == 2 for run in members):
                        raise
                    for run in members:
                        run.todo = (run.todo[0][:2], run.todo[1][:2])
                    sums = _panels(members)[2]
                rows = list(zip(*(v.tolist() for v in sums)))
                for run in members:
                    los, his = run.todo
                    for j in range(0, len(los), 2):
                        run.ready[los[j]] = (los[j:j + 2], his[j:j + 2],
                                             rows[j:j + 2])
                    del rows[:len(los)]
                    run.bisect()
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
    NumericalError when a panel sum, or a summand where f != 0 (the error's
    `r`), is not finite or PANEL_BUDGET runs out.  f must be elementwise.
    """
    return integrate_radial_batch([integrand], tol)[0]


def integrate_log_trapezoid(integrands: Sequence[RadialIntegrand],
                            tol: float = DEFAULT_TOL) -> list:
    """The trapezoidal rule in x = log r on declared half-line integrands.

    Each integrand needs R = None, a declared tail exponent b and at least
    one break.  Spans and roundoff floor are the engine's (_log_span,
    _ROUNDOFF), but a non-finite node value counts as 0.  The members run
    on one node set, uniform in x over the union of their spans, from a
    step of about _TRAP_STEP; each level halves the step and reuses every
    node.  Each distinct f is called once per level, on the nodes the level
    adds, for the members that share it and still run; level 0 and its
    first halving come from one call, on the same floats.  A member's
    summand is g(x) = f(e**x) e**((a+1) x), with weight 1/2 at the two end
    nodes.  It stops at its first halving with |T_h - T_2h| <=
    max(tol, _ROUNDOFF) |T_h| and returns {"value": T_h, "error_estimate":
    |T_h - T_2h|, "evaluations"}, its nodes up to then.  A one-member list
    is the rule on that integrand alone.

    Raises DomainError for any other integrand and for the engine's
    divergence screens, checked in input order before any f call.  A
    member fails when a level sum is not finite or _TRAP_HALVINGS halvings
    do not converge.  As in integrate_radial_batch, the list ends at the
    first failure it meets, level by level and in input order within a
    level: that NumericalError is raised, with the member's index as its
    `member` attribute.  An exception raised by f leaves at once.
    """
    _check_tol(tol)
    spans = []
    for integrand in integrands:
        if integrand.R is not None or integrand.b is None or \
                not integrand.breaks or integrand.arg is not None:
            raise DomainError(
                "the trapezoidal rule in x = log r needs an infinite domain, "
                "a declared tail exponent b and breaks, and no arg")
        _refuse_divergence(integrand.a, integrand.b)
        spans.append(_log_span(integrand.a, integrand.b, integrand.breaks))
    lo = min(span[0] for span in spans)
    hi = max(span[1] for span in spans)
    count = ceil((hi - lo) / _TRAP_STEP)
    h = (hi - lo) / count

    def sample(x, live):
        """Each live member's summand at x, one f call per distinct f."""
        r = np.exp(x)
        fr = {}
        for i in live:
            f = integrands[i].f
            if id(f) not in fr:
                fr[id(f)] = f(r)
        return {i: fr[id(integrands[i].f)] * r ** integrands[i].a * r
                for i in live}

    def add(total, y):
        part = float(y.sum())  # finite only if every value of y is
        total += part if isfinite(part) else \
            float(np.where(np.isfinite(y), y, 0.0).sum())
        if not isfinite(total):  # exactly when h * total is not (h <= 1/2)
            raise NumericalError(
                f"a trapezoidal sum on [{lo:.6g}, {hi:.6g}] in x = log r "
                "leaves the float range")
        return total

    out, totals, values = {}, {}, {}
    with np.errstate(all="ignore"):
        live = range(len(integrands))
        first = sample(lo + 0.5 * h * np.arange(2.0 * count + 1.0), live)
        for y in first.values():
            y[0] *= 0.5
            y[-1] *= 0.5
        evals = count + 1
        for level in range(_TRAP_HALVINGS + 1):
            if level < 2:  # level 0 and its first halving are one call
                ys = {i: first[i][level::2].copy() for i in live}
            else:
                ys = sample(lo + h * (np.arange(count) + 0.5), live)
            if level:
                evals += count
                h *= 0.5
                count *= 2
            for i in live:
                try:
                    totals[i] = add(totals.get(i, 0.0), ys[i])
                except NumericalError as exc:
                    exc.member = i
                    raise
                coarse, values[i] = values.get(i), h * totals[i]
                if not level:
                    continue
                err = abs(values[i] - coarse)
                bound = max(tol, _ROUNDOFF) * abs(values[i])
                if err <= bound:
                    out[i] = {"value": values[i], "error_estimate": err,
                              "evaluations": evals}
                elif level == _TRAP_HALVINGS:
                    exc = NumericalError(
                        "the trapezoidal rule in x = log r did not converge "
                        f"in {_TRAP_HALVINGS} halvings: |T_h - T_2h| = "
                        f"{err:.3e} against {bound:.3e}")
                    exc.member = i
                    raise exc
            live = [i for i in live if i not in out]
            if not live:
                break
    return [out[i] for i in range(len(integrands))]
