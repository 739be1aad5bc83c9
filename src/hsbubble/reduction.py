"""Reduced one-variable functional, k-ladder families, and classification.

After projecting onto the bubble scale, the energy landscape near the
critical potential is governed (up to scaling bookkeeping delta = t sqrt(eps))
by

    f(t) = quad_coef t^2 + quartic_coef t^4,
    quad_coef    = (1/2) f(x0) int U1^2,
    quartic_coef = L(h0, x0),

whose unique positive critical point t0 = sqrt(-quad/(2 quartic)) exists iff
the coefficients have opposite signs, with f''(t0) = -4 quad_coef (nonzero
exactly when quad_coef is).  When the obstruction vanishes at the critical
potential, perturbing the potential by (1/k) d(x, x0)^2 shifts its Laplacian
at the point by -2n/k (minus-divergence convention) and therefore shifts the
obstruction by exactly +(1/(2k)) int |X|^4 |grad U1|^2 > 0, producing a
ladder of perturbed potentials each carrying a blow-up family; the epsilon_k
of the underlying compactness argument is not constructible here, so epsilon
stays a free input to the delta = t0 sqrt(eps) bookkeeping.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Optional

from .errors import DomainError, NumericalError
from .params import HSParams, Record

if TYPE_CHECKING:  # annotations only: the verdict needs no geometry solve
    from .geometry import CurvatureData, LgBreakdown, PotentialJet

# relative tolerance of the criticality test h(x0) = c_ns Scal(x0) in verdict
CRIT_RTOL = 1e-12


def __getattr__(name):
    # family_theorem2 imports bubble_moment where it calls it, so that the
    # verdict loads no numpy; looked up here by name (as a tracer wrapping
    # each lookup site does), it is the home module's current function
    if name == "bubble_moment":
        from .moments import bubble_moment
        return bubble_moment
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ReducedFunctional(Record):
    """Coefficients of the reduced quartic f(t) = quad t^2 + quartic t^4."""

    quad_coef: float
    quartic_coef: float

    def __post_init__(self):
        if not (math.isfinite(self.quad_coef)
                and math.isfinite(self.quartic_coef)):
            raise DomainError("reduced-functional coefficients must be finite")


class CriticalPoint(Record):
    """Outcome of the positive-critical-point search.

    t0 is None when no positive critical point exists: either the quartic
    coefficient vanishes (degenerate_quartic, the obstruction-zero case the
    ladder construction handles) or the two coefficients do not have
    opposite signs.  second_derivative = -4 quad_coef at t0; nondegenerate
    records it being nonzero.
    """

    t0: Optional[float]
    second_derivative: Optional[float]
    nondegenerate: bool
    degenerate_quartic: bool


def critical_t(rf: ReducedFunctional) -> CriticalPoint:
    """Unique positive critical point of quad t^2 + quartic t^4, if any;
    a t0 or f''(t0) beyond the float range is a NumericalError."""
    quad, quartic = rf.quad_coef, rf.quartic_coef
    if quartic == 0.0:
        return CriticalPoint(t0=None, second_derivative=None,
                             nondegenerate=False, degenerate_quartic=True)
    if quad * quartic >= 0.0:
        return CriticalPoint(t0=None, second_derivative=None,
                             nondegenerate=False, degenerate_quartic=False)
    t0_sq = -quad / 2.0 / quartic  # = -quad/(2 quartic), 2 quartic may overflow
    # where t0**2 leaves the float range, t0 itself may not
    t0 = math.sqrt(t0_sq) if 0.0 < t0_sq < math.inf \
        else math.sqrt(abs(quad) / 2.0) / math.sqrt(abs(quartic))
    second = -4.0 * quad
    where = f"at quad = {quad!r}, quartic = {quartic!r} leaves the float range"
    if not 0.0 < t0 < math.inf:
        raise NumericalError(f"the critical point's t0 (t0**2 = -quad/(2 "
                             f"quartic)) {where}")
    if not math.isfinite(second):
        raise NumericalError(f"the second derivative f''(t0) = -4 quad {where}")
    return CriticalPoint(t0=t0, second_derivative=second,
                         nondegenerate=second != 0.0,
                         degenerate_quartic=False)


def predicted_delta(t0: float, eps: float) -> float:
    """Bubble-scale bookkeeping delta = t0 sqrt(eps)."""
    if not (math.isfinite(t0) and t0 > 0.0):
        raise DomainError(f"t0 must be positive and finite, got {t0}")
    if not (math.isfinite(eps) and eps > 0.0):
        raise DomainError(f"eps must be positive and finite, got {eps}")
    delta = t0 * math.sqrt(eps)
    if not 0.0 < delta < math.inf:
        raise NumericalError(f"delta = t0 sqrt(eps) at t0 = {t0!r}, eps = "
                             f"{eps!r} leaves the float range")
    return delta


class LadderEntry(Record):
    """One rung: potential perturbed by (1/k) squared-distance."""

    k: int
    lap_h_shift: float      # -2n/k
    lg_k: float             # obstruction after the shift
    predicted_t0: Optional[float]   # None when lg_k <= 0 (no prediction)


class FamilyLadder(Record):
    """The k-indexed blow-up family data over a base obstruction value."""

    base_lg: float
    quad_coef: float        # (1/2) f(x0) int U1^2, fixed along the ladder
    r4grad: float           # int |X|^4 |grad U1|^2
    entries: List[LadderEntry]


def family_theorem2(base: LgBreakdown, p: HSParams, f0: float,
                    k_max: int) -> FamilyLadder:
    """Ladder of perturbed potentials h_k = h0 + (1/k) d(.,x0)^2 near x0.

    Each rung shifts the potential Laplacian at the point by -2n/k and the
    obstruction by exactly +(1/(2k)) int |X|^4 |grad U1|^2.  The reduced
    quadratic coefficient (1/2) f0 int U1^2 needs f0 < 0 so that a positive
    rung obstruction yields a critical scale; rungs with lg_k <= 0 carry no
    prediction (predicted_t0 = None).  A quad_coef beyond the float range
    is a NumericalError.
    """
    if not (math.isfinite(f0) and f0 < 0.0):
        raise DomainError(
            f"the family construction requires f(x0) < 0, got {f0}")
    if not (isinstance(k_max, int) and k_max >= 1):
        raise DomainError(f"k_max must be a positive integer, got {k_max}")
    from .moments import bubble_moment
    r4grad = bubble_moment(p, "r4grad")
    quad = 0.5 * f0 * bubble_moment(p, "mass2")
    if not math.isfinite(quad):
        raise NumericalError(f"quad_coef = (1/2) f0 int U1^2 at f0 = {f0!r} "
                             "leaves the float range")
    entries = []
    for k in range(1, k_max + 1):
        lg_k = base.total + r4grad / (2.0 * k)
        if lg_k > 0.0:
            t0 = critical_t(ReducedFunctional(quad, lg_k)).t0
        else:
            t0 = None
        entries.append(LadderEntry(k=k, lap_h_shift=-2.0 * p.n / k,
                                   lg_k=lg_k, predicted_t0=t0))
    return FamilyLadder(base_lg=base.total, quad_coef=quad, r4grad=r4grad,
                        entries=entries)


class Verdict(Record):
    """Where (h0, x0) sits relative to the threshold, and what that buys.

    classification is one of:
      subcritical-minimizing      h(x0) <  c_ns Scal(x0)
      critical-blowup-candidate   h(x0) == c_ns Scal(x0), obstruction != 0
      critical-degenerate         h(x0) == c_ns Scal(x0), obstruction == 0
      supercritical               h(x0) >  c_ns Scal(x0)
    required_f_sign is the sign f(x0) must have for the blow-up family
    (opposite to the obstruction's), None when not applicable;
    f_sign_ok reports whether the supplied f(x0) has it (None when no
    requirement or f(x0) = 0 gives no information).
    """

    classification: str
    h0: float
    critical_value: float
    excess: float
    lg_total: float
    required_f_sign: Optional[int]
    f_sign_ok: Optional[bool]


def verdict(jet: PotentialJet, c: CurvatureData, p: HSParams,
            lg: LgBreakdown, *, lg_tol: float = 0.0) -> Verdict:
    """Classify (h0, x0) against the curvature threshold.

    Criticality h(x0) = c_ns Scal(x0) is decided to relative tolerance
    CRIT_RTOL (the threshold value is a computed quantity); the obstruction
    is compared against lg_tol (default exact zero: pass a tolerance when
    the obstruction came from quadrature rather than construction).
    """
    c.check_dimension(p)
    if not math.isfinite(lg_tol):
        raise DomainError(f"lg_tol must be finite, got {lg_tol}")
    if lg_tol < 0.0:
        raise DomainError(f"lg_tol must be >= 0, got {float(lg_tol)}")
    cv = p.c_ns * c.scal
    excess = jet.h0 - cv
    tol = CRIT_RTOL * max(1.0, abs(cv))
    if abs(excess) <= tol:
        if abs(lg.total) <= lg_tol:
            cls = "critical-degenerate"
            req = None
        else:
            cls = "critical-blowup-candidate"
            req = -1 if lg.total > 0.0 else 1
    elif excess < 0.0:
        cls, req = "subcritical-minimizing", None
    else:
        cls, req = "supercritical", None
    if req is None or jet.f0 == 0.0:
        ok = None
    else:
        ok = (jet.f0 > 0.0) == (req > 0)
    return Verdict(classification=cls, h0=jet.h0, critical_value=cv,
                   excess=excess, lg_total=lg.total, required_f_sign=req,
                   f_sign_ok=ok)
