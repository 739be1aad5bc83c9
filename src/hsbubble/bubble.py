"""Closed-form radial profiles of the critical model and their verification.

With t = r**(2-s), m = (n-s)/(2-s), beta = (n-2)/(2-s) and kappa from params:

    U1(r)      = kappa (1+t)**(-beta)
    U1'(r)     = -kappa (n-2) r**(1-s) (1+t)**(-m)         [beta+1 = m]
    Z0(r)      = (n-2)/2 kappa (t-1)(1+t)**(-m)
    U_delta(r) = delta**(-(n-2)/2) U1(r/delta)
    Z_delta(r) = delta**(-(n-2)/2) Z0(r/delta)

Exact identities these satisfy, all verified by pde_residual and the tests:

    -u'' - (n-1)/r u'  =  U1**(2*(s)-1) r**(-s)
    -z'' - (n-1)/r z'  =  (2*(s)-1) U1**(2*(s)-2) r**(-s) Z0
    Z0                 =  -(n-2)/2 U1 - r U1'
    d/d(delta) U_delta =  Z_delta / delta

Note the profiles have a cusp at the origin for s > 0 (U1 ~ kappa(1 - beta
r**(2-s))), so U1' diverges at r = 0 when s > 1; the combination r U1' that
enters every downstream formula stays finite and -> 0.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, NumericalError
from .params import DEFAULT_GRID, HSParams, Record


def u1(p: HSParams, r):
    t = np.asarray(r, dtype=float) ** (2.0 - p.s)
    return p.kappa * (1.0 + t) ** (-p.beta)


def du1(p: HSParams, r):
    n, s = p.n, p.s
    r = np.asarray(r, dtype=float)
    with np.errstate(divide="ignore"):
        rpow = r ** (1.0 - s)
    t = r ** (2.0 - s)
    return -p.kappa * (n - 2.0) * rpow * (1.0 + t) ** (-p.m)


def d2u1(p: HSParams, r):
    n, s = p.n, p.s
    r = np.asarray(r, dtype=float)
    t = r ** (2.0 - s)
    with np.errstate(divide="ignore"):
        core = (1.0 - s) * r**-s * (1.0 + t) ** (-p.m) \
            - (n - s) * r ** (2.0 - 2.0 * s) * (1.0 + t) ** (-p.m - 1.0)
    return -p.kappa * (n - 2.0) * core


def rdru1(p: HSParams, r):
    """r * U1'(r): the dilation-type profile entering the source terms.

    Finite everywhere (-> 0 at the origin) even where U1' itself diverges.
    """
    n, s = p.n, p.s
    r = np.asarray(r, dtype=float)
    t = r ** (2.0 - s)
    return -p.kappa * (n - 2.0) * t * (1.0 + t) ** (-p.m)


def z0(p: HSParams, r):
    n, s = p.n, p.s
    t = np.asarray(r, dtype=float) ** (2.0 - s)
    return 0.5 * (n - 2.0) * p.kappa * (t - 1.0) * (1.0 + t) ** (-p.m)


def dz0(p: HSParams, r):
    n, s = p.n, p.s
    r = np.asarray(r, dtype=float)
    m = p.m
    t = r ** (2.0 - s)
    with np.errstate(divide="ignore"):
        rpow = r ** (1.0 - s)
    amp = (1.0 + m) + (1.0 - m) * t
    return 0.5 * (n - 2.0) * p.kappa * (2.0 - s) * rpow * (1.0 + t) ** (-m - 1.0) * amp


def d2z0(p: HSParams, r):
    n, s = p.n, p.s
    r = np.asarray(r, dtype=float)
    m = p.m
    t = r ** (2.0 - s)
    amp = (1.0 + m) + (1.0 - m) * t
    with np.errstate(divide="ignore"):
        core = (1.0 - s) * r**-s * (1.0 + t) ** (-m - 1.0) * amp \
            - (m + 1.0) * (2.0 - s) * r ** (2.0 - 2.0 * s) * (1.0 + t) ** (-m - 2.0) * amp \
            + (1.0 - m) * (2.0 - s) * r ** (2.0 - 2.0 * s) * (1.0 + t) ** (-m - 1.0)
    return 0.5 * (n - 2.0) * p.kappa * (2.0 - s) * core


def power_law_breaks(p: HSParams, delta: float = 1.0) -> tuple:
    """The radii delta beta**(-1/(2-s)) and delta beta**(1/(2-s)).

    With beta = (n-2)/(2-s) they bound the profile's transition: below the
    first t <= 1/beta and U1 = kappa (1+t)**(-beta) is within a factor e of
    kappa, above the second t >= beta and U1 is within e of its tail law
    kappa t**(-beta).  At s = 1.9 and n = 7 they are 1e-17 and 1e17.
    """
    try:
        return delta * math.exp(-p.log_scale), delta * math.exp(p.log_scale)
    except OverflowError:
        raise NumericalError(
            f"the bubble scale ((n - 2)/(2 - s))**(1/(2 - s)) overflows a "
            f"float at n = {p.n}, s = {p.s}") from None


def eval_profiles(p: HSParams, delta: float, r) -> dict:
    """U_delta, its r-derivative, and Z_delta at radius r (scalar or array).

    U_delta(r) = delta**(-(n-2)/2) U1(r/delta); the r-derivative follows by
    the chain rule, and Z_delta = delta * d/d(delta) U_delta.  A scale so
    small that these amplitudes leave the float range is a NumericalError.
    """
    if not (math.isfinite(delta) and delta > 0):
        raise DomainError(
            f"bubble scale must be positive and finite, got delta={delta}")
    n = p.n
    rho = np.asarray(r, dtype=float) / delta
    u, du, z = u1(p, rho), du1(p, rho), z0(p, rho)
    try:
        # U' is -inf at r = 0 when s > 1, and stays so where delta**(-n/2)
        # underflows to 0 (their product is nan); [()] keeps a scalar r's
        # result a numpy scalar
        with np.errstate(over="raise", invalid="ignore"):
            return {
                "U_delta": delta ** (-(n - 2.0) / 2.0) * u,
                "dr_U_delta": np.where(np.isinf(du), du,
                                       delta ** (-n / 2.0) * du)[()],
                "Z_delta": delta ** (-(n - 2.0) / 2.0) * z,
            }
    except (OverflowError, FloatingPointError):
        raise NumericalError(
            f"the profiles at scale delta = {delta} overflow a float at "
            f"n = {n} (their amplitudes carry delta**(-n/2))") from None


class RadialGrid(Record):
    """Graded radial mesh r_i = R_max (i/N)**gamma, i = 0..N (so N+1 nodes,
    r_0 = 0 included, r_N = R_max)."""

    R_max: float
    N: int
    gamma: float

    def __post_init__(self):
        if not (math.isfinite(self.R_max) and math.isfinite(self.gamma)) \
                or self.R_max <= 0 or self.N < 8 or self.gamma < 1.0:
            raise DomainError(
                f"bad grid (R_max={self.R_max}, N={self.N}, gamma={self.gamma})")

    @property
    def nodes(self) -> np.ndarray:
        i = np.arange(self.N + 1, dtype=float)
        return self.R_max * (i / self.N) ** self.gamma


def default_grid(p: HSParams, N: int = DEFAULT_GRID[0],
                 R_max: float = DEFAULT_GRID[1],
                 gamma: Optional[float] = None) -> RadialGrid:
    """Default solver mesh: grading exponent 2/(2-s) puts uniform resolution
    on the t = r**(2-s) variable in which the profiles are rational."""
    if gamma is None:
        gamma = 2.0 / (2.0 - p.s)
    return RadialGrid(R_max=R_max, N=N, gamma=gamma)


class RadialProfile(Record):
    """A radial function: a callable, or its samples on a grid's nodes."""

    fn: Optional[Callable] = None
    values: Optional[np.ndarray] = None

    @classmethod
    def from_callable(cls, fn: Callable) -> "RadialProfile":
        return cls(fn=fn)

    @classmethod
    def from_samples(cls, grid: RadialGrid, values: np.ndarray) -> "RadialProfile":
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.N + 1,):
            raise DomainError("sample array does not match the grid")
        if not np.all(np.isfinite(values)):
            raise DomainError("sampled profile contains non-finite values")
        return cls(values=values)

    def on(self, grid: RadialGrid) -> np.ndarray:
        """The callable sampled on the grid's nodes, or the samples."""
        if self.fn is None:
            if self.values.shape != (grid.N + 1,):
                raise DomainError("sample array does not match the grid")
            return self.values
        return np.asarray(self.fn(grid.nodes), dtype=float)


class WDecomposition(Record):
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


def pde_residual(p: HSParams, grid: RadialGrid,
                 method: str = "analytic") -> dict:
    """Maximal relative defect of the two profile identities on the grid.

    The closed-form derivatives are used at every interior node (r = 0
    excluded); the defect there is pure floating-point noise.  "analytic" is
    the one method.  For U the defect is pointwise-relative (the right side
    is positive); for Z it is normalized by the sup of the right side, which
    crosses zero at r = 1.
    """
    if method != "analytic":
        raise DomainError(f"unknown residual method {method!r}")
    r = grid.nodes
    r = r[r > 0.0]
    two_star = p.crit_exp

    rhs = u1(p, r) ** (two_star - 1.0) * r ** (-p.s)
    lhs = -d2u1(p, r) - (p.n - 1.0) / r * du1(p, r)
    out = {"max_rel_residual_U": float(np.max(np.abs(lhs - rhs) / rhs))}
    rhs = (two_star - 1.0) * u1(p, r) ** (two_star - 2.0) \
        * r ** (-p.s) * z0(p, r)
    lhs = -d2z0(p, r) - (p.n - 1.0) / r * dz0(p, r)
    out["max_rel_residual_Z"] = float(np.max(np.abs(lhs - rhs))
                                      / np.max(np.abs(rhs)))
    return out
