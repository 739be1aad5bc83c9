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

Each closed form takes a Python number or an array r and is one expression,
run on Python floats for a number (the result a float, and no numpy loaded)
and on numpy for an array.  The two agree to a few ulp: Python's ** is
libm's pow, and numpy's array power may be a SIMD loop of its own.  Each
form reads kappa, beta and m from HSParams, which computes each constant on
its first read and keeps it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Optional

from .errors import DomainError, NumericalError
from .params import DEFAULT_GRID, HSParams, Record

if TYPE_CHECKING:  # annotations only: a profile at scalar radii needs no numpy
    import numpy as np


def _float_pow(x: float, a: float) -> float:
    """x**a for x >= 0, inf where Python's ** raises (0.0 to a negative
    power, or a result past the float range), as numpy gives."""
    try:
        return x ** a
    except (ZeroDivisionError, OverflowError):
        return math.inf


def _array_pow(x, a):
    """x**a on an array, inf at x = 0 for a < 0 with no warning."""
    import numpy as np
    with np.errstate(divide="ignore"):
        return x ** a


def _radius(p: HSParams, r):
    """(r, t = r**(2-s), pow) for the closed forms: a float r and t and
    _float_pow for a Python number, a float array and numpy's power for
    anything else."""
    if isinstance(r, (int, float)):
        r = float(r)
        if r < 0.0:  # Python's ** would answer a complex number
            raise DomainError(f"a radius must be >= 0, got r={r}")
        try:
            return r, r ** (2.0 - p.s), _float_pow
        except OverflowError:  # numpy's inf
            return r, math.inf, _float_pow
    import numpy as np
    r = np.asarray(r, dtype=float)
    return r, r ** (2.0 - p.s), _array_pow


def u1(p: HSParams, r):
    r, t, _ = _radius(p, r)
    return p.kappa * (1.0 + t) ** (-p.beta)


def du1(p: HSParams, r):
    r, t, pow_ = _radius(p, r)
    return -p.kappa * (p.n - 2.0) * pow_(r, 1.0 - p.s) * (1.0 + t) ** (-p.m)


def d2u1(p: HSParams, r):
    n, s = p.n, p.s
    r, t, pow_ = _radius(p, r)
    core = (1.0 - s) * pow_(r, -s) * (1.0 + t) ** (-p.m) \
        - (n - s) * pow_(r, 2.0 - 2.0 * s) * (1.0 + t) ** (-p.m - 1.0)
    return -p.kappa * (n - 2.0) * core


def rdru1(p: HSParams, r):
    """r * U1'(r): the dilation-type profile entering the source terms.

    Finite everywhere (-> 0 at the origin) even where U1' itself diverges.
    """
    r, t, _ = _radius(p, r)
    return -p.kappa * (p.n - 2.0) * t * (1.0 + t) ** (-p.m)


def z0(p: HSParams, r):
    r, t, _ = _radius(p, r)
    return 0.5 * (p.n - 2.0) * p.kappa * (t - 1.0) * (1.0 + t) ** (-p.m)


def dz0(p: HSParams, r):
    n, s, m = p.n, p.s, p.m
    r, t, pow_ = _radius(p, r)
    amp = (1.0 + m) + (1.0 - m) * t
    return 0.5 * (n - 2.0) * p.kappa * (2.0 - s) * pow_(r, 1.0 - s) \
        * (1.0 + t) ** (-m - 1.0) * amp


def d2z0(p: HSParams, r):
    n, s, m = p.n, p.s, p.m
    r, t, pow_ = _radius(p, r)
    amp = (1.0 + m) + (1.0 - m) * t
    core = (1.0 - s) * pow_(r, -s) * (1.0 + t) ** (-m - 1.0) * amp \
        - (m + 1.0) * (2.0 - s) * pow_(r, 2.0 - 2.0 * s) \
        * (1.0 + t) ** (-m - 2.0) * amp \
        + (1.0 - m) * (2.0 - s) * pow_(r, 2.0 - 2.0 * s) \
        * (1.0 + t) ** (-m - 1.0)
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
    """U_delta, its r-derivative, and Z_delta at radius r: Python floats for
    a number, arrays for an array.

    U_delta(r) = delta**(-(n-2)/2) U1(r/delta); the r-derivative follows by
    the chain rule, and Z_delta = delta * d/d(delta) U_delta.  A scale so
    small that these amplitudes leave the float range is a NumericalError.
    """
    if not (math.isfinite(delta) and delta > 0):
        raise DomainError(
            f"bubble scale must be positive and finite, got delta={delta}")
    delta, n = float(delta), p.n  # Python's ** raises on overflow
    try:
        lift, dlift = delta ** (-(n - 2.0) / 2.0), delta ** (-n / 2.0)
    except OverflowError:
        raise _overflow(n, delta) from None
    # U' is -inf at r = 0 when s > 1, and stays so where dlift underflows to
    # 0 (their product is nan)
    if isinstance(r, (int, float)):
        rho = float(r) / delta
        u, du, z = lift * u1(p, rho), du1(p, rho), lift * z0(p, rho)
        if not math.isinf(du):
            du *= dlift
            if math.isinf(du):  # Python's * overflows to inf without raising
                raise _overflow(n, delta)
        if math.isinf(u) or math.isinf(z):
            raise _overflow(n, delta)
        return {"U_delta": u, "dr_U_delta": du, "Z_delta": z}
    import numpy as np
    rho = np.asarray(r, dtype=float) / delta
    u, du, z = u1(p, rho), du1(p, rho), z0(p, rho)
    try:
        # [()] keeps a 0-d array's result a numpy scalar
        with np.errstate(over="raise", invalid="ignore"):
            return {"U_delta": lift * u,
                    "dr_U_delta": np.where(np.isinf(du), du, dlift * du)[()],
                    "Z_delta": lift * z}
    except FloatingPointError:
        raise _overflow(n, delta) from None


def _overflow(n: int, delta: float) -> NumericalError:
    return NumericalError(
        f"the profiles at scale delta = {delta} overflow a float at n = {n} "
        f"(their amplitudes carry delta**(-n/2))")


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
        import numpy as np
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
        import numpy as np
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
        import numpy as np
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
            if not math.isfinite(v):
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
    import numpy as np
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
