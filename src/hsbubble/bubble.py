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
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError
from .params import HSParams


def u1(p: HSParams, r):
    n, s = p.n, p.s
    t = np.asarray(r, dtype=float) ** (2.0 - s)
    return p.kappa * (1.0 + t) ** (-(n - 2.0) / (2.0 - s))


def du1(p: HSParams, r):
    n, s = p.n, p.s
    r = np.asarray(r, dtype=float)
    m = (n - s) / (2.0 - s)
    with np.errstate(divide="ignore"):
        rpow = r ** (1.0 - s)
    t = r ** (2.0 - s)
    return -p.kappa * (n - 2.0) * rpow * (1.0 + t) ** (-m)


def d2u1(p: HSParams, r):
    n, s = p.n, p.s
    r = np.asarray(r, dtype=float)
    m = (n - s) / (2.0 - s)
    t = r ** (2.0 - s)
    with np.errstate(divide="ignore"):
        core = (1.0 - s) * r**-s * (1.0 + t) ** (-m) \
            - (n - s) * r ** (2.0 - 2.0 * s) * (1.0 + t) ** (-m - 1.0)
    return -p.kappa * (n - 2.0) * core


def rdru1(p: HSParams, r):
    """r * U1'(r): the dilation-type profile entering the source terms.

    Finite everywhere (-> 0 at the origin) even where U1' itself diverges.
    """
    n, s = p.n, p.s
    r = np.asarray(r, dtype=float)
    m = (n - s) / (2.0 - s)
    t = r ** (2.0 - s)
    return -p.kappa * (n - 2.0) * t * (1.0 + t) ** (-m)


def z0(p: HSParams, r):
    n, s = p.n, p.s
    t = np.asarray(r, dtype=float) ** (2.0 - s)
    m = (n - s) / (2.0 - s)
    return 0.5 * (n - 2.0) * p.kappa * (t - 1.0) * (1.0 + t) ** (-m)


def dz0(p: HSParams, r):
    n, s = p.n, p.s
    r = np.asarray(r, dtype=float)
    m = (n - s) / (2.0 - s)
    t = r ** (2.0 - s)
    with np.errstate(divide="ignore"):
        rpow = r ** (1.0 - s)
    amp = (1.0 + m) + (1.0 - m) * t
    return 0.5 * (n - 2.0) * p.kappa * (2.0 - s) * rpow * (1.0 + t) ** (-m - 1.0) * amp


def d2z0(p: HSParams, r):
    n, s = p.n, p.s
    r = np.asarray(r, dtype=float)
    m = (n - s) / (2.0 - s)
    t = r ** (2.0 - s)
    amp = (1.0 + m) + (1.0 - m) * t
    with np.errstate(divide="ignore"):
        core = (1.0 - s) * r**-s * (1.0 + t) ** (-m - 1.0) * amp \
            - (m + 1.0) * (2.0 - s) * r ** (2.0 - 2.0 * s) * (1.0 + t) ** (-m - 2.0) * amp \
            + (1.0 - m) * (2.0 - s) * r ** (2.0 - 2.0 * s) * (1.0 + t) ** (-m - 1.0)
    return 0.5 * (n - 2.0) * p.kappa * (2.0 - s) * core


def eval_profiles(p: HSParams, delta: float, r) -> dict:
    """U_delta, its r-derivative, and Z_delta at radius r (scalar or array).

    U_delta(r) = delta**(-(n-2)/2) U1(r/delta); the r-derivative follows by
    the chain rule, and Z_delta = delta * d/d(delta) U_delta.
    """
    if not (math.isfinite(delta) and delta > 0):
        raise DomainError(
            f"bubble scale must be positive and finite, got delta={delta}")
    n = p.n
    rho = np.asarray(r, dtype=float) / delta
    return {
        "U_delta": delta ** (-(n - 2.0) / 2.0) * u1(p, rho),
        "dr_U_delta": delta ** (-n / 2.0) * du1(p, rho),
        "Z_delta": delta ** (-(n - 2.0) / 2.0) * z0(p, rho),
    }


@dataclass(frozen=True)
class RadialGrid:
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


def default_grid(p: HSParams, N: int = 8000, R_max: float = 200.0,
                 gamma: Optional[float] = None) -> RadialGrid:
    """Default solver mesh: grading exponent 2/(2-s) puts uniform resolution
    on the t = r**(2-s) variable in which the profiles are rational."""
    if gamma is None:
        gamma = 2.0 / (2.0 - p.s)
    return RadialGrid(R_max=R_max, N=N, gamma=gamma)


@dataclass(frozen=True)
class RadialProfile:
    """A radial function: a callable, or its samples on a grid's nodes."""

    fn: Optional[Callable] = None
    values: Optional[np.ndarray] = field(default=None, repr=False)

    @classmethod
    def from_callable(cls, fn: Callable) -> "RadialProfile":
        return cls(fn=fn)

    @classmethod
    def from_samples(cls, grid: RadialGrid, values: np.ndarray) -> "RadialProfile":
        values = np.asarray(values, dtype=float)
        if values.shape != grid.nodes.shape:
            raise DomainError("sample array does not match the grid")
        if not np.all(np.isfinite(values)):
            raise DomainError("sampled profile contains non-finite values")
        return cls(values=values)

    def on(self, grid: RadialGrid) -> np.ndarray:
        """The callable sampled on the grid's nodes."""
        return np.asarray(self.fn(grid.nodes), dtype=float)


def _radial_lhs_analytic(p: HSParams, which: str, r):
    if which == "U":
        return -d2u1(p, r) - (p.n - 1.0) / r * du1(p, r)
    return -d2z0(p, r) - (p.n - 1.0) / r * dz0(p, r)


def _radial_lhs_logfd(p: HSParams, which: str, r, h):
    """-u'' - (n-1)/r u' by 4th-order central differencing in x = log r.

    In the log variable the operator is -(u_xx + (n-2) u_x) / r**2, and the
    five-point stencil stays on r > 0 for any step size.
    """
    f = (lambda rr: u1(p, rr)) if which == "U" else (lambda rr: z0(p, rr))
    shifts = np.exp(np.outer([-2.0, -1.0, 0.0, 1.0, 2.0], h))  # (5, len(r))
    vals = f(r[None, :] * shifts)
    w_xx = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
    w_x = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
    u_xx = (w_xx @ vals) / h**2
    u_x = (w_x @ vals) / h
    return -(u_xx + (p.n - 2.0) * u_x) / r**2


def pde_residual(p: HSParams, grid: RadialGrid, method: str = "analytic",
                 r_fd_min: float = 1e-2) -> dict:
    """Maximal relative defect of the two profile identities on the grid.

    method="analytic" uses the closed-form derivatives at every interior node
    (r = 0 excluded); the defect there is pure floating-point noise.
    method="fd" replaces the derivatives with 4th-order log-radius central
    differences, stepping by the local node spacing, restricted to
    r >= r_fd_min: near the origin cusp the graded mesh is self-similar, so
    its log-resolution does not refine with N and no difference scheme can
    converge there.  For U the defect is pointwise-relative (the right side
    is positive); for Z it is normalized by the sup of the right side, which
    crosses zero at r = 1.
    """
    from .params import require_singular

    require_singular(p, "pde_residual")
    r = grid.nodes
    two_star = p.crit_exp

    if method == "analytic":
        sel = r > 0.0
        rr, h = r[sel], None
    elif method == "fd":
        sel = np.zeros(r.size, dtype=bool)
        sel[1:-1] = r[1:-1] >= r_fd_min
        idx = np.nonzero(sel)[0]
        rr = r[idx]
        h = 0.5 * (np.log(r[idx + 1]) - np.log(r[idx - 1]))
    else:
        raise DomainError(f"unknown residual method {method!r}")

    out = {}
    for which, key in (("U", "max_rel_residual_U"), ("Z", "max_rel_residual_Z")):
        if which == "U":
            rhs = u1(p, rr) ** (two_star - 1.0) * rr ** (-p.s)
        else:
            rhs = (two_star - 1.0) * u1(p, rr) ** (two_star - 2.0) \
                * rr ** (-p.s) * z0(p, rr)
        if method == "analytic":
            lhs = _radial_lhs_analytic(p, which, rr)
        else:
            lhs = _radial_lhs_logfd(p, which, rr, h)
        err = np.abs(lhs - rhs)
        if which == "U":
            out[key] = float(np.max(err / rhs))
        else:
            out[key] = float(np.max(err) / np.max(np.abs(rhs)))
    return out
