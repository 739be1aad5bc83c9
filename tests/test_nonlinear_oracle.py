"""A nonlinear oracle: the blow-up family solved from the equation itself.

The Euler-Lagrange equation of the energy J,

    -Delta_g u + h u = u**(2*(s)-1) d(x, x0)**(-s),   u > 0,

on the geodesic ball of radius R0 = 1 about x0 with u = 0 on its boundary,
stays radial for `flat` and `sphere:1`.  With h = c_ns Scal + r**2 - eps
(so f0 = -1 and lap_h = -2n), a solution whose bubble scale is delta exists
for one eps, and as delta -> 0

    delta**2 / eps -> -c2 / (2 Q),   c2 = (1/2) f0 mass2,
                                     Q = c4 - nonlocal_term,

with c4 from predicted_coeffs and nonlocal_term (= -(1/2) int W C(W)) from
lg_total.  No library routine solves the equation, so this pins the law the
family prediction has to follow against the solver's coefficients.

In bubble variables rho = r / delta, v = delta**((n-2)/2) u with
v(0) = kappa, the equation reads

    v'' + (n-1) delta cot(delta rho) v' = delta**2 h(delta rho) v
                                          - v**(2*(s)-1) rho**(-s)

((n-1) / rho for `flat`).  It is shot from rho = 1e-7 on its two-term
series to rho = R0 / delta, and eps is the root of v(R0 / delta) in
[0.5, 2] times the prediction: a wider bracket can find a root of the
ball's linear Dirichlet problem instead.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from hsbubble.bubble import default_grid
from hsbubble.energy import RadialModel, predicted_coeffs
from hsbubble.geometry import PotentialJet, curvature_preset, lg_total
from hsbubble.moments import bubble_moment
from hsbubble.params import HSParams

DELTA = 0.00625
RHO0 = 1e-7


def _boundary_value(p, scal, flat, delta, eps):
    n, s, q = p.n, p.s, p.crit_exp - 1.0
    h0 = p.c_ns * scal

    def rhs(rho, y):
        v, dv = y
        r = delta * rho
        damp = (n - 1) / rho if flat else (n - 1) * delta / math.tan(r)
        h = h0 + r * r - eps
        return [dv, -damp * dv + delta**2 * h * v
                - abs(v) ** q * math.copysign(1.0, v) * rho ** (-s)]

    kappa = p.kappa
    lead = kappa ** q / (n - s)
    y0 = [kappa - lead * RHO0 ** (2 - s) / (2 - s), -lead * RHO0 ** (1 - s)]
    sol = solve_ivp(rhs, (RHO0, 1.0 / delta), y0, method="DOP853",
                    rtol=1e-12, atol=1e-14)
    assert sol.status == 0, sol.message
    return sol.y[0, -1]


@pytest.mark.parametrize("curvature,n,s", [
    pytest.param("flat", 10, 1.0, id="flat"),
    pytest.param("sphere:1", 10, 1.0, id="sphere:1"),
    pytest.param("flat", 10, 0.5, id="flat-10-0.5"),
    pytest.param("sphere:1", 10, 0.5, id="sphere:1-10-0.5"),
])
def test_shot_family_scale_matches_the_quartic(curvature, n, s):
    p = HSParams(n, s)
    c = curvature_preset(curvature, p.n)
    jet = PotentialJet(p.c_ns * c.scal, -2.0 * p.n)
    c2 = 0.5 * -1.0 * bubble_moment(p, "mass2")
    c4 = predicted_coeffs(RadialModel(c, jet), p)["c4"]
    lg = lg_total(c, jet, p, default_grid(p, N=8000, R_max=200.0))
    quartic = c4 - lg.nonlocal_term
    eps_pred = DELTA**2 * -2.0 * quartic / c2
    eps = brentq(lambda e: _boundary_value(p, c.scal, curvature == "flat",
                                           DELTA, e),
                 0.5 * eps_pred, 2.0 * eps_pred, xtol=1e-9 * eps_pred)
    assert DELTA**2 / eps == pytest.approx(-c2 / (2.0 * quartic), rel=1e-3)
