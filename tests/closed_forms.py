"""Closed forms and independent quadratures that tests use as oracles for
the library's quadratures."""

import math

from hsbubble import bubble
from hsbubble.moments import ipq
from hsbubble.params import HSParams, sphere_area


def flat_alpha_inv_closed_form(p: HSParams, h0: float) -> float:
    """|h0| * ||U1||_{2n/(n+2)} in closed form (flat curvature case).

    ||U1||_q^q = omega_{n-1} kappa^q * (1/(2-s)) B(n/(2-s), beta q - n/(2-s))
    with beta = (n-2)/(2-s), evaluated through the moment kernel.
    """
    n, s = p.n, p.s
    q = 2.0 * n / (n + 2.0)
    m = n / (2.0 - s)
    val = sphere_area(n) * p.kappa**q * ipq(p.beta * q, m - 1.0) / (2.0 - s)
    return abs(h0) * float(val ** (1.0 / q))


def remainder_oracle(c, p: HSParams, h0: float) -> float:
    """remainder_norm_scaled(c, p, h0) by nested scipy quad: log r outside,
    the angle theta (u = cos theta, Jacobi weight sin**(n-2)) inside, split
    at the kink of |A + B (u^2 - 1/n)/3|**q."""
    from scipy.integrate import quad

    n = p.n
    q = 2.0 * n / (n + 2.0)
    amp = c.scal / (3.0 * n)
    mu = math.sqrt(c.tfree_ric_norm2 * n / (n - 1.0))  # |T|^2 = mu^2 (n-1)/n

    def angular(r):
        A = h0 * bubble.u1(p, r) + amp * r * bubble.du1(p, r)
        B = mu * r * bubble.du1(p, r)
        c2 = 1.0 / n - 3.0 * A / B
        kink = [math.acos(math.sqrt(c2))] if 0.0 < c2 < 1.0 else None
        return 2.0 * quad(
            lambda th: abs(A + B * (math.cos(th) ** 2 - 1.0 / n) / 3.0) ** q
            * math.sin(th) ** (n - 2), 0.0, math.pi / 2, points=kink,
            epsabs=0.0, epsrel=1e-13, limit=200)[0]

    beta = (n - 2.0) / (2.0 - p.s)
    xb = math.log(beta) / (2.0 - p.s)
    cuts = [-xb - 8.0, -xb, xb, xb + 60.0 / (q * (n - 2) - n)]
    total = sum(quad(lambda x: angular(math.exp(x)) * math.exp(n * x), x0, x1,
                     epsabs=0.0, epsrel=1e-12, limit=200)[0]
                for x0, x1 in zip(cuts, cuts[1:]))
    return (sphere_area(n - 1) * total) ** (1.0 / q)
