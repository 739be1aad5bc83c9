"""Closed forms that tests use as oracles for the library's quadratures."""

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
