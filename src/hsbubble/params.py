"""Dimension/singularity context and the scalar constants derived from it.

Everything downstream is parameterized by the spatial dimension n >= 3 and a
singularity strength s in [0, 2).  The critical exponent of the model is

    2*(s) = 2(n - s)/(n - 2),

the profile normalization constant is

    kappa = ((n - s)(n - 2)) ** ((n - 2)/(2(2 - s))),

chosen so that kappa**(2*(s) - 2) = (n - s)(n - 2) holds exactly, and the two
curvature-coupling rationals are

    c_ns      = (n - 2)(6 - s)  / (12(2n - 2 - s)),
    lambda_ns = (n - 2)(10 - s) / (20(2n - 2 - s)).

At s = 0 both rationals collapse to the classical conformal value
(n - 2)/(4(n - 1)); ``yamabe_consistency`` checks that in exact rational
arithmetic.  s = 0 is accepted here and by the moment integrals (the constants
stay finite) but rejected by the profile/solver/energy modules, whose
expansions assume 0 < s < 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, NumericalError


@dataclass(frozen=True)
class HSParams:
    """The pair (n, s): dimension and singularity exponent."""

    n: int
    s: float

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 3:
            raise DomainError(f"dimension must be an integer >= 3, got n={self.n}")
        if not (0.0 <= self.s < 2.0):
            raise DomainError(f"singularity exponent must lie in [0, 2), got s={self.s}")

    @property
    def crit_exp(self) -> float:
        """2*(s) = 2(n - s)/(n - 2)."""
        return 2.0 * (self.n - self.s) / (self.n - 2.0)

    @property
    def kappa(self) -> float:
        """kappa = ((n - s)(n - 2)) ** ((n - 2)/(2(2 - s)))."""
        n, s = self.n, self.s
        try:
            return ((n - s) * (n - 2)) ** ((n - 2) / (2.0 * (2.0 - s)))
        except OverflowError:
            raise NumericalError(
                f"kappa = ((n - s)(n - 2))**((n - 2)/(2(2 - s))) overflows "
                f"a float at n = {n}, s = {s}") from None


@dataclass(frozen=True)
class ConstantSet:
    crit_exp: float
    kappa: float
    c_ns: float
    lambda_ns: float
    kappa_pow: float  # kappa ** (crit_exp - 2), via the simplified identity


def derive_constants(p: HSParams) -> ConstantSet:
    """All scalar constants attached to (n, s).

    kappa_pow is (n - s)(n - 2) by the exponent identity
    ((n-s)(n-2))^{(n-2)/(2(2-s)) * (2*(s)-2)} = (n-s)(n-2), never by
    exponentiating kappa, so it is exact even where kappa itself rounds.
    """
    n, s = p.n, p.s
    return ConstantSet(
        crit_exp=p.crit_exp,
        kappa=p.kappa,
        c_ns=(n - 2) * (6.0 - s) / (12.0 * (2.0 * n - 2.0 - s)),
        lambda_ns=(n - 2) * (10.0 - s) / (20.0 * (2.0 * n - 2.0 - s)),
        kappa_pow=float((n - s) * (n - 2)),
    )


def yamabe_consistency(n: int) -> dict:
    """Exact-rational check that both coupling constants degenerate at s = 0.

    Returns {"c_at_0", "lambda_at_0", "yamabe"} as Fractions and asserts the
    three are identical: (n-2)*6/(12*(2n-2)) = (n-2)*10/(20*(2n-2))
    = (n-2)/(4(n-1)).
    """
    if int(n) != n or n < 3:
        raise DomainError(f"dimension must be an integer >= 3, got n={n}")
    n = int(n)
    c0 = Fraction((n - 2) * 6, 12 * (2 * n - 2))
    lam0 = Fraction((n - 2) * 10, 20 * (2 * n - 2))
    yam = Fraction(n - 2, 4 * (n - 1))
    assert c0 == lam0 == yam
    return {"c_at_0": c0, "lambda_at_0": lam0, "yamabe": yam}


def require_singular(p: HSParams, where: str) -> None:
    """Reject s = 0 for operations whose expansions assume 0 < s < 2."""
    if p.s <= 0.0:
        raise DomainError(f"{where} requires s in (0, 2), got s={p.s}")


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere S^{n-1} in R^n: 2 pi^{n/2} / Gamma(n/2)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
