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
arithmetic.  Every operation takes s = 0 except the kernel diagnostics,
which refuse it themselves; the operations that need the delta**4 moments
or the nonlocal pairing refuse n < N_MIN through HSParams.require.
"""

from __future__ import annotations

import math
from functools import cached_property

from .errors import DomainError, NumericalError

# relative tolerance of a quadrature call, and solver mesh (N, R_max) of a
# grid, that name none; defined here, not in quadrature and bubble, so the
# CLI's --tol and --grid defaults load no numpy
DEFAULT_TOL = 1e-10
DEFAULT_GRID = (8000, 200.0)

# the smallest n the delta**4 terms take: the moments int |X|**4 |grad U1|**2
# and int |X|**2 U1**2 have radial integrands ~ r**(5 - n) at infinity, so
# they converge only for n > 6, as does the nonlocal pairing; HSParams.require
# refuses smaller n for every operation that uses them
N_MIN = 7


class Record:
    """An immutable record: its fields are the subclass's annotations, in
    order, with the class-level values as defaults.  They bind by position
    or keyword, then __post_init__ validates them; equality and hash go by
    type and fields.  functools.cached_property writes __dict__, and works."""

    _fields, _template, _required = (), {}, ()
    _MISSING = object()  # the default of a field that has none

    def __init_subclass__(cls):
        cls._fields = tuple(vars(cls).get("__annotations__", ()))
        cls._template = {k: vars(cls).get(k, cls._MISSING) for k in cls._fields}
        cls._required = frozenset(cls._fields).difference(vars(cls))

    def __init__(self, *args, **kwargs):
        names, given = self._fields, kwargs.keys()
        values = self._template | kwargs  # field order; unknown names last
        if args:  # positions past the fields, or named again, shrink given
            values.update(zip(names, args))
            given = given | names[:len(args)]
        if (len(values) > len(names) or len(given) < len(args) + len(kwargs)
                or not given >= self._required):
            raise TypeError(f"{type(self).__name__} binds each field {names} "
                            f"once: got {len(args)} by position and {[*kwargs]}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        """Refuse bad field values (the subclass's validation)."""

    def __setattr__(self, field, value):
        raise AttributeError(f"{type(self).__name__}.{field} cannot be assigned")

    def _values(self) -> tuple:
        return tuple([self.__dict__[k] for k in self._fields])

    def __eq__(self, other):
        return type(other) is type(self) and self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            f"{k}={v!r}" for k, v in zip(self._fields, self._values())))


class HSParams(Record):
    """The pair (n, s): dimension and singularity exponent.

    Each constant derived from it is computed on first read and kept on the
    instance (a kappa that overflows is refused on every read and kept
    nowhere); equality, hash and repr read (n, s) only."""

    n: int
    s: float

    def __post_init__(self):
        if not (3 <= self.n < math.inf and int(self.n) == self.n):
            raise DomainError(f"dimension must be an integer >= 3, got n={self.n}")
        if not (0.0 <= self.s < 2.0):
            raise DomainError(f"singularity exponent must lie in [0, 2), got s={self.s}")

    def require(self, what: str) -> None:
        """Refuse n < N_MIN for the operation `what`, which needs the
        delta**4 moments or the nonlocal pairing; every s in [0, 2) is
        accepted."""
        if self.n < N_MIN:
            raise DomainError(f"{what} needs n >= {N_MIN}, got n={self.n}")

    @cached_property
    def crit_exp(self) -> float:
        """2*(s) = 2(n - s)/(n - 2)."""
        return 2.0 * (self.n - self.s) / (self.n - 2.0)

    @cached_property
    def kappa(self) -> float:
        """kappa = ((n - s)(n - 2)) ** ((n - 2)/(2(2 - s)))."""
        n, s = self.n, self.s
        try:
            return ((n - s) * (n - 2)) ** ((n - 2) / (2.0 * (2.0 - s)))
        except OverflowError:
            raise NumericalError(
                f"kappa = ((n - s)(n - 2))**((n - 2)/(2(2 - s))) overflows "
                f"a float at n = {n}, s = {s}") from None

    @cached_property
    def kappa_pow(self) -> float:
        """kappa**(2*(s) - 2) as (n - s)(n - 2): exact where kappa rounds."""
        return float((self.n - self.s) * (self.n - 2))

    @cached_property
    def beta(self) -> float:
        """beta = (n - 2)/(2 - s), the decay exponent of (1 + t) in U1."""
        return (self.n - 2.0) / (2.0 - self.s)

    @cached_property
    def m(self) -> float:
        """m = (n - s)/(2 - s) = beta + 1, the exponent of (1 + t) in U1'."""
        return (self.n - self.s) / (2.0 - self.s)

    @cached_property
    def log_scale(self) -> float:
        """log(beta)/(2 - s): U1's transition runs from r = exp(-log_scale)
        to exp(log_scale), where t = r**(2 - s) passes 1/beta and beta."""
        return math.log(self.beta) / (2.0 - self.s)

    @cached_property
    def potential_amp(self) -> float:
        """(2*(s) - 1)(n - s)(n - 2), the amplitude of the potential V."""
        return (self.crit_exp - 1.0) * (self.n - self.s) * (self.n - 2.0)

    @cached_property
    def c_ns(self) -> float:
        """c_ns = (n - 2)(6 - s) / (12(2n - 2 - s))."""
        n, s = self.n, self.s
        return (n - 2) * (6.0 - s) / (12.0 * (2.0 * n - 2.0 - s))

    @cached_property
    def lambda_ns(self) -> float:
        """lambda_ns = (n - 2)(10 - s) / (20(2n - 2 - s))."""
        n, s = self.n, self.s
        return (n - 2) * (10.0 - s) / (20.0 * (2.0 * n - 2.0 - s))


def derive_constants(p: HSParams) -> HSParams:
    """p, once kappa fits a float; each (n, s) constant is computed on its
    first read and kept."""
    p.kappa
    return p


def yamabe_consistency(n: int) -> dict:
    """Exact-rational check that both coupling constants degenerate at s = 0.

    Returns {"c_at_0", "lambda_at_0", "yamabe"} as Fractions and asserts the
    three are identical: (n-2)*6/(12*(2n-2)) = (n-2)*10/(20*(2n-2))
    = (n-2)/(4(n-1)).
    """
    from fractions import Fraction

    n = int(HSParams(n, 0.0).n)
    c0 = Fraction((n - 2) * 6, 12 * (2 * n - 2))
    lam0 = Fraction((n - 2) * 10, 20 * (2 * n - 2))
    yam = Fraction(n - 2, 4 * (n - 1))
    assert c0 == lam0 == yam
    return {"c_at_0": c0, "lambda_at_0": lam0, "yamabe": yam}


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere S^{n-1} in R^n: 2 pi^{n/2} / Gamma(n/2)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
