"""Pointwise curvature data and all geometric coefficient assembly.

The model consumes the geometry of the ambient space only through a handful
of invariants at the concentration point: Scal, |Ric|^2, |Rm|^2, Delta Scal,
and the trace-free Ricci magnitude.  This module ingests them (presets, or a
small JSON schema), derives the fourth-order volume-density coefficient

    G(r) ~ 1 - (Scal/(6n)) r^2 + F r^4,
    F    = (18 Delta Scal + 8 |Ric|^2 - 3 |Rm|^2 + 5 Scal^2) / (360 n (n+2)),

the curvature combination

    K = (Lambda_ns / 18) (8 |Ric|^2 - 3 |Rm|^2 - (5(2-s)/(10-s)) Scal^2),

the source decomposition W = a U1 + (1/3) Ric_ij sigma^i sigma^j (r U1'),
and the geometric obstruction functional

    L(h0, x0) = -(1/(4n)) (Delta h0 - Lambda_ns Delta Scal - K)
                  * integral |X|^4 |grad U1|^2 dX
                - (1/2) integral W C(W) dX.

Laplacians follow the minus-divergence convention throughout: on flat space
Delta u = -sum u_ii, so Delta Scal >= 0 at a minimum of Scal.

An algebraic identity ties these together (tested on randomized data): with
c_ns the critical-potential constant and Q = n(n+2)(n-2)(10-s)/(2n-2-s),

    (1/3) Scal (c_ns Scal) - F Q = -Lambda_ns Delta Scal - K,

which is how, at the critical potential value h0 = c_ns Scal, the r^4
coefficient c4 of the energy expansion becomes L's local combination in the
second-moment normalization,

    c4 = -(1/(4n)) (Delta h0 - Lambda_ns Delta Scal - K)
           * integral |X|^2 U1^2 dX,

that is L's local term times r2mass / r4grad.  The nonlocal term
-(1/2) integral W C(W) dX is not part of c4.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING, Union

from .errors import DomainError, NumericalError
from .params import HSParams, Record

if TYPE_CHECKING:  # annotations only: the curvature data needs no numpy
    from .bubble import RadialGrid, WDecomposition

CURVATURE_SCHEMA_KEYS = ("scal", "ric_norm2", "rm_norm2", "lap_scal")


def __getattr__(name):
    # lg_total imports these where it calls them, so that the curvature data
    # loads no numpy; looked up here by name (as a tracer wrapping each
    # lookup site does), each is its home module's current function
    if name == "_nonlocal_term":
        from .linearized import nonlocal_term
        return nonlocal_term
    if name == "bubble_moment":
        from .moments import bubble_moment
        return bubble_moment
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class CurvatureData(Record):
    """Pointwise curvature invariants at the concentration point.

    The dimension rides along because the derived trace-free magnitude
    |Ric - (Scal/n) g|^2 = |Ric|^2 - Scal^2/n and the Cauchy-Schwarz
    validity bound |Ric|^2 >= Scal^2/n depend on it.
    """

    n: int
    scal: float
    ric_norm2: float
    rm_norm2: float
    lap_scal: float

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 3:
            raise DomainError(f"dimension must be an integer >= 3, got {self.n}")
        for name in CURVATURE_SCHEMA_KEYS:
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise DomainError(
                    f"curvature invariant {name!r} must be a finite number, "
                    f"got {v!r}")
        if self.rm_norm2 < 0.0:
            raise DomainError(f"rm_norm2 must be >= 0, got {self.rm_norm2}")
        bound = self.scal * self.scal / self.n
        # Cauchy-Schwarz |Ric|^2 >= Scal^2/n, with 1-ulp slack so that an
        # exactly round-trip sphere does not trip the check; a Scal whose
        # square overflows (to inf, where ** would raise) violates it
        if self.ric_norm2 < bound * (1.0 - 1e-12) - 1e-300:
            raise DomainError(
                f"ric_norm2 = {self.ric_norm2} violates the Cauchy-Schwarz "
                f"bound Scal^2/n = {bound}"
            )

    def check_dimension(self, p: HSParams) -> None:
        """Refuse params of another dimension than this data's."""
        if p.n != self.n:
            raise DomainError(
                f"dimension mismatch: data n={self.n}, params n={p.n}")

    @property
    def tfree_ric_norm2(self) -> float:
        """|Ric - (Scal/n) g|^2, clamped at 0 against roundoff."""
        return max(0.0, self.ric_norm2 - self.scal**2 / self.n)


class PotentialJet(Record):
    """The 2-jet data of the potential at the concentration point.

    h0 = h(x0); lap_h = Delta h(x0) in the minus-divergence convention;
    f0 = value of the perturbation direction f(x0) used by the family
    predictions (sign of f(x0) * L decides pushing above/below threshold).
    The fields are the keys of a potential file and the CLI's flags.
    """

    h0: float
    lap_h: float
    f0: float = 0.0

    def __post_init__(self):
        for name in ("h0", "lap_h", "f0"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise DomainError(
                    f"potential jet field {name!r} must be finite, got {v!r}")


class LgBreakdown(Record):
    """The obstruction functional, split into its two mechanisms."""

    local_term: float
    nonlocal_term: float
    total: float

    def __post_init__(self):
        for name in ("total", "local_term", "nonlocal_term"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise DomainError(f"obstruction {name} must be finite, got {v}")


def curvature_preset(kind: Union[str, dict], n: int) -> CurvatureData:
    """Build CurvatureData from a preset name, file path, or parsed dict.

    kind is one of:
      "flat"            all invariants zero;
      "sphere" or
      "sphere:R"        the round sphere of radius R (default 1):
                        Scal = n(n-1)/R^2, |Ric|^2 = n(n-1)^2/R^4,
                        |Rm|^2 = 2n(n-1)/R^4, Delta Scal = 0;
      anything else     a path to a JSON file with exactly the keys
                        {"scal", "ric_norm2", "rm_norm2", "lap_scal"}
                        (a pre-parsed dict of the same shape is accepted).
    """
    if isinstance(kind, dict):
        return CurvatureData(n=n, **_schema_numbers(
            kind, "curvature dict", CURVATURE_SCHEMA_KEYS))
    if not isinstance(kind, str) or not kind:
        raise DomainError("curvature preset must be a non-empty string or dict")
    if kind == "flat":
        return CurvatureData(n=n, scal=0.0, ric_norm2=0.0, rm_norm2=0.0,
                             lap_scal=0.0)
    if kind == "sphere" or kind.startswith("sphere:"):
        radius = 1.0
        if kind != "sphere":
            try:
                radius = float(kind.split(":", 1)[1])
            except ValueError as exc:
                raise DomainError(f"bad sphere radius in {kind!r}") from exc
        if not (radius > 0.0 and math.isfinite(radius)):
            raise DomainError(f"sphere radius must be positive, got {radius}")
        try:
            inv = (n * (n - 1) / radius**2, n * (n - 1) ** 2 / radius**4,
                   2.0 * n * (n - 1) / radius**4)
        except OverflowError:  # radius**4 overflows; the invariants may not
            inv = (n * (n - 1) / radius / radius,
                   n * (n - 1) ** 2 / radius / radius / radius / radius,
                   2.0 * n * (n - 1) / radius / radius / radius / radius)
        except ZeroDivisionError:
            inv = (math.inf,)
        if not all(map(math.isfinite, inv)):
            raise DomainError(
                f"sphere radius {radius!r} puts the curvature invariants "
                "outside the float range")
        return CurvatureData(n=n, scal=inv[0], ric_norm2=inv[1],
                             rm_norm2=inv[2], lap_scal=0.0)
    return CurvatureData(n=n, **_read_schema_file(
        kind, "curvature", CURVATURE_SCHEMA_KEYS))


def potential_file(path: str) -> PotentialJet:
    """PotentialJet from a JSON file with keys {"h0", "lap_h"[, "f0"]}."""
    return PotentialJet(**_read_schema_file(path, "potential", ("h0", "lap_h"),
                                            ("f0",)))


def _read_schema_file(path: str, what: str, required: tuple,
                      optional: tuple = ()) -> dict:
    """The numbers of a JSON object file holding the schema's keys."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read {what} file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"{what} file {path!r} is not valid JSON: {exc}") from exc
    return _schema_numbers(data, f"{what} file {path!r}", required, optional)


def _schema_numbers(data, where: str, required: tuple,
                    optional: tuple = ()) -> dict:
    """Check a parsed JSON object against a flat schema of numbers: every
    required key, no key outside required + optional, no bools."""
    if not isinstance(data, dict):
        raise DomainError(f"{where}: expected a JSON object")
    keys = required + optional
    missing = [k for k in required if k not in data]
    extra = [k for k in data if k not in keys]
    if missing or extra:
        also = f" plus optional {optional}" if optional else ""
        raise DomainError(
            f"{where}: schema requires exactly keys {required}{also}; "
            f"missing {missing}, unexpected {extra}"
        )
    vals = {}
    for k in (k for k in keys if k in data):
        v = data[k]
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise DomainError(f"{where}: field {k!r} must be a number, got {v!r}")
        vals[k] = float(v)
    return vals


def density_coeffs(c: CurvatureData) -> dict:
    """Taylor coefficients of the spherically averaged volume density.

    G(r) ~ 1 + c2 r^2 + c4 r^4 with c2 = -Scal/(6n) and c4 = F as in the
    module docstring (Delta Scal in the minus-divergence convention enters
    with coefficient +18).
    """
    n = c.n
    c2 = -c.scal / (6.0 * n)
    c4 = (18.0 * c.lap_scal + 8.0 * c.ric_norm2 - 3.0 * c.rm_norm2
          + 5.0 * c.scal**2) / (360.0 * n * (n + 2.0))
    return {"c2": c2, "c4": c4}


def kns(c: CurvatureData, p: HSParams) -> float:
    """The curvature combination entering the obstruction functional."""
    c.check_dimension(p)
    s = p.s
    return (p.lambda_ns / 18.0) * (
        8.0 * c.ric_norm2 - 3.0 * c.rm_norm2
        - (5.0 * (2.0 - s) / (10.0 - s)) * c.scal**2
    )


def assemble_w(c: CurvatureData, p: HSParams, a: float) -> WDecomposition:
    """Decompose W = a U1 + (1/3) Ric_ij sigma^i sigma^j (r U1') into modes.

    The contraction splits into its spherical mean Scal/n (joining the
    radial mode with amplitude Scal/(3n)) and its trace-free remainder,
    which only enters through |T|^2.
    """
    from .bubble import WDecomposition
    c.check_dimension(p)
    return WDecomposition(
        a=float(a),
        mode0_extra=c.scal / (3.0 * c.n),
        t_free_norm2=c.tfree_ric_norm2,
    )


def lg_total(c: CurvatureData, jet: PotentialJet, p: HSParams,
             grid: RadialGrid) -> LgBreakdown:
    """The geometric obstruction functional at (h0, x0), split and summed.

    local_term  = -(1/(4n)) (lap_h - Lambda_ns lap_scal - K)
                    * integral |X|^4 |grad U1|^2 dX,
    nonlocal_term = -(1/2) integral W C(W) dX with the W amplitude
                    a = c_ns Scal(x0) (the source the reduction produces).
    """
    p.require("the obstruction functional")
    from .linearized import nonlocal_term
    from .moments import bubble_moment
    r4grad = bubble_moment(p, "r4grad")
    k = kns(c, p)
    local = -(jet.lap_h - p.lambda_ns * c.lap_scal - k) * r4grad / (4.0 * p.n)
    if not math.isfinite(local):
        raise NumericalError(
            "the local term -(lap_h - Lambda_ns lap_scal - K) int |X|^4 "
            f"|grad U1|^2 / (4n) at lap_h = {jet.lap_h!r}, lap_scal = "
            f"{c.lap_scal!r}, K = {k!r} leaves the float range")
    w = assemble_w(c, p, p.c_ns * c.scal)
    nonlocal_part = -0.5 * nonlocal_term(p, w, grid)
    return LgBreakdown(local_term=local, nonlocal_term=nonlocal_part,
                       total=local + nonlocal_part)
