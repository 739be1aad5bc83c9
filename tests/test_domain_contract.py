"""The identity report's domain contract over a fixed (n, s) grid.

Every point either answers within roundoff of the six closed-form ratio
identities or refuses with a typed NumericalError that names kappa: a
kappa that overflows a float, or a kappa**2 (kappa**2*(s)) that does,
carried by the moment integrands.  pytest turns numpy's RuntimeWarnings
into errors (pyproject.toml), so a run that answers passes no silent
overflow either.  ROADMAP item 6's amplitude-free core turns refusals into
answers; this file then grows the CLI runs and the scaling properties it
names.  The first of those, the sphere:R covariance of the obstruction and
of c4, holds bit for bit already.
"""

import functools

import pytest

from hsbubble.bubble import default_grid
from hsbubble.energy import RadialModel, predicted_coeffs
from hsbubble.errors import NumericalError
from hsbubble.geometry import PotentialJet, curvature_preset, lg_total
from hsbubble.moments import identity_report
from hsbubble.params import HSParams

DIMS = tuple(range(7, 21)) + (24, 30, 40, 60)
EXPONENTS = (0.0, 0.01, 0.5, 1.0, 1.5, 1.7, 1.8, 1.9, 1.95, 1.99)


def test_identity_report_answers_at_roundoff_or_names_kappa():
    answered, refused = [], []
    for n in DIMS:
        for s in EXPONENTS:
            try:
                report = identity_report(HSParams(n, s))
            except NumericalError as exc:
                assert "kappa" in str(exc), (n, s, str(exc))
                refused.append((n, s))
                continue
            worst = max(r["rel_residual"] for r in report.ratios.values())
            # 1.2e-12 at (7, 1.95), the worst point
            assert worst <= 2e-12, (n, s, worst)
            answered.append((n, s))
    # 137 of the 180 points answer; a refusal that replaced an answer
    # would be a regression, however it is worded
    assert len(answered) >= 137, refused


@functools.cache
def _sphere_obstruction(radius):
    """lg_total's three terms and c4 at (9, 0.5) on sphere:radius, with
    h0 = 3/R^2 and lap_h = 1.5/R^4: every input scales as its R power."""
    p = HSParams(9, 0.5)
    c = curvature_preset(f"sphere:{radius}", 9)
    jet = PotentialJet(3.0 / radius**2, 1.5 / radius**4)
    lg = lg_total(c, jet, p, default_grid(p))
    c4 = predicted_coeffs(RadialModel(c, jet, r0=radius), p)["c4"]
    return lg.local_term, lg.nonlocal_term, lg.total, c4


@pytest.mark.parametrize("radius", [2.0, 0.5])
def test_sphere_radius_scales_obstruction_and_c4_exactly(radius):
    # each is a sum of products of one R^-2 amplitude with another, or of
    # one R^-4 amplitude with an R-free moment or pairing, and R is a
    # power of 2, so R^-4 comes out exact
    assert _sphere_obstruction(radius) == tuple(
        v * radius**-4 for v in _sphere_obstruction(1.0))
