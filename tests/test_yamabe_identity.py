"""The Yamabe limit: at s = 0 the delta**4 quartic is a multiple of |Weyl|**2.

At s = 0 the equation is -Delta_g u + h u = u**(2* - 1), and the coupling
constants collapse to the conformal c_n = (n - 2)/(4(n - 1)).  With
h = c_n Scal near x0 (h0 = c_n Scal, lap_h = c_n lap_scal) the operator is
the conformal Laplacian, so for locally conformally flat data the problem
is conformally the flat one: the delta**4 coefficient of the minimal energy,

    Q = c4 - nonlocal_term,

(c4 from predicted_coeffs, nonlocal_term from lg_total, the Q of
tests/test_nonlinear_oracle.py) vanishes when the Weyl tensor at x0 does
and is linear in |W|**2 otherwise (Aubin, J. Math. Pures Appl. 55, 1976;
Schoen, J. Diff. Geom. 20, 1984; Lee & Parker, Bull. AMS 17, 1987, §5).

Weyl-free data are built from Scal, the trace-free Ricci norm |T|**2 and
lap_scal:

    |Ric|**2 = |T|**2 + Scal**2 / n,
    |Rm|**2  = 4 |Ric|**2 / (n - 2) - 2 Scal**2 / ((n - 1)(n - 2)) + |W|**2.

It pins the trace-free (ell = 2) pairing with its sign and angular factor,
and the |Ric|**2 and |Rm|**2 coefficients of the local term, which no radial
oracle reaches.  The nonlocal term is second order in the step R_max/N, so
Q is extrapolated from N = 8000 and 16000 (Richardson) on R_max = 200.
"""

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from hsbubble.bubble import default_grid
from hsbubble.energy import RadialModel, predicted_coeffs
from hsbubble.geometry import CurvatureData, PotentialJet, lg_total
from hsbubble.moments import bubble_moment
from hsbubble.params import HSParams

DIMS = (9, 10, 12, 16)
# predicted_coeffs does not depend on r0; a small r0 keeps the truncated
# density positive for every draw
R0 = 0.1

# database=None keeps no examples, but hypothesis still caches the constants
# it reads from local modules, at collection, under its home directory
# (./.hypothesis by default); a directory removed at exit keeps that out of
# the checkout
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


def conformal_data(n, scal, t2, lap_scal, w2=0.0):
    """Curvature with the given |W|**2 and the potential h = c_n Scal."""
    p = HSParams(n, 0.0)
    ric2 = t2 + scal**2 / n
    rm2 = 4.0 * ric2 / (n - 2) - 2.0 * scal**2 / ((n - 1) * (n - 2)) + w2
    c = CurvatureData(n, scal, ric2, rm2, lap_scal)
    return p, c, PotentialJet(p.c_ns * scal, p.c_ns * lap_scal)


def quartic(n, scal, t2, lap_scal, w2=0.0, N=16000):
    """(c4, nonlocal_term) at s = 0 on the N, 200 grid."""
    p, c, jet = conformal_data(n, scal, t2, lap_scal, w2)
    c4 = predicted_coeffs(RadialModel(c, jet, r0=R0), p)["c4"]
    lg = lg_total(c, jet, p, default_grid(p, N, R_max=200.0))
    return c4, lg.nonlocal_term


def richardson(n, scal, t2, lap_scal, w2=0.0):
    """Q extrapolated from N = 8000 and 16000, and |c4| + |nonlocal_term|."""
    c4, coarse = quartic(n, scal, t2, lap_scal, w2, N=8000)
    _, fine = quartic(n, scal, t2, lap_scal, w2, N=16000)
    return (4.0 * (c4 - fine) - (c4 - coarse)) / 3.0, abs(c4) + abs(fine)


@pytest.mark.parametrize("n", DIMS)
@pytest.mark.parametrize("case", ["sphere", "tracefree", "mixed"])
def test_weyl_free_quartic_vanishes(n, case):
    scal, t2, lap_scal = {"sphere": (n * (n - 1.0), 0.0, 0.0),
                          "tracefree": (0.0, 1.0, 0.0),
                          "mixed": (-7.5, 3.0, 2.0)}[case]
    q, scale = richardson(n, scal, t2, lap_scal)
    assert abs(q) <= 1e-4 * scale


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(n=st.sampled_from(DIMS), scal=st.floats(-60.0, 60.0),
       t2=st.floats(0.5, 20.0), lap_scal=st.floats(-10.0, 10.0))
def test_weyl_free_quartic_vanishes_for_any_draw(n, scal, t2, lap_scal):
    q, scale = richardson(n, scal, t2, lap_scal)
    assert abs(q) <= 1e-4 * scale


def test_quartic_is_linear_in_weyl_norm():
    # Q = slope |W|**2 through 0: -11513.94 and -23027.91 at n = 10
    q1, _ = richardson(10, 0.0, 1.0, 0.0, w2=1.0)
    q2, _ = richardson(10, 0.0, 1.0, 0.0, w2=2.0)
    # Weyl curvature lowers the energy below the sphere's (Aubin)
    assert q1 < 0.0
    assert q2 == pytest.approx(2.0 * q1, rel=1e-5)


def test_laplacian_only_datum_is_roundoff():
    n, lap_scal = 10, 3.0
    p, _, jet = conformal_data(n, 0.0, 0.0, lap_scal)
    c4, nonlocal_part = quartic(n, 0.0, 0.0, lap_scal, N=8000)
    scale = (abs(jet.lap_h) + p.lambda_ns * abs(lap_scal)) \
        * bubble_moment(p, "r2mass") / (4.0 * n)
    assert abs(c4) <= 1e-12 * scale
    assert abs(nonlocal_part) <= 1e-12 * scale


def rm_weight_over_c0(n, s):
    """a_Rm / c0: the |Rm|**2 coefficient of c4, differenced in rm_norm2 on
    otherwise zero data, over c0, both from predicted_coeffs."""
    p = HSParams(n, s)
    c = [predicted_coeffs(RadialModel(CurvatureData(n, 0.0, 0.0, rm2, 0.0),
                                      PotentialJet(0.0, 0.0)), p)
         for rm2 in (0.0, 1.0)]
    return (c[1]["c4"] - c[0]["c4"]) / c[0]["c0"]


def test_aubin_weyl_constant_at_s0():
    """The |Rm|**2 coefficient of c4 is purely local: with
    K = r4grad/2 - r4crit/2*, it is a_Rm = -3 K / (360 n (n+2)).  At s = 0
    the Beta moments make a_Rm / c0 = -1/(24 (n-4)(n-6)) for every n >= 7.
    With the minimal energy Q**(n/2)/n (Q the Yamabe quotient) and
    |Rm|**2 = |W|**2 in conformal normal coordinates, that is
    dQ/Q = -|W|**2 delta**4 / (12 n (n-4)(n-6)), the constant of Aubin's
    test-function expansion (J. Math. Pures Appl. 55, 1976).  It pins the
    -3 |Rm|**2 weight of the density, the r4grad and r4crit closed forms
    and c0 at once; measured to 7.6e-14."""
    for n in range(7, 41):
        want = -1.0 / (24.0 * (n - 4) * (n - 6))
        assert rm_weight_over_c0(n, 0.0) == pytest.approx(want, rel=1e-12), n


@pytest.mark.parametrize("n,ratio", [(7, -3 / 20), (8, -63 / 1600),
                                     (9, -1 / 60), (10, -99 / 11200),
                                     (12, -143 / 40320)])
def test_rm_weight_is_rational_at_s1(n, ratio):
    # at s = 1 the Gamma ratios of the moments cancel to rationals
    # (measured to 3.9e-15); at s = 0.5 they do not
    assert rm_weight_over_c0(n, 1.0) == pytest.approx(ratio, rel=1e-13)
