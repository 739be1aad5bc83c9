"""Curvature data plumbing, density coefficients, and the obstruction split.

The heavyweight oracle here is the round sphere: its normalized volume
density is exactly (sin r / r)^(n-1), whose Taylor coefficients at r = 0
follow from composing the sine series with the binomial — computed below in
exact rational arithmetic, independently of the production formula.
"""

import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hsbubble.bubble import default_grid
from hsbubble.errors import DomainError
from hsbubble.geometry import (
    CURVATURE_SCHEMA_KEYS,
    CurvatureData,
    LgBreakdown,
    PotentialJet,
    assemble_w,
    curvature_preset,
    density_coeffs,
    kns,
    lg_total,
    potential_file,
)
from hsbubble.moments import bubble_moment
from hsbubble.params import HSParams, derive_constants


def sphere_density_taylor(n):
    """Exact r^2 and r^4 Taylor coefficients of (sin r / r)^(n-1).

    sin r / r = 1 - r^2/6 + r^4/120 - ..., so with k = n - 1,
    (1 + a2 r^2 + a4 r^4 + ...)^k = 1 + k a2 r^2
                                      + (k a4 + k(k-1)/2 a2^2) r^4 + ...
    """
    k = n - 1
    a2 = Fraction(-1, 6)
    a4 = Fraction(1, 120)
    c2 = k * a2
    c4 = k * a4 + Fraction(k * (k - 1), 2) * a2 * a2
    return c2, c4


# ----------------------------------------------------------------- presets


def test_flat_preset_is_zero():
    c = curvature_preset("flat", 7)
    assert (c.scal, c.ric_norm2, c.rm_norm2, c.lap_scal) == (0, 0, 0, 0)
    assert c.tfree_ric_norm2 == 0.0
    assert c.n == 7


def test_sphere_preset_values():
    c = curvature_preset("sphere:1", 7)
    assert c.scal == 42.0
    assert c.ric_norm2 == 252.0
    assert c.rm_norm2 == 84.0
    assert c.lap_scal == 0.0
    assert c.tfree_ric_norm2 == 0.0  # Einstein: trace-free part vanishes

    c2 = curvature_preset("sphere:2", 7)
    assert c2.scal == 10.5
    assert c2.ric_norm2 == 15.75
    assert c2.rm_norm2 == 5.25

    # bare "sphere" means radius 1
    assert curvature_preset("sphere", 9).scal == curvature_preset("sphere:1", 9).scal


def test_sphere_preset_tfree_clamp():
    # at radii where scal**2/n rounds above ric_norm2 by an ulp, the derived
    # trace-free magnitude must clamp to 0, never go negative
    for radius in (1.0, 2.0, 3.0, 7.0, 0.3):
        c = curvature_preset(f"sphere:{radius}", 11)
        assert c.tfree_ric_norm2 >= 0.0
        assert c.tfree_ric_norm2 <= 1e-12 * c.ric_norm2


@pytest.mark.parametrize("bad", ["sphere:0", "sphere:-2", "sphere:nan",
                                 "sphere:xyz", ""])
def test_bad_sphere_strings_rejected(bad):
    with pytest.raises(DomainError):
        curvature_preset(bad, 7)


def test_curvature_file_roundtrip(tmp_path):
    payload = {"scal": 3.5, "ric_norm2": 4.0, "rm_norm2": 1.25,
               "lap_scal": -2.0}
    path = tmp_path / "curv.json"
    path.write_text(json.dumps(payload))
    c = curvature_preset(str(path), 7)
    assert c.scal == 3.5
    assert c.ric_norm2 == 4.0
    assert c.rm_norm2 == 1.25
    assert c.lap_scal == -2.0
    # same mapping passed directly
    c_direct = curvature_preset(payload, 7)
    assert c_direct == c


def test_curvature_file_schema_errors(tmp_path):
    base = {"scal": 1.0, "ric_norm2": 1.0, "rm_norm2": 1.0, "lap_scal": 0.0}

    missing = dict(base)
    del missing["rm_norm2"]
    extra = dict(base, bogus=1.0)
    nonnum = dict(base, scal="large")
    boolean = dict(base, scal=True)

    for bad in (missing, extra, nonnum, boolean, [1, 2, 3]):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(DomainError):
            curvature_preset(str(path), 7)

    notjson = tmp_path / "notjson.json"
    notjson.write_text("{scal:")
    with pytest.raises(DomainError):
        curvature_preset(str(notjson), 7)
    with pytest.raises(DomainError):
        curvature_preset(str(tmp_path / "nope.json"), 7)


SCHEMAS = Path(__file__).resolve().parent.parent / "schemas"


def _schema(name):
    return json.loads((SCHEMAS / f"{name}.schema.json").read_text("utf-8"))


def test_curvature_schema_matches_the_code():
    schema = _schema("curvature")
    assert schema["required"] == list(CURVATURE_SCHEMA_KEYS)
    assert list(schema["properties"]) == list(CURVATURE_SCHEMA_KEYS)
    assert schema["additionalProperties"] is False


def test_potential_schema_matches_the_code(tmp_path):
    # potential_file reads exactly the schema's properties: every required
    # key, the optional one (f0, default 0), and nothing else
    schema = _schema("potential")
    assert schema["additionalProperties"] is False
    required = schema["required"]
    optional = [k for k in schema["properties"] if k not in required]
    assert optional == ["f0"]
    path = tmp_path / "pot.json"

    def read(payload):
        path.write_text(json.dumps(payload))
        return potential_file(str(path))

    # the schema's keys are PotentialJet's fields, in order
    assert list(schema["properties"]) == list(PotentialJet._fields)
    full = {k: float(i + 1) for i, k in enumerate(schema["properties"])}
    assert read(full) == PotentialJet(full["h0"], full["lap_h"], full["f0"])
    assert read({k: full[k] for k in required}).f0 == 0.0
    for key in required:
        with pytest.raises(DomainError, match=re.escape(f"missing ['{key}']")):
            read({k: v for k, v in full.items() if k != key})
    with pytest.raises(DomainError, match=re.escape("unexpected ['extra']")):
        read(dict(full, extra=1.0))


def test_curvature_invariant_violations():
    # |Ric|^2 below Scal^2/n is geometrically impossible
    with pytest.raises(DomainError):
        CurvatureData(n=7, scal=10.0, ric_norm2=1.0, rm_norm2=0.0,
                      lap_scal=0.0)
    with pytest.raises(DomainError):
        CurvatureData(n=7, scal=0.0, ric_norm2=0.0, rm_norm2=-1.0,
                      lap_scal=0.0)
    with pytest.raises(DomainError):
        CurvatureData(n=7, scal=math.nan, ric_norm2=0.0, rm_norm2=0.0,
                      lap_scal=0.0)
    with pytest.raises(DomainError):
        CurvatureData(n=2, scal=0.0, ric_norm2=0.0, rm_norm2=0.0,
                      lap_scal=0.0)


# -------------------------------------------------- density coefficients


def test_density_coeffs_unit_sphere_n7():
    c = curvature_preset("sphere:1", 7)
    got = density_coeffs(c)
    assert got["c2"] == pytest.approx(-1.0, rel=1e-14)
    assert got["c4"] == pytest.approx(7.0 / 15.0, rel=1e-14)


def test_density_coeffs_radius_two_n7():
    got = density_coeffs(curvature_preset("sphere:2", 7))
    assert got["c2"] == pytest.approx(-0.25, rel=1e-14)
    assert got["c4"] == pytest.approx(7.0 / 240.0, rel=1e-14)


@pytest.mark.parametrize("n", range(7, 13))
def test_density_coeffs_against_sphere_taylor_oracle(n):
    c2_o, c4_o = sphere_density_taylor(n)
    got = density_coeffs(curvature_preset("sphere:1", n))
    assert got["c2"] == pytest.approx(float(c2_o), rel=1e-12)
    assert got["c4"] == pytest.approx(float(c4_o), rel=1e-12)


def test_density_coeffs_flat():
    got = density_coeffs(curvature_preset("flat", 9))
    assert got == {"c2": 0.0, "c4": 0.0}


def test_density_coeffs_lap_scal_sign_convention():
    # minus-divergence convention: Delta Scal enters c4 with weight +1/(20n(n+2))
    flat = curvature_preset("flat", 7)
    bumped = CurvatureData(n=7, scal=0.0, ric_norm2=0.0, rm_norm2=0.0,
                           lap_scal=5.0)
    dc4 = density_coeffs(bumped)["c4"] - density_coeffs(flat)["c4"]
    assert dc4 == pytest.approx(18.0 * 5.0 / (360.0 * 7 * 9), rel=1e-14)


# --------------------------------------------------------------------- K


def test_kns_unit_sphere_7_1():
    p = HSParams(7, 1.0)
    c = curvature_preset("sphere:1", 7)
    # (Lambda/18)(8*252 - 3*84 - (5/9)*42^2 * (2-s)/... ) at s=1:
    # (1/88)(2016 - 252 - 980) = 98/11
    assert kns(c, p) == pytest.approx(98.0 / 11.0, rel=1e-13)


def test_kns_flat_and_s_limit():
    assert kns(curvature_preset("flat", 7), HSParams(7, 1.0)) == 0.0
    # at s = 0 the scal^2 weight is exactly 1
    p0 = HSParams(7, 0.0)
    lam0 = derive_constants(p0).lambda_ns
    c = CurvatureData(n=7, scal=3.0, ric_norm2=9.0 / 7.0 + 2.0, rm_norm2=1.0,
                      lap_scal=0.0)
    expect = (lam0 / 18.0) * (8.0 * c.ric_norm2 - 3.0 * c.rm_norm2 - 9.0)
    assert kns(c, p0) == pytest.approx(expect, rel=1e-14)


def test_kns_dimension_mismatch():
    with pytest.raises(DomainError):
        kns(curvature_preset("flat", 8), HSParams(7, 1.0))


# ------------------------------------------------------------ assemble_w


def test_assemble_w_unit_sphere():
    p = HSParams(7, 1.0)
    c = curvature_preset("sphere:1", 7)
    a = derive_constants(p).c_ns * c.scal  # (25/132)*42 = 175/22
    w = assemble_w(c, p, a)
    assert w.a == pytest.approx(175.0 / 22.0, rel=1e-14)
    assert w.mode0_extra == 2.0  # Scal/(3n) = 42/21, exactly
    assert w.t_free_norm2 == 0.0


def test_assemble_w_flat_and_pure_tracefree():
    p = HSParams(7, 1.0)
    w0 = assemble_w(curvature_preset("flat", 7), p, 0.0)
    assert (w0.a, w0.mode0_extra, w0.t_free_norm2) == (0.0, 0.0, 0.0)

    c = CurvatureData(n=7, scal=0.0, ric_norm2=3.0, rm_norm2=0.5,
                      lap_scal=0.0)
    w = assemble_w(c, p, 1.0)
    assert w.mode0_extra == 0.0
    assert w.t_free_norm2 == 3.0

    with pytest.raises(DomainError):
        assemble_w(c, HSParams(8, 1.0), 1.0)
    with pytest.raises(DomainError):
        assemble_w(c, p, math.inf)


# --------------------------------------------------------------- lg_total


@pytest.fixture(scope="module")
def grid71():
    return default_grid(HSParams(7, 1.0), N=2000)


def test_lg_total_flat_zero_potential(grid71):
    p = HSParams(7, 1.0)
    out = lg_total(curvature_preset("flat", 7), PotentialJet(0.0, 0.0),
                   p, grid71)
    assert isinstance(out, LgBreakdown)
    assert out.local_term == 0.0
    assert out.nonlocal_term == 0.0
    assert out.total == 0.0


def test_lg_total_unit_sphere_local_term(grid71):
    p = HSParams(7, 1.0)
    c = curvature_preset("sphere:1", 7)
    out = lg_total(c, PotentialJet(h0=175.0 / 22.0, lap_h=0.0), p, grid71)
    want_local = (98.0 / 11.0) / 28.0 * bubble_moment(p, "r4grad")
    assert out.local_term == pytest.approx(want_local, rel=1e-12)
    assert out.local_term > 0.0
    assert out.total == out.local_term + out.nonlocal_term
    assert math.isfinite(out.nonlocal_term) and out.nonlocal_term != 0.0


def test_lg_total_linear_in_lap_h(grid71):
    p = HSParams(7, 1.0)
    c = curvature_preset("sphere:1", 7)
    r4grad = bubble_moment(p, "r4grad")
    base = lg_total(c, PotentialJet(0.0, 3.0), p, grid71)
    for k in (1, 7, 50):
        shifted = lg_total(c, PotentialJet(0.0, 3.0 - 2.0 * p.n / k), p,
                           grid71)
        # nonlocal mechanism never sees lap_h
        assert shifted.nonlocal_term == base.nonlocal_term
        assert shifted.total - base.total == pytest.approx(
            r4grad / (2.0 * k), rel=1e-12)


def test_lg_total_rejects_bad_params(grid71):
    c = curvature_preset("flat", 6)
    with pytest.raises(DomainError):
        lg_total(c, PotentialJet(0.0, 0.0), HSParams(6, 1.0), grid71)
    # s = 0 (the Yamabe limit) answers, on its uniform default grid
    p0 = HSParams(7, 0.0)
    out = lg_total(curvature_preset("sphere:1", 7), PotentialJet(0.0, 0.0),
                   p0, default_grid(p0, N=2000))
    assert math.isfinite(out.total) and out.nonlocal_term != 0.0


def test_potential_jet_validation():
    jet = PotentialJet(1.0, -2.0)
    assert jet.f0 == 0.0
    assert PotentialJet(1.0, -2.0, 3.0).f0 == 3.0
    with pytest.raises(DomainError):
        PotentialJet(math.inf, 0.0)
    with pytest.raises(DomainError):
        PotentialJet(0.0, math.nan)


# -------------------------------------------------------- collapse identity


def test_r4_coefficient_collapse_identity():
    """(1/3) Scal (c_ns Scal) - F * n(n+2)(n-2)(10-s)/(2n-2-s)
    == -Lambda_ns * lap_scal - K, on randomized curvature data.

    This is the algebraic mechanism by which the r^4 energy coefficients
    reorganize into the obstruction functional at the critical potential.
    """
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(7, 13))
        s = float(rng.uniform(0.05, 1.95))
        p = HSParams(n, s)
        consts = derive_constants(p)
        scal = float(rng.normal(0.0, 10.0))
        ric = scal**2 / n + float(rng.uniform(0.0, 50.0))
        rm = float(rng.uniform(0.0, 50.0))
        lap = float(rng.normal(0.0, 20.0))
        c = CurvatureData(n=n, scal=scal, ric_norm2=ric, rm_norm2=rm,
                          lap_scal=lap)
        F = density_coeffs(c)["c4"]
        Q = n * (n + 2.0) * (n - 2.0) * (10.0 - s) / (2.0 * n - 2.0 - s)
        lhs = scal * (consts.c_ns * scal) / 3.0 - F * Q
        rhs = -consts.lambda_ns * lap - kns(c, p)
        scale = max(1.0, abs(lhs), abs(rhs))
        assert abs(lhs - rhs) <= 1e-10 * scale
