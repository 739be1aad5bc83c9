"""End-to-end checks of the subcommand driver: report shapes, exit codes,
byte-identical re-runs, and the emitted CSV side files."""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import hsbubble
from hsbubble import cli
from hsbubble.cli import main
from hsbubble.moments import bubble_moment
from hsbubble.params import HSParams, derive_constants
from hsbubble.reduction import Verdict

from closed_forms import flat_alpha_inv_closed_form

P71 = HSParams(7, 1.0)
CRIT_H0 = derive_constants(P71).c_ns * 42.0  # threshold for the unit sphere


def invoke(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def invoke_json(capsys, argv):
    rc, out, err = invoke(capsys, argv + ["--json"])
    assert rc == 0, err
    return json.loads(out)


# ------------------------------------------------------------- report shape


def test_constants_json_document(capsys):
    doc = invoke_json(capsys, ["constants", "--n", "7", "--s", "1"])
    assert set(doc) == {"tool", "subcommand", "inputs", "outputs"}
    assert doc["tool"] == "hsbubble"
    assert doc["subcommand"] == "constants"
    assert doc["inputs"] == {"n": 7, "s": 1.0}
    c = derive_constants(P71)
    assert doc["outputs"]["kappa"] == c.kappa
    assert doc["outputs"]["c_ns"] == c.c_ns
    assert doc["outputs"]["lambda_ns"] == c.lambda_ns
    assert doc["outputs"]["crit_exp"] == 2.4
    assert doc["outputs"]["kappa_pow"] == 30.0


def test_constants_rerun_byte_identical(capsys):
    argv = ["constants", "--n", "9", "--s", "0.5", "--json"]
    rc1, out1, _ = invoke(capsys, argv)
    rc2, out2, _ = invoke(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_constants_rerun_from_echoed_inputs(capsys):
    doc = invoke_json(capsys, ["constants", "--n", "10", "--s", "1.25"])
    echoed = ["constants", "--n", str(doc["inputs"]["n"]),
              "--s", repr(doc["inputs"]["s"]), "--json"]
    rc, out, _ = invoke(capsys, echoed)
    assert rc == 0
    assert json.loads(out) == doc


# ----------------------------------------------------------------- integrals


def test_integrals_json_ratio_fields(capsys):
    doc = invoke_json(capsys, ["integrals", "--n", "7", "--s", "1"])
    ratios = doc["outputs"]["ratios"]
    assert set(ratios) == {"r2grad_over_mass2", "r2crit_over_mass2",
                           "r4grad_over_r2mass", "r4crit_over_r2mass",
                           "fraction0", "r4combined"}
    for row in ratios.values():
        assert set(row) == {"quadrature", "closed_form", "abs_residual",
                            "rel_residual"}


# -------------------------------------------------------------------- bubble


def test_bubble_profile_csv(capsys, tmp_path):
    path = tmp_path / "profile.csv"
    doc = invoke_json(capsys,
                      ["bubble", "--n", "7", "--s", "1", "--delta", "0.1",
                       "--emit-profile", str(path), "--points", "101"])
    rows = list(csv.DictReader(path.read_text().splitlines()))
    assert len(rows) == 101
    assert list(rows[0]) == ["r", "U_delta", "dr_U_delta", "Z_delta"]
    kappa = derive_constants(P71).kappa
    center = kappa * 0.1 ** (-2.5)
    assert float(rows[0]["U_delta"]) == pytest.approx(center, rel=1e-14)
    assert doc["outputs"]["center_value"] == pytest.approx(center, rel=1e-14)
    assert float(rows[-1]["r"]) == pytest.approx(2.0, rel=1e-14)
    # profile decreasing in r
    u = np.array([float(r["U_delta"]) for r in rows])
    assert np.all(np.diff(u) < 0)


@pytest.mark.parametrize("s", ["0.5", "1", "1.5", "1.9"])
def test_emitted_csvs_hold_only_finite_numbers(capsys, tmp_path, s):
    # U' ~ r**(1-s) is unbounded at r = 0 for s > 1 (was a -inf row), so
    # the profile starts at the first r > 0 there and reports its true size
    prof, modes = tmp_path / "profile.csv", tmp_path / "modes.csv"
    out = invoke_json(capsys, ["bubble", "--n", "7", "--s", s, "--delta",
                               "0.1", "--emit-profile", str(prof)])["outputs"]
    out.update(invoke_json(capsys, [
        "chat", "--n", "7", "--s", s, "--curvature", "sphere:1", "--h0", "2",
        "--grid", "500,200,4", "--emit-modes", str(modes)])["outputs"])
    for path, rows_key in ((prof, "profile_rows"), (modes, "modes_rows")):
        rows = list(csv.reader(path.read_text().splitlines()))[1:]
        assert len(rows) == out[rows_key]
        assert np.all(np.isfinite(np.array(rows, dtype=float)))
    assert out["profile_rows"] == (400 if float(s) > 1.0 else 401)


# ---------------------------------------------------------------------- chat


def test_chat_parts_and_modes_csv(capsys, tmp_path):
    path = tmp_path / "modes.csv"
    doc = invoke_json(capsys,
                      ["chat", "--n", "7", "--s", "1",
                       "--curvature", "sphere:1", "--h0", repr(CRIT_H0),
                       "--grid", "1000,100", "--emit-modes", str(path)])
    out = doc["outputs"]
    assert out["nonlocal_term"] == pytest.approx(
        out["mode0_part"] + out["mode2_part"], rel=1e-12)
    assert out["mode2_part"] == 0.0  # sphere W has no trace-free part
    assert out["w"]["t_free_norm2"] == 0.0
    assert abs(out["mode0_solvability"]) < 1e-12
    rows = path.read_text().splitlines()
    assert rows[0] == "r,c0,c2"
    assert len(rows) == 1002  # header + N+1 nodes
    first = rows[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[2]) == 0.0  # ell=2 mode vanishes at the origin


# ------------------------------------------------------------------------ lg


def test_lg_flat_is_zero(capsys):
    doc = invoke_json(capsys,
                      ["lg", "--n", "7", "--s", "1", "--curvature", "flat",
                       "--grid", "1000,100"])
    out = doc["outputs"]
    assert out["local_term"] == 0.0
    assert out["nonlocal_term"] == 0.0
    assert out["total"] == 0.0
    assert out["kns"] == 0.0


def test_lg_sphere_breakdown(capsys):
    doc = invoke_json(capsys,
                      ["lg", "--n", "7", "--s", "1",
                       "--curvature", "sphere:1", "--grid", "1000,100"])
    out = doc["outputs"]
    assert out["kns"] == pytest.approx(98.0 / 11.0, rel=1e-13)
    assert out["density_coeffs"]["c2"] == pytest.approx(-1.0, rel=1e-13)
    assert out["total"] == pytest.approx(
        out["local_term"] + out["nonlocal_term"], rel=1e-12)
    assert doc["inputs"]["curvature"]["scal"] == 42.0


def test_lg_curvature_file_equals_preset(capsys, tmp_path):
    path = tmp_path / "curv.json"
    path.write_text(json.dumps({"scal": 42.0, "ric_norm2": 252.0,
                                "rm_norm2": 84.0, "lap_scal": 0.0}))
    doc_file = invoke_json(capsys,
                           ["lg", "--n", "7", "--s", "1",
                            "--curvature", str(path), "--grid", "1000,100"])
    doc_preset = invoke_json(capsys,
                             ["lg", "--n", "7", "--s", "1",
                              "--curvature", "sphere:1",
                              "--grid", "1000,100"])
    assert doc_file["outputs"] == doc_preset["outputs"]


# -------------------------------------------------------------------- energy


def test_energy_critical_fit(capsys):
    doc = invoke_json(capsys,
                      ["energy", "--n", "7", "--s", "1",
                       "--curvature", "sphere:1", "--h0", repr(CRIT_H0),
                       "--deltas", "0.005:0.05:12"])
    out = doc["outputs"]
    assert abs(out["c4_dev"]) <= 0.05
    assert abs(out["c0_dev"]) <= 1e-8
    assert out["c2_pred"] == 0.0
    assert out["condition"] < 1e9
    assert set(out["nuisance"]) == {"delta^5", "delta^6*log(1/delta)",
                                    "delta^6", "delta^7"}


def test_energy_potential_file(capsys, tmp_path):
    path = tmp_path / "pot.json"
    path.write_text(json.dumps({"h0": CRIT_H0, "lap_h": 0.0}))
    doc_file = invoke_json(capsys,
                           ["energy", "--n", "7", "--s", "1",
                            "--curvature", "sphere:1",
                            "--potential", str(path),
                            "--deltas", "0.005:0.05:12"])
    doc_flag = invoke_json(capsys,
                           ["energy", "--n", "7", "--s", "1",
                            "--curvature", "sphere:1", "--h0", repr(CRIT_H0),
                            "--deltas", "0.005:0.05:12"])
    assert doc_file["outputs"] == doc_flag["outputs"]


# ----------------------------------------------------------------- remainder


def test_remainder_flat_scaling(capsys):
    doc = invoke_json(capsys,
                      ["remainder", "--n", "7", "--s", "1",
                       "--curvature", "flat", "--h0", "2"])
    out = doc["outputs"]
    assert not out["degenerate"]
    check = out["scaling_check"]
    assert set(check["norm_over_delta_sq"]) == {"0.1", "0.01", "0.001"}
    assert check["max_rel_spread"] < 1e-10
    for v in check["norm_over_delta_sq"].values():
        assert v == pytest.approx(out["alpha_inv"], rel=1e-10)


def test_remainder_degenerate_marker(capsys):
    # a zero density answers before kappa is formed, so also at n = 345,
    # where kappa overflows a float
    for n in ("7", "345"):
        doc = invoke_json(capsys,
                          ["remainder", "--n", n, "--s", "1",
                           "--curvature", "flat", "--h0", "0"])
        out = doc["outputs"]
        assert out == {"alpha_inv": 0.0, "alpha": None, "degenerate": True}


# -------------------------------------------------------------------- reduce


def test_reduce_critical_point_values(capsys):
    doc = invoke_json(capsys, ["reduce", "--quad", "-2", "--quartic", "1",
                               "--eps", "0.01"])
    out = doc["outputs"]
    assert out["t0"] == 1.0
    assert out["second_derivative"] == 8.0
    assert out["nondegenerate"] is True
    assert out["delta_at_eps"] == pytest.approx(0.1, rel=1e-15)


def test_reduce_degenerate_quartic(capsys):
    doc = invoke_json(capsys, ["reduce", "--quad", "-2", "--quartic", "0"])
    assert doc["outputs"]["degenerate_quartic"] is True
    assert doc["outputs"]["t0"] is None


# -------------------------------------------------------------------- family


def test_family_ladder_from_base(capsys):
    doc = invoke_json(capsys,
                      ["family", "--n", "7", "--s", "1", "--base-lg", "0",
                       "--f0", "-1", "--k-max", "5"])
    out = doc["outputs"]
    r4grad = bubble_moment(P71, "r4grad")
    assert out["r4grad"] == r4grad
    entries = out["entries"]
    assert [e["k"] for e in entries] == [1, 2, 3, 4, 5]
    for e in entries:
        assert e["lg_k"] == r4grad / (2.0 * e["k"])
        assert e["lap_h_shift"] == -14.0 / e["k"]
        assert e["predicted_t0"] > 0
    t0s = [e["predicted_t0"] for e in entries]
    assert t0s == sorted(t0s)


# ------------------------------------------------------------------- verdict


def test_verdict_three_regimes(capsys):
    expected = {0.9: "subcritical-minimizing",
                1.0: "critical-blowup-candidate",
                1.1: "supercritical"}
    for mult, classification in expected.items():
        doc = invoke_json(capsys,
                          ["verdict", "--n", "7", "--s", "1",
                           "--curvature", "sphere:1",
                           "--h0", repr(mult * CRIT_H0),
                           "--base-lg", "5.0"])
        assert doc["outputs"]["classification"] == classification
        assert doc["outputs"]["critical_value"] == pytest.approx(
            CRIT_H0, rel=1e-15)


def test_verdict_f_sign(capsys):
    doc = invoke_json(capsys,
                      ["verdict", "--n", "7", "--s", "1",
                       "--curvature", "sphere:1", "--h0", repr(CRIT_H0),
                       "--f0", "-1", "--base-lg", "5.0"])
    assert doc["outputs"]["required_f_sign"] == -1
    assert doc["outputs"]["f_sign_ok"] is True
    # the report is the Verdict, field for field
    assert list(doc["outputs"]) == sorted(Verdict._fields)


# ---------------------------------------------------------------- exit codes


def _cases(rows):
    """pytest.param(argv, cause, id=key) for each (argv, cause, key) row.

    A key is a fixed string, so rewording a cause or adding a row renames no
    test; the keys of the first rows are the ids pytest once formed from
    their position and cause text."""
    return [pytest.param(argv, cause, id=key) for argv, cause, key in rows]


@pytest.mark.parametrize("argv,cause", _cases([
    # first cell mass underflows (was exit 0 with the solvability check
    # skipped, and "singular matrix" from the banded solve)
    (["lg", "--n", "30", "--s", "1.5", "--grid", "2000,200"],
     "cell masses underflow to 0 on this grid (gamma = 4.0, N = 2000",
     "argv0-cell masses underflow to 0 on this grid (gamma = 4.0, N = 2000"),
    (["lg", "--n", "7", "--s", "1.9"], "cell masses underflow to 0",
     "argv1-cell masses underflow to 0"),
    # kappa beyond the float range (was an OverflowError traceback)
    (["integrals", "--n", "7", "--s", "1.99"],
     "kappa = ((n - s)(n - 2))**((n - 2)/(2(2 - s))) overflows a float "
     "at n = 7, s = 1.99",
     "argv2-kappa = ((n - s)(n - 2))**((n - 2)/(2(2 - s))) overflows a float "
     "at n = 7, s = 1.99"),
    # kappa finite but a moment prefactor power of it is not (was an
    # OverflowError traceback)
    (["lg", "--n", "16", "--s", "1.9"],
     "kappa**2 overflows a float at n = 16, s = 1.9",
     "argv3-kappa**2 overflows a float at n = 16, s = 1.9"),
    (["energy", "--n", "16", "--s", "1.9", "--curvature", "sphere:1"],
     "kappa**(2*(s)) overflows a float at n = 16, s = 1.9",
     "argv4-kappa**(2*(s)) overflows a float at n = 16, s = 1.9"),
    # a finite scale whose profile amplitude does not fit a float (was an
    # OverflowError traceback)
    (["bubble", "--n", "7", "--s", "1", "--delta", "1e-300"],
     "the profiles at scale delta = 1e-300 overflow a float at n = 7",
     "argv5-the profiles at scale delta = 1e-300 overflow a float at n = 7"),
    # a profile whose last radius 20 delta overflows (was exit 0 with nan
    # and inf cells in the CSV)
    (["bubble", "--n", "7", "--s", "1", "--delta", "1e308",
      "--emit-profile", "p.csv"],
     "the profile's end r = 20 delta leaves the float range at delta = "
     "1e+308", "bubble-profile-end-overflow"),
    # Z_delta at r = 0 carries delta**(-(n-2)/2) = 1e280 times kappa
    (["bubble", "--n", "30", "--s", "0.5", "--delta", "1e-20"],
     "the profiles at scale delta = 1e-20 overflow a float at n = 30 "
     "(their amplitudes carry delta**(-n/2))", "bubble-center-overflow"),
    # an ell = 0 source beyond the float range (was a numpy RuntimeWarning,
    # then "ell = 0 banded solve failed: array must not contain infs or NaNs")
    (["chat", "--n", "7", "--s", "1", "--curvature", "sphere:1",
      "--h0", "1e305", "--grid", "2000,200"],
     "the ell = 0 source with a = 1e+305, mode0_extra = 2.0 and its "
     "projection leave the float range",
     "argv6-the ell = 0 source with a = 1e+305, mode0_extra = 2.0 and its "
     "projection leave the float range"),
    # a remainder density beyond the float range (were exit 0 with
    # "degenerate": true, and with a 6% low delta = 0.001 scaling value)
    (["remainder", "--n", "7", "--s", "1", "--curvature", "flat",
      "--h0", "1e200"],
     "the remainder density with h0 = 1e+200 at delta = 1.0 leaves the "
     "float range",
     "argv7-the remainder density with h0 = 1e+200 at delta = 1.0 leaves the "
     "float range"),
    (["remainder", "--n", "7", "--s", "1", "--curvature", "sphere:1",
      "--h0", "1e200"], "with h0 = 1e+200 at delta = 1.0 leaves",
     "argv8-with h0 = 1e+200 at delta = 1.0 leaves"),
    (["remainder", "--n", "7", "--s", "1", "--curvature", "flat",
      "--h0", "1e190"], "with h0 = 1e+190 at delta = 0.01 leaves",
     "argv9-with h0 = 1e+190 at delta = 0.01 leaves"),
    # cell masses beyond the float range (were numpy RuntimeWarnings, then
    # "scaled operator overflows for this grid")
    (["kernel", "--n", "7", "--s", "1", "--grid", "2000,1e45"],
     "cell masses or fluxes overflow a float on this grid (R_max = 1e+45, "
     "N = 2000",
     "argv10-cell masses or fluxes overflow a float on this grid (R_max = "
     "1e+45, N = 2000"),
    # a potential term that overflows (was a numpy RuntimeWarning and about
    # 3 s spent on the whole budget, then "error estimate nan", then "a
    # quadrature panel sum ... leaves the float range")
    (["energy", "--n", "7", "--s", "1", "--curvature", "flat",
      "--h0", "1e305"], "the energy fit with h0 = 1e+305, lap_h = 0.0: a "
     "quadrature summand f(r) r**(6.0) is not finite at r = ",
     "argv11-the energy fit with h0 = 1e+305, lap_h = 0.0: a quadrature "
     "summand f(r) r**(6.0) is not finite at r = "),
    # a fit whose nuisance amplitudes overflow (at h0 = 1e200 its residual
    # did, and it was exit 0 with Infinity, not JSON; it now answers)
    (["energy", "--n", "7", "--s", "1", "--curvature", "flat",
      "--h0", "1e300"], "the energy fit with h0 = 1e+300, lap_h = 0.0: its "
     "fitted values leave the float range",
     "argv12-the energy fit with h0 = 1e+300, lap_h = 0.0: its fitted values "
     "leave the float range"),
    # a moment integrand beyond the float range everywhere it has mass (was
    # an overflow RuntimeWarning from the tail screen, and without it a
    # ZeroDivisionError traceback on the quadrature value 0); kappa**2 is
    # 1e458 at (13, 1.95), and the r2mass moment's level sum is the first
    # to overflow
    (["integrals", "--n", "13", "--s", "1.95"],
     "the r2mass moment by quadrature at n = 13, s = 1.95: a trapezoidal "
     "sum on [-110.645, 113.022] in x = log r leaves the float range; the "
     "cause is kappa**2, which overflows a float (kappa = 2.1e+229)",
     "argv13-the r2mass moment by quadrature at n = 13, s = 1.95: a "
     "trapezoidal sum on [-110.645, 113.022] in x = log r leaves the float "
     "range; the cause is kappa**2, which overflows a float (kappa = "
     "2.1e+229)"),
    (["integrals", "--n", "40", "--s", "1.8"],
     "the mass2 moment by quadrature at n = 40, s = 1.8 is 0.0",
     "argv14-the mass2 moment by quadrature at n = 40, s = 1.8 is 0.0"),
    # was exit 0 with "t0": Infinity and "second_derivative": -Infinity,
    # which is not JSON
    (["reduce", "--quad", "1e308", "--quartic=-1e-308", "--json"],
     "the second derivative f''(t0) = -4 quad at quad = 1e+308, "
     "quartic = -1e-308 leaves the float range",
     "argv15-the second derivative f''(t0) = -4 quad at quad = 1e+308, "
     "quartic = -1e-308 leaves the float range"),
    # a valid f0 whose (1/2) f0 int U1^2 overflows (was exit 1, "reduced-
    # functional coefficients must be finite")
    (["family", "--n", "7", "--s", "1", "--base-lg", "0", "--f0", "-1e308",
      "--k-max", "3"],
     "quad_coef = (1/2) f0 int U1^2 at f0 = -1e+308 leaves the float range",
     "argv16-quad_coef = (1/2) f0 int U1^2 at f0 = -1e+308 leaves the float "
     "range"),
    # an R_max whose spectral unit (pi/R_max)**2 overflows (was an
    # OverflowError traceback before the grid was checked); R_max = 1e-200
    # is outside the core, whose radius is 1e-270 at (7, 1.99)
    (["kernel", "--n", "7", "--s", "1.99", "--grid", "8,1e-200,2"],
     "cell masses underflow to 0 on this grid (gamma = 2.0, N = 8",
     "argv17-cell masses underflow to 0 on this grid (gamma = 2.0, N = 8"),
    # a finite lap_h whose local term overflows (were exit 1, "obstruction
    # total must be finite, got -inf")
    (["lg", "--n", "7", "--s", "1", "--curvature", "sphere:1",
      "--lap-h", "1e308", "--grid", "100,200"],
     "the local term -(lap_h - Lambda_ns lap_scal - K) int |X|^4 "
     "|grad U1|^2 / (4n) at lap_h = 1e+308, lap_scal = 0.0",
     "argv18-the local term -(lap_h - Lambda_ns lap_scal - K) int |X|^4 |grad "
     "U1|^2 / (4n) at lap_h = 1e+308, lap_scal = 0.0"),
    (["verdict", "--n", "7", "--s", "1", "--curvature", "sphere:1",
      "--h0", "7.954545454545454", "--lap-h", "1e308", "--grid", "100,200"],
     "the local term -(lap_h - Lambda_ns lap_scal - K)",
     "argv19-the local term -(lap_h - Lambda_ns lap_scal - K)"),
    (["family", "--n", "7", "--s", "1", "--curvature", "sphere:1",
      "--lap-h", "-1e308", "--f0", "-1", "--k-max", "2", "--grid", "100,200"],
     "at lap_h = -1e+308, lap_scal = 0.0",
     "argv20-at lap_h = -1e+308, lap_scal = 0.0"),
    # an ell = 0 source whose solve is in range once rescaled but whose
    # pairing is not (were overflow RuntimeWarnings, then "ell = 0 banded
    # solve failed: array must not contain infs or NaNs")
    (["chat", "--n", "7", "--s", "1", "--curvature", "sphere:1",
      "--h0", "1e300", "--grid", "100,200"],
     "the pairing W * C(W) at a = 1e+300, mode0_extra = 2.0, "
     "t_free_norm2 = 0.0 leaves the float range",
     "argv21-the pairing W * C(W) at a = 1e+300, mode0_extra = 2.0, "
     "t_free_norm2 = 0.0 leaves the float range"),
    # a grading that puts 99 of the 100 nodes at 0
    (["kernel", "--n", "7", "--s", "1", "--grid", "100,200,1e300"],
     "grid nodes are not strictly increasing: 99 of the 100 node gaps "
     "underflow to 0 (R_max = 200.0, N = 100, gamma = 1e+300); increase "
     "R_max",
     "argv22-grid nodes are not strictly increasing: 99 of the 100 node gaps "
     "underflow to 0 (R_max = 200.0, N = 100, gamma = 1e+300); increase "
     "R_max"),
    # distinct nodes whose R_max**n underflows, so every cell mass is 0 (was
    # "reduce the grading or N", the wrong remedy); R_max = 1e-100 is
    # outside the core, whose radius is 1e-270 at (7, 1.99)
    (["kernel", "--n", "7", "--s", "1.99", "--grid", "100,1e-100,2"],
     "cell masses underflow to 0 on this grid (gamma = 2.0, N = 100, first "
     "edge radius 5.000e-105); increase R_max (R_max**n underflows)",
     "argv23-cell masses underflow to 0 on this grid (gamma = 2.0, N = 100, "
     "first edge radius 5.000e-105); increase R_max (R_max**n underflows)"),
    # cell masses in range whose scaled operator is not (was an overflow
    # RuntimeWarning before the typed exit); R_max = 1e-11 is outside the
    # core, whose radius is 1e-17 at (7, 1.9)
    (["kernel", "--n", "7", "--s", "1.9", "--grid", "50,1e-11"],
     "scaled operator overflows for this grid",
     "argv24-scaled operator overflows for this grid"),
    # a fit column that underflows to 0 or overflows over the whole sweep
    # (were a RuntimeWarning, then a LinAlgError "SVD did not converge")
    (["energy", "--n", "30", "--s", "1", "--deltas", "1e-12:1e-11:8"],
     "the energy fit's design column delta^30 underflows to 0 over the "
     "sweep [1e-12, 1e-11]",
     "argv25-the energy fit's design column delta^30 underflows to 0 over the "
     "sweep [1e-12, 1e-11]"),
    (["energy", "--n", "7", "--s", "1", "--deltas", "1e-50:1e-49:12"],
     "the energy fit's design column delta^7 underflows to 0 over the "
     "sweep [1e-50, 1e-49]",
     "argv26-the energy fit's design column delta^7 underflows to 0 over the "
     "sweep [1e-50, 1e-49]"),
    (["energy", "--n", "7", "--s", "1", "--r0", "1e60", "--deltas",
      "1e50:1e51:8"],
     "the energy fit's design column delta^7 overflows a float over the "
     "sweep [1e+50, 1e+51]",
     "argv27-the energy fit's design column delta^7 overflows a float over "
     "the sweep [1e+50, 1e+51]"),
    # kappa fits a float but kappa**2 does not: the refusal names that cause
    # after the rule's own symptom (here 12 halvings that do not converge)
    (["integrals", "--n", "18", "--s", "1.9"],
     "the mass2 moment by quadrature at n = 18, s = 1.9: the trapezoidal "
     "rule in x = log r did not converge in 12 halvings",
     "argv28-the mass2 moment by quadrature at n = 18, s = 1.9: the "
     "trapezoidal rule in x = log r did not converge in 12 halvings"),
    (["integrals", "--n", "18", "--s", "1.9"],
     "; the cause is kappa**2, which overflows a float (kappa = 7.51e+192)",
     "argv29-; the cause is kappa**2, which overflows a float (kappa = "
     "7.51e+192)"),
    # the integral is finite, its product with |S^6| is not
    (["remainder", "--n", "7", "--s", "1", "--curvature", "flat",
      "--h0", "1e194"],
     "numerical failure: the remainder density with h0 = 1e+194 at "
     "delta = 1.0 leaves the float range\n",
     "argv30-numerical failure: the remainder density with h0 = 1e+194 at "
     "delta = 1.0 leaves the float range\n"),
    # a Beta sum that overflows where its prefactor kappa**2 does not (were
    # exit 1, "reduced-functional coefficients must be finite", and exit 2
    # naming the local term)
    (["family", "--n", "16", "--s", "1.895", "--base-lg", "0", "--f0", "-1",
      "--k-max", "2"],
     "the r4grad moment overflows a float at n = 16, s = 1.895 (kappa = "
     "1.07996e+153)\n",
     "argv31-the r4grad moment overflows a float at n = 16, s = 1.895 (kappa "
     "= 1.07996e+153)\n"),
    (["lg", "--n", "16", "--s", "1.895", "--curvature", "sphere:1", "--grid",
      "2000,200"],
     "the r4grad moment overflows a float at n = 16, s = 1.895 (kappa = "
     "1.07996e+153)\n",
     "argv32-the r4grad moment overflows a float at n = 16, s = 1.895 (kappa "
     "= 1.07996e+153)\n"),
    # kappa overflows at every s from n = 345, as does a sphere area (was an
    # OverflowError traceback from math.gamma)
    (["remainder", "--n", "345", "--s", "0", "--curvature", "flat",
      "--h0", "1"],
     "kappa = ((n - s)(n - 2))**((n - 2)/(2(2 - s))) overflows a float at "
     "n = 345, s = 0.0\n",
     "argv33-kappa = ((n - s)(n - 2))**((n - 2)/(2(2 - s))) overflows a float "
     "at n = 345, s = 0.0\n"),
    # a bubble inside the quadrature's first panel, whose critical integral
    # sums to 0 (was exit 0 with c0_fit 32171.88 against c0_pred 9191.97)
    (["energy", "--n", "7", "--s", "0", "--curvature", "flat", "--h0", "0",
      "--deltas", "1e-45:1e-44:8"],
     "the energy fit with h0 = 0.0, lap_h = 0.0: J at delta = 1e-45 is "
     "out of the quadrature's reach: the bubble lies inside the first "
     "panel of [0, r0/delta = 1e+45], where the critical integral sums to "
     "0",
     "argv34-the energy fit with h0 = 0.0, lap_h = 0.0: J at delta = 1e-45 is "
     "out of the quadrature's reach: the bubble lies inside the first panel "
     "of [0, r0/delta = 1e+45], where the critical integral sums to 0"),
    # a density coefficient c4 = inf, which passed the positivity test as
    # min(1, inf) = 1 (was "a quadrature summand f(r) r**(6.0) is not
    # finite at r = 7.41128e-19, where f(r) = inf")
    (["energy", "--n", "7", "--s", "1", "--curvature", "c4-inf.json"],
     "the volume density coefficients c2 = -0.0, c4 = inf of this "
     "curvature leave the float range",
     "argv35-the volume density coefficients c2 = -0.0, c4 = inf of this "
     "curvature leave the float range"),
    # 12 distinct deltas over 4.7 decades (was "the sweep is too narrow or
    # contains near-duplicate deltas", the wrong remedy)
    (["energy", "--n", "7", "--s", "1", "--curvature", "flat",
      "--deltas", "0.000001:0.05:12"],
     "fit design matrix condition 3.97e+11 too large for the sweep [1e-06, "
     "0.05] (4.7 decades, 12 distinct deltas): its columns are nearly "
     "dependent when fewer than 7 deltas are distinct, when the span is so "
     "wide that the high powers of delta vanish over most of it, or when n "
     "is so large that the nuisance columns delta^5 to delta^7 barely "
     "differ\n",
     "argv36-fit design matrix condition 3.97e+11 too large for the sweep "
     "[1e-06, 0.05] (4.7 decades, 12 distinct deltas): its columns are nearly "
     "dependent when fewer than 7 deltas are distinct, when the span is so "
     "wide that the high powers of delta vanish over most of it, or when n is "
     "so large that the nuisance columns delta^5 to delta^7 barely differ\n"),
    # the cell masses of this grid overflow, so assemble_mode refuses it,
    # naming R_max, before the source sampled on it is checked
    (["lg", "--n", "7", "--s", "1", "--curvature", "sphere:1",
      "--grid", "2000,1e45"],
     "numerical failure: cell masses or fluxes overflow a float on this "
     "grid (R_max = 1e+45, N = 2000, n = 7); reduce R_max\n",
     "argv37-numerical failure: cell masses or fluxes overflow a float on "
     "this grid (R_max = 1e+45, N = 2000, n = 7); reduce R_max\n"),
    # a potential term hbar U1**2 that overflows through lap_h (was named
    # as the fit with h0 = 0.0 alone, whatever h0 was)
    (["energy", "--n", "10", "--s", "1.9", "--curvature", "flat",
      "--lap-h", "1e200"],
     "the energy fit with h0 = 0.0, lap_h = 1e+200: a quadrature summand "
     "f(r) r**(9.0) is not finite at r = ",
     "argv38-the energy fit with h0 = 0.0, lap_h = 1e+200: a quadrature "
     "summand f(r) r**(9.0) is not finite at r = "),
    # an ell = 2 pairing beyond the float range on this grid (its Keller
    # border's |D g|**2 overflowed first: a numpy RuntimeWarning, then
    # "degenerate projection direction in ell = 0 solve")
    (["chat", "--n", "20", "--s", "1.9", "--curvature",
      "sphere:0.003345348300240055", "--h0", "2.268531129324437", "--grid",
      "50,715.042574629996,7.796216567305055"],
     "numerical failure: the ell = 2 pairing of phi = r U1' / 3 with its "
     "solution c2 leaves the float range on this grid\n",
     "argv39-numerical failure: the ell = 2 pairing of phi = r U1' / 3 with "
     "its solution c2 leaves the float range on this grid\n"),
]))
def test_exit_2_names_the_cause(capsys, tmp_path, monkeypatch, argv, cause):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c4-inf.json").write_text(
        '{"scal": 0, "ric_norm2": 1e308, "rm_norm2": 0, "lap_scal": 0}',
        encoding="utf-8")
    rc, out, err = invoke(capsys, argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("numerical failure: ")
    assert cause in err


def test_chat_answers_where_z0_squares_overflow(capsys):
    # Z0 reaches 3.3e161 on these 8 cells, so ||Z0||_M overflows (were
    # overflow RuntimeWarnings, then a refusal of ||Z0||_M); its norms are
    # taken on Z0 * 2**-k, as kernel's alignment is on the same grid
    out = invoke_json(capsys, ["chat", "--n", "16", "--s", "1.9",
                               "--curvature", "sphere:1", "--h0", "1",
                               "--grid", "8,200"])["outputs"]
    assert out["nonlocal_term"] == out["mode0_part"] + out["mode2_part"]
    assert all(np.isfinite(v) for k, v in out.items() if k != "w")


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_non_finite_output_exits_2(capsys, monkeypatch, json_flag):
    # the backstop behind every handler: no report prints a non-finite number
    monkeypatch.setattr(HSParams, "c_ns", property(lambda self: math.inf))
    rc, out, err = invoke(capsys, ["constants", "--n", "7", "--s", "1",
                                   *json_flag])
    assert (rc, out) == (2, "")
    assert err == ("numerical failure: outputs.c_ns = inf is not a finite "
                   "number\n")


@pytest.mark.parametrize("argv,key,value", [
    (["reduce", "--quad", "2", "--quartic", "-1e-3"], "quartic", -1e-3),
    (["family", "--n", "7", "--s", "1", "--base-lg", "-1.5e+16",
      "--f0", "-1", "--k-max", "2"], "base_lg", -1.5e16),
    (["family", "--n", "7", "--s", "1", "--base-lg", "0", "--f0", "-5.",
      "--k-max", "2"], "potential", {"h0": 0.0, "lap_h": 0.0, "f0": -5.0}),
    (["verdict", "--n", "7", "--s", "1", "--curvature", "sphere:1",
      "--h0", "-1e-05", "--base-lg", "5"], "potential",
     {"h0": -1e-05, "lap_h": 0.0, "f0": 0.0}),
])
def test_negative_exponent_values_are_values(capsys, argv, key, value):
    # argparse alone reads -1e-3, -1.5e+16 and -5. as unknown flags, yet a
    # report echoes numbers in that form
    assert invoke_json(capsys, argv)["inputs"][key] == value


@pytest.mark.parametrize("argv,cause", _cases([
    # was exit 0 with "delta_at_eps": NaN, which is not JSON
    (["reduce", "--quad", "2", "--quartic", "-1", "--eps", "-1", "--json"],
     "eps must be positive and finite, got -1.0",
     "argv0-eps must be positive and finite, got -1.0"),
    # was exit 0 with "eps": NaN echoed
    (["reduce", "--quad", "2", "--quartic", "1", "--eps", "nan", "--json"],
     "eps must be positive and finite, got nan",
     "argv1-eps must be positive and finite, got nan"),
    # was exit 0, the tolerance ignored
    (["integrals", "--n", "7", "--s", "1", "--tol", "nan"], "tol=nan",
     "argv2-tol=nan"),
    # were exit 0 with NaN or 0 centre values
    (["bubble", "--n", "7", "--s", "1", "--delta", "nan"], "delta=nan",
     "argv3-delta=nan"),
    (["bubble", "--n", "7", "--s", "1", "--delta", "inf"], "delta=inf",
     "argv4-delta=inf"),
    # was a numpy ValueError traceback
    (["bubble", "--n", "7", "--s", "1", "--delta", "0.1", "--points", "-1",
      "--emit-profile", "f.csv"], "--points must be >= 1, got -1",
     "argv5---points must be >= 1, got -1"),
    # the one point, r = 0, has no row at s > 1 (was exit 0 with
    # profile_rows = 0 and a header-only CSV)
    (["bubble", "--n", "7", "--s", "1.5", "--delta", "0.1", "--points", "1",
      "--emit-profile", "p.csv"],
     "--points must be >= 2 at s > 1, got 1: the profile leaves out r = 0, "
     "where U' ~ r**(1-s) is unbounded", "bubble-one-point-past-s-1"),
    # were exit 2 with "quadrature budget ... exhausted; error estimate nan"
    (["kernel", "--n", "7", "--s", "1", "--grid", "500,nan"], "R_max=nan",
     "argv6-R_max=nan"),
    (["kernel", "--n", "7", "--s", "1", "--grid", "500,100,nan"],
     "gamma=nan",
     "argv7-gamma=nan"),
    (["lg", "--n", "7", "--s", "1", "--grid", "500,inf"], "R_max=inf",
     "argv8-R_max=inf"),
    # were exit 0 with NaN rungs, and a blow-up candidate
    (["family", "--n", "7", "--s", "1", "--base-lg", "nan", "--f0", "-1",
      "--k-max", "2"], "obstruction total must be finite, got nan",
     "argv9-obstruction total must be finite, got nan"),
    (["verdict", "--n", "7", "--s", "1", "--base-lg", "nan", "--f0", "1"],
     "obstruction total must be finite, got nan",
     "argv10-obstruction total must be finite, got nan"),
    (["verdict", "--n", "7", "--s", "1", "--curvature", "sphere:1",
      "--h0", "7.954545454545454", "--base-lg", "1", "--lg-tol", "nan"],
     "lg_tol must be finite, got nan",
     "argv11-lg_tol must be finite, got nan"),
    # was a RuntimeWarning from numpy before the error
    (["energy", "--n", "7", "--s", "1", "--deltas", "0.01:inf:12"],
     "--deltas needs 0 < lo < hi < inf",
     "argv12---deltas needs 0 < lo < hi < inf"),
    # non-finite curvature and potential fields are named
    (["lg", "--n", "7", "--s", "1", "--lap-h", "inf"],
     "potential jet field 'lap_h' must be finite, got inf",
     "argv13-potential jet field 'lap_h' must be finite, got inf"),
    (["lg", "--n", "7", "--s", "1", "--curvature", "nan-curv.json"],
     "curvature invariant 'scal' must be a finite number, got nan",
     "argv14-curvature invariant 'scal' must be a finite number, got nan"),
    # an (n, s) outside the operation's domain names both
    (["energy", "--n", "6", "--s", "1"],
     "the energy expansion needs n >= 7, got n=6",
     "argv15-the energy expansion needs n >= 7, got n=6"),
    # sphere radii whose invariants leave the float range (were an
    # OverflowError and a ZeroDivisionError traceback, and a message that
    # named ric_norm2 but not the radius)
    (["lg", "--n", "7", "--s", "1", "--curvature", "sphere:1e-200",
      "--grid", "2000,200"], "sphere radius 1e-200 puts",
     "argv16-sphere radius 1e-200 puts"),
    (["lg", "--n", "7", "--s", "1", "--curvature", "sphere:1e-80",
      "--grid", "2000,200"], "sphere radius 1e-80 puts",
     "argv17-sphere radius 1e-80 puts"),
    # were an OverflowError traceback
    (["energy", "--n", "7", "--s", "1", "--r0", "1e300"],
     "r0 = 1e+300 is too large: (2 r0)**2 overflows a float",
     "argv18-r0 = 1e+300 is too large: (2 r0)**2 overflows a float"),
    (["energy", "--n", "7", "--s", "1", "--r0", "1e200"], "r0 = 1e+200",
     "argv19-r0 = 1e+200"),
    # was exit 0 with a blow-up candidate for an obstruction of exactly 0
    (["verdict", "--n", "7", "--s", "1", "--curvature", "sphere:1",
      "--h0", "7.954545454545454", "--base-lg", "0", "--lg-tol", "-1"],
     "lg_tol must be >= 0, got -1.0",
     "argv20-lg_tol must be >= 0, got -1.0"),
    # a negative infinity is a value, refused as one
    (["reduce", "--quad", "2", "--quartic", "-inf"],
     "reduced-functional coefficients must be finite",
     "argv21-reduced-functional coefficients must be finite"),
    # unwritable side files (were FileNotFoundError and IsADirectoryError
    # tracebacks)
    (["bubble", "--n", "7", "--s", "1", "--delta", "0.1",
      "--emit-profile", "missing-dir/p.csv"],
     "cannot write CSV file 'missing-dir/p.csv'",
     "argv22-cannot write CSV file 'missing-dir/p.csv'"),
    (["chat", "--n", "7", "--s", "1", "--h0", "1", "--grid", "1000,100",
      "--emit-modes", "missing-dir/m.csv"],
     "cannot write CSV file 'missing-dir/m.csv'",
     "argv23-cannot write CSV file 'missing-dir/m.csv'"),
    (["integrals", "--n", "7", "--s", "1", "--csv", "."],
     "cannot write CSV file '.'",
     "argv24-cannot write CSV file '.'"),
    # :6 and :7 passed a "6 deltas" check and failed later on the design
    *((["energy", "--n", "7", "--s", "1", "--deltas", f"0.005:0.05:{k}"],
       f"need at least 8 deltas (7 fit columns and one residual degree of "
       f"freedom), got {k}",
       f"argv{i}-need at least 8 deltas (7 fit columns and one residual "
       f"degree of freedom), got {k}")
      for i, k in ((25, 5), (26, 6), (27, 7))),
    # every other operation answers at s = 0; the kernel's window misses
    # the kernel pair there
    (["kernel", "--n", "7", "--s", "0"],
     "the kernel diagnostics need s in (0, 2), got s=0.0",
     "argv28-the kernel diagnostics need s in (0, 2), got s=0.0"),
    # values that do not parse are named with their flag
    (["kernel", "--n", "7", "--s", "1", "--grid", "8000,abc"],
     "bad --grid value '8000,abc'",
     "argv29-bad --grid value '8000,abc'"),
    (["energy", "--n", "7", "--s", "1", "--deltas", "x:0.05:12"],
     "bad --deltas value 'x:0.05:12'",
     "argv30-bad --deltas value 'x:0.05:12'"),
    # grids that end inside the profile's core, whose radius is 0.2 at
    # (7, 1) (were exit 0 with nonlocal_term 4.86e-20 and mode0_min_eig
    # 1.94e81, and exit 2 with "scaled operator overflows for this grid")
    (["lg", "--n", "7", "--s", "1", "--curvature", "sphere:1",
      "--grid", "8,1e-3"],
     "the grid ends at R_max = 0.001, inside the bubble's core of radius "
     "0.2",
     "argv31-the grid ends at R_max = 0.001, inside the bubble's core of "
     "radius 0.2"),
    (["kernel", "--n", "7", "--s", "1", "--grid", "8,1e-40"],
     "the grid ends at R_max = 1e-40, inside the bubble's core",
     "argv32-the grid ends at R_max = 1e-40, inside the bubble's core"),
    (["kernel", "--n", "7", "--s", "1", "--grid", "100,1e-40"],
     "the grid ends at R_max = 1e-40, inside the bubble's core",
     "argv33-the grid ends at R_max = 1e-40, inside the bubble's core"),
    # the core test runs before the grid's float checks (were exit 2, "cell
    # masses underflow" and "grid nodes are not strictly increasing")
    *((["kernel", "--n", "7", "--s", "1", "--grid", grid],
       f"the grid ends at R_max = {r_max}, inside the bubble's core of "
       "radius 0.2",
       f"argv{i}-the grid ends at R_max = {r_max}, inside the bubble's core "
       "of radius 0.2")
      for i, grid, r_max in ((34, "100,1e-100", "1e-100"),
                             (35, "8,1e-300", "1e-300"),
                             (36, "100,5e-324", "5e-324"))),
    # a Scal whose square overflows violates Cauchy-Schwarz for every finite
    # ric_norm2 (was an OverflowError traceback)
    (["energy", "--n", "7", "--s", "1", "--curvature", "big-scal.json"],
     "ric_norm2 = 0.0 violates the Cauchy-Schwarz bound Scal^2/n = inf",
     "argv37-ric_norm2 = 0.0 violates the Cauchy-Schwarz bound Scal^2/n = "
     "inf"),
    (["constants", "--n", "2", "--s", "1"],
     "dimension must be an integer >= 3, got n=2\n",
     "argv38-dimension must be an integer >= 3, got n=2\n"),
    (["kernel", "--n", "7", "--s", "1", "--grid", "zzz"],
     "--grid expects N,Rmax[,gamma], got 'zzz'\n",
     "argv39---grid expects N,Rmax[,gamma], got 'zzz'\n"),
    (["energy", "--n", "7", "--s", "1", "--deltas", "x:y"],
     "--deltas expects lo:hi:count, got 'x:y'\n",
     "argv40---deltas expects lo:hi:count, got 'x:y'\n"),
    (["lg", "--n", "7", "--s", "1", "--potential", "pot.json", "--h0", "1"],
     "--potential is exclusive with --h0/--lap-h/--f0\n",
     "argv41---potential is exclusive with --h0/--lap-h/--f0\n"),
    # a potential file must hold exactly the schema's keys
    *((["lg", "--n", "7", "--s", "1", "--potential", fname],
       f"potential file {fname!r}: schema requires exactly keys ('h0', "
       f"'lap_h') plus optional ('f0',); {keys}\n",
       f"argv{i}-potential file {fname!r}: schema requires exactly keys "
       f"('h0', 'lap_h') plus optional ('f0',); {keys}\n")
      for i, fname, keys in ((42, "no-lap-h.json", "missing ['lap_h'], "
                                                   "unexpected []"),
                             (43, "extra-key.json", "missing [], unexpected "
                                                    "['zz']"))),
    (["lg", "--n", "7", "--s", "1", "--curvature", "missing.json"],
     "cannot read curvature file 'missing.json'",
     "argv44-cannot read curvature file 'missing.json'"),
    (["family", "--n", "7", "--s", "1", "--base-lg", "0", "--f0", "1",
      "--k-max", "2"],
     "the family construction requires f(x0) < 0, got 1.0\n",
     "argv45-the family construction requires f(x0) < 0, got 1.0\n"),
    # the pairing's integrand decays like r**(5 - n) (were exit 0 with a
    # truncation artifact that grows with R_max: at n = 3 a factor 8 per
    # doubling of R_max, at n = 6 like log R_max)
    *((["chat", "--n", n, "--s", "1", "--h0", "1"],
       f"the nonlocal pairing needs n >= 7, got n={n}\n",
       f"argv{i}-the nonlocal pairing needs n >= 7, got n={n}\n")
      for i, n in ((46, "6"), (47, "3"))),
]))
def test_exit_1_names_the_cause(capsys, tmp_path, monkeypatch, argv, cause):
    monkeypatch.chdir(tmp_path)
    # JSON allows no NaN literal, but Python's reader accepts one
    (tmp_path / "nan-curv.json").write_text(
        '{"scal": NaN, "ric_norm2": 300.0, "rm_norm2": 100.0, '
        '"lap_scal": 1.5}', encoding="utf-8")
    (tmp_path / "big-scal.json").write_text(
        '{"scal": 1e200, "ric_norm2": 0, "rm_norm2": 0, "lap_scal": 0}',
        encoding="utf-8")
    for fname, doc in (("pot.json", {"h0": 1.0, "lap_h": 0.0}),
                       ("no-lap-h.json", {"h0": 1.0}),
                       ("extra-key.json", {"h0": 1.0, "lap_h": 0.0,
                                           "zz": 1.0})):
        (tmp_path / fname).write_text(json.dumps(doc), encoding="utf-8")
    rc, out, err = invoke(capsys, argv)
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ")
    assert cause in err
    assert sorted(os.listdir(tmp_path)) == [
        "big-scal.json", "extra-key.json", "nan-curv.json", "no-lap-h.json",
        "pot.json"]


@pytest.mark.parametrize("radius", ["1e100", "1e200"])
def test_huge_sphere_radius_answers(capsys, radius):
    # radius**4 overflows above about 1e77, but the invariants themselves
    # are representable (those below the float range underflow to 0), so
    # the run answers (sphere:1e200 was exit 1, "sphere radius 1e+200 puts
    # the curvature invariants outside the float range")
    doc = invoke_json(capsys, ["lg", "--n", "7", "--s", "1", "--curvature",
                               f"sphere:{radius}", "--grid", "2000,200"])
    r = float(radius)
    curv = doc["inputs"]["curvature"]
    assert curv["scal"] == pytest.approx(42.0 / r / r, rel=1e-15)
    assert curv["ric_norm2"] == curv["rm_norm2"] == curv["lap_scal"] == 0.0
    flat = invoke_json(capsys, ["lg", "--n", "7", "--s", "1",
                                "--grid", "2000,200"])
    assert doc["outputs"]["total"] == flat["outputs"]["total"]


# ------------------------------------------------------- lazy imports


def child_env() -> dict:
    """The environment of a child interpreter that imports this checkout."""
    src = os.path.dirname(os.path.dirname(hsbubble.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))


_CLI = "cli errors params"
_MOMENTS = "moments bubble quadrature"

# run -> (its hsbubble submodules, numpy loaded, scipy's LAPACK extension
# loaded, dataclasses loaded); a run is an import statement or a golden case
# (every README example and the trace-free remainder), run as the console
# script runs it
RUN_LOADS = {
    "import hsbubble": ("", False, False, False),
    "import hsbubble.cli": (_CLI, False, False, False),
    "import hsbubble.geometry": ("errors params geometry", False, False,
                                 False),
    "import hsbubble.reduction": ("errors params reduction", False, False,
                                  False),
    "constants": (_CLI, False, False, False),
    "integrals": (f"{_CLI} {_MOMENTS}", True, False, False),
    "bubble": (f"{_CLI} bubble", False, False, False),
    "lg": (f"{_CLI} geometry linearized {_MOMENTS}", True, True, False),
    "energy": (f"{_CLI} energy geometry {_MOMENTS}", True, False, True),
    "remainder": (f"{_CLI} energy geometry {_MOMENTS}", True, False, True),
    "remainder-tracefree": (f"{_CLI} energy geometry {_MOMENTS}", True,
                            False, True),
    "reduce": (f"{_CLI} reduction", False, False, False),
    "family": (f"{_CLI} reduction geometry moments", False, False, False),
    "verdict": (f"{_CLI} reduction geometry", False, False, False),
    "kernel": (f"{_CLI} linearized bubble quadrature", True, True, False),
}

_REPORT_LOADED = (
    "import json, sys\n"
    "print(json.dumps({\n"
    "    'hsbubble': sorted(m for m in sys.modules\n"
    "                       if m.split('.')[0] == 'hsbubble'),\n"
    "    'scipy': sorted(m for m in sys.modules\n"
    "                    if m.split('.')[0] == 'scipy'),\n"
    "    'numpy': 'numpy' in sys.modules,\n"
    "    'numpy.ma': 'numpy.ma' in sys.modules,\n"
    "    'dataclasses': 'dataclasses' in sys.modules,\n"
    "    'csv': 'csv' in sys.modules,\n"
    "    'fractions': 'fractions' in sys.modules}))\n")


def _loaded(code: str, cwd=None) -> dict:
    """What a fresh interpreter running code has loaded (_REPORT_LOADED)."""
    out = subprocess.run([sys.executable, "-c", code + _REPORT_LOADED],
                         cwd=cwd, env=child_env(), check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def _main_loaded(tmp_path, argv, rc) -> dict:
    """What cli.main(argv) loads in a fresh interpreter, output silenced,
    asserting its exit code rc."""
    write_inputs(tmp_path)
    return _loaded("import contextlib, io\n"
                   "from hsbubble.cli import main\n"
                   "with contextlib.redirect_stdout(io.StringIO()), \\\n"
                   "        contextlib.redirect_stderr(io.StringIO()):\n"
                   f"    assert main({argv!r}) == {rc}\n", cwd=tmp_path)


def test_each_run_loads_only_what_it_uses(tmp_path):
    # the package and the CLI import lazily: `constants`, `bubble`,
    # `reduce`, `verdict --base-lg` and the geometry and reduction modules
    # load no numpy and no fractions, `kernel` none of the energy, geometry,
    # moments or reduction modules, and only `lg` and `kernel` the solver;
    # the solver loads scipy's LAPACK extension alone, so no run imports
    # the scipy package (its init, scipy.linalg, scipy.sparse) or numpy.ma;
    # only the energy fit's FitReport loads dataclasses; the CSV tables
    # and side files are joined by hand, so no run loads csv
    assert {argv[0] for argv in readme_examples()} <= set(RUN_LOADS)
    write_inputs(tmp_path)
    for run, (modules, numpy, lapack, dataclasses) in RUN_LOADS.items():
        code = f"{run}\n" if run.startswith("import ") else (
            "import contextlib, io\n"
            "from hsbubble.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({GOLDEN_CASES[run]!r}) == 0\n")
        got = _loaded(code, cwd=tmp_path)
        assert got["hsbubble"] == sorted(
            ["hsbubble"] + [f"hsbubble.{m}" for m in modules.split()]), run
        assert got["numpy"] == numpy, run
        assert got["scipy"] == (["scipy.linalg._flapack"] if lapack else []), \
            run
        assert got["dataclasses"] == dataclasses, run
        assert not got["numpy.ma"], run
        assert not got["csv"], run
        if not numpy:
            assert not got["fractions"], run


@pytest.mark.parametrize("argv,rc", [
    (["reduce", "--quad", "-1", "--quartic", "2", "--eps", "0.01"], 0),
    (["reduce", "--quad", "-1", "--quartic", "2", "--eps", "0.01",
      "--json"], 0),
    (["verdict", "--n", "7", "--s", "1", "--curvature", "sphere:1",
      "--potential", "pot.json", "--base-lg", "5", "--json"], 0),
    (["reduce", "--quad", "2", "--quartic", "1", "--eps", "-1"], 1),
    (["reduce", "--quad", "1e308", "--quartic=-1e-308"], 2),
    (["verdict", "--n", "7", "--s", "1", "--curvature", "sphere:1",
      "--potential", "missing.json", "--base-lg", "5"], 1),
    (["verdict", "--n", "7", "--s", "1", "--curvature", "sphere:1",
      "--h0", "1", "--base-lg", "5", "--lg-tol", "-1"], 1),
    (["family", "--n", "7", "--s", "1", "--base-lg", "0", "--f0", "-1",
      "--k-max", "10", "--json"], 0),
    (["family", "--n", "7", "--s", "1", "--base-lg", "0", "--f0", "1",
      "--k-max", "2"], 1),
    (["family", "--n", "7", "--s", "1", "--base-lg", "0", "--f0", "-1e308",
      "--k-max", "3"], 2),
    (["family", "--n", "16", "--s", "1.895", "--base-lg", "0", "--f0", "-1",
      "--k-max", "3"], 2),
], ids=["reduce-eps", "reduce-eps-json", "verdict-potential-file",
        "reduce-bad-eps", "reduce-overflow", "verdict-missing-file",
        "verdict-bad-lg-tol", "family-readme", "family-positive-f0",
        "family-quad-overflow", "family-moment-overflow"])
def test_decision_runs_load_no_numpy(tmp_path, argv, rc):
    # the reduced functional, the verdict and the family ladder on a given
    # obstruction are pure arithmetic and Beta values: no path through
    # them, error exits included, loads numpy or the solver
    got = _main_loaded(tmp_path, argv, rc)
    assert not got["numpy"]
    assert set(got["hsbubble"]) <= {"hsbubble", "hsbubble.cli",
                                    "hsbubble.errors", "hsbubble.params",
                                    "hsbubble.reduction", "hsbubble.geometry",
                                    "hsbubble.moments"}


@pytest.mark.parametrize("argv,rc", [
    (["bubble", "--n", "7", "--s", "1.5", "--delta", "0.1",
      "--emit-profile", "p.csv"], 0),
    (["bubble", "--n", "7", "--s", "1", "--delta", "nan"], 1),
    (["bubble", "--n", "7", "--s", "1", "--delta", "inf"], 1),
    (["bubble", "--n", "7", "--s", "1", "--delta", "1e-300"], 2),
    (["bubble", "--n", "7", "--s", "1", "--delta", "0.1", "--points", "-1",
      "--emit-profile", "p.csv"], 1),
    (["bubble", "--n", "7", "--s", "1.5", "--delta", "0.1", "--points", "1",
      "--emit-profile", "p.csv"], 1),
    (["bubble", "--n", "7", "--s", "1", "--delta", "1e308",
      "--emit-profile", "p.csv"], 2),
], ids=["profile-past-s-1", "delta-nan", "delta-inf", "delta-overflow",
        "negative-points", "one-point-past-s-1", "profile-end-overflow"])
def test_bubble_runs_load_no_numpy(tmp_path, argv, rc):
    # the profile closed forms run on Python floats for a scalar radius, so
    # no bubble run, error exits included, loads numpy
    got = _main_loaded(tmp_path, argv, rc)
    assert not got["numpy"]
    assert got["hsbubble"] == ["hsbubble", "hsbubble.bubble", "hsbubble.cli",
                               "hsbubble.errors", "hsbubble.params"]


def test_lazy_exports_resolve_to_their_home_objects():
    import importlib
    import pkgutil

    assert len(set(hsbubble.__all__)) == len(hsbubble.__all__) == 45
    for name in hsbubble.__all__:
        obj = getattr(hsbubble, name)
        home = importlib.import_module(obj.__module__)
        assert home.__name__.startswith("hsbubble."), name
        assert getattr(home, name) is obj, name
    for info in pkgutil.iter_modules(hsbubble.__path__):
        if info.name != "cli":
            assert getattr(hsbubble, info.name) is \
                importlib.import_module(f"hsbubble.{info.name}")
    listed = dir(hsbubble)
    assert set(hsbubble.__all__) <= set(listed)
    assert {"bubble", "geometry", "linearized"} <= set(listed)
    with pytest.raises(AttributeError, match="no_such_name"):
        hsbubble.no_such_name
    star = {}
    exec("from hsbubble import *", star)
    assert set(hsbubble.__all__) <= set(star)
    # _EXPORTS is the one statement of what is public: a submodule's public
    # names are those without a leading underscore
    declaring = [info.name for info in pkgutil.iter_modules(hsbubble.__path__)
                 if hasattr(importlib.import_module(f"hsbubble.{info.name}"),
                            "__all__")]
    assert declaring == []


@pytest.mark.parametrize("argv", [
    ["constants", "--n", "7", "--s", "1", "--json"],
    ["integrals", "--n", "7", "--s", "1"],
    ["constants", "--n", "7", "--s", "1"],
], ids=["json", "render", "key-value"])
def test_closed_stdout_ends_quietly(argv):
    # the read end is closed before the child starts, so its report meets a
    # pipe with no reader whatever the timing (as under `| head -1`)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "hsbubble.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=child_env(), text=True)
    finally:
        os.close(write_end)
    assert proc.stderr == ""  # no BrokenPipeError traceback or warning
    assert proc.returncode == 0


def test_broken_pipe_points_stdout_at_devnull(monkeypatch):
    # the in-process path of the runs above: the report's print meets a
    # closed pipe, and main succeeds after pointing stdout's descriptor at
    # devnull (recorded here, not done to the test's own stdout)
    def closed_pipe(*args, **kwargs):
        raise BrokenPipeError

    class Stdout:
        def fileno(self):
            return 99

    dup2 = []
    monkeypatch.setattr(cli, "print", closed_pipe, raising=False)
    monkeypatch.setattr(sys, "stdout", Stdout())
    monkeypatch.setattr(os, "dup2", lambda fd, fd2: dup2.append((fd, fd2)))
    assert main(["constants", "--n", "7", "--s", "1"]) == 0
    [(fd, target)] = dup2
    try:
        assert target == 99
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)


def test_module_attribute_imports_its_module(monkeypatch):
    # a loaded submodule is also an attribute of the package; without it,
    # the package's __getattr__ imports the module by name
    import importlib

    energy = importlib.import_module("hsbubble.energy")
    monkeypatch.delattr(hsbubble, "energy")
    assert hsbubble.energy is energy


def test_benchmark_span_sites_resolve():
    # the benchmark's tracer (--trace 1) wraps these hsbubble attributes by
    # name and reads ell as the second positional argument of two of them,
    # so a rename here would leave a layer untraced without any error
    import importlib
    import inspect
    import runpy

    spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    sites = runpy.run_path(str(spans))["WRAP_SITES"]
    assert sites
    for mod_name, attr, layer in sites:
        mod = importlib.import_module(f"hsbubble.{mod_name}")
        assert callable(getattr(mod, attr, None)), (mod_name, attr)
        home, name = layer.split(".")
        assert callable(getattr(importlib.import_module(f"hsbubble.{home}"),
                                name, None)), layer
    linearized = importlib.import_module("hsbubble.linearized")
    for fn in (linearized.solve_mode, linearized.assemble_mode):
        assert list(inspect.signature(fn).parameters)[1] == "ell"


def test_lazy_call_sites_resolve_to_the_home_function(monkeypatch):
    # geometry and reduction import these where they call them; looked up on
    # the module by name (as the benchmark's tracer does) each is the home
    # module's current function, so a wrapper installed at home is the one
    # a call meets, once
    from hsbubble import geometry, linearized, moments, reduction

    sites = [(geometry, "_nonlocal_term", linearized, "nonlocal_term"),
             (geometry, "bubble_moment", moments, "bubble_moment"),
             (reduction, "bubble_moment", moments, "bubble_moment")]
    for mod, attr, home, name in sites:
        assert getattr(mod, attr) is getattr(home, name), attr
        marker = lambda *a, **k: None  # noqa: E731
        monkeypatch.setattr(home, name, marker)
        assert getattr(mod, attr) is marker, attr
        monkeypatch.undo()
    with pytest.raises(AttributeError, match="no_such_name"):
        geometry.no_such_name
    with pytest.raises(AttributeError, match="no_such_name"):
        reduction.no_such_name


def test_exit_0_plain_runs(capsys):
    for argv in (["constants", "--n", "7", "--s", "1"],
                 ["reduce", "--quad", "-1", "--quartic", "2"],
                 ["family", "--n", "7", "--s", "1", "--base-lg", "-1",
                  "--f0", "-1", "--k-max", "1"],
                 # its moment integrands overflow only in a core that holds
                 # a negligible share of each moment
                 ["integrals", "--n", "16", "--s", "1.9"],
                 # s = 0, the Yamabe limit
                 ["lg", "--n", "10", "--s", "0", "--curvature", "sphere:1",
                  "--grid", "2000,200"],
                 ["integrals", "--n", "7", "--s", "0"],
                 # |D g|**2 of its Keller border overflows, so its norm is
                 # taken on g * 2**-k (was a numpy RuntimeWarning, then
                 # "degenerate projection direction in ell = 0 solve")
                 ["lg", "--n", "60", "--s", "1", "--curvature", "flat",
                  "--lap-h", "-58.29051587320715", "--grid",
                  "8,82610.14119156134"]):
        rc, _, _ = invoke(capsys, argv)
        assert rc == 0


@pytest.mark.parametrize("argv,t0", [
    (["--quad", "-1e300", "--quartic", "1e-300"], 7.071067811865476e299),
    (["--quad", "1e-300", "--quartic=-1e300"], 7.071067811865476e-301),
])
def test_reduce_answers_where_only_t0_squared_leaves_float_range(capsys, argv,
                                                                 t0):
    # were exit 2: t0**2 overflows (underflows) although t0 fits a float
    doc = invoke_json(capsys, ["reduce", *argv])
    assert doc["outputs"]["t0"] == pytest.approx(t0, rel=1e-15)
    assert doc["outputs"]["nondegenerate"] is True


@pytest.mark.parametrize("n,s", [(7, 1.5), (7, 1.9), (8, 1.9), (10, 1.9)])
def test_wide_profiles_answer(capsys, n, s):
    # the profile reaches its tail law only near ((n-2)/(2-s))**(1/(2-s)),
    # 1e17 at (7, 1.9), and at (7, 1.5) the remainder density times r**6
    # decays only like r**-1.78: both need the half-line far past r = 1e15
    # the ratio identities hold to 1e-13, as README states
    doc = invoke_json(capsys, ["integrals", "--n", str(n), "--s", str(s)])
    ratios = doc["outputs"]["ratios"].values()
    assert max(row["rel_residual"] for row in ratios) <= 1e-13
    doc = invoke_json(capsys, ["remainder", "--n", str(n), "--s", str(s),
                               "--curvature", "flat", "--h0", "2"])
    want = flat_alpha_inv_closed_form(HSParams(n, s), 2.0)
    assert doc["outputs"]["alpha_inv"] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("tol", [[], ["--tol", "0"]])
def test_integrals_answer_past_an_overflowing_core(capsys, tol):
    # at (16, 1.9) U1**2 overflows in a core holding a negligible share of
    # each moment; the quadrature counts it as 0 and the identities still
    # hold to 1e-12 (2.3e-13 measured), at tol = 0 too (at roundoff)
    doc = invoke_json(capsys, ["integrals", "--n", "16", "--s", "1.9", *tol])
    ratios = doc["outputs"]["ratios"].values()
    assert max(row["rel_residual"] for row in ratios) <= 1e-12


# ------------------------------------------------------------ golden reports

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"

# files the golden runs may read; written into the working directory first
INPUT_FILES = {
    "curv.json": {"scal": 42.0, "ric_norm2": 300.0, "rm_norm2": 100.0,
                  "lap_scal": 1.5},
    "pot.json": {"h0": 7.5, "lap_h": 0.25, "f0": -1.0},
}

# reports beyond the README examples: side files, the human tables, both
# --base-lg forms, and the file inputs
EXTRA_CASES = {
    "chat-modes": ["chat", "--n", "7", "--s", "1", "--curvature", "curv.json",
                   "--h0", "7.5", "--grid", "1000,100",
                   "--emit-modes", "modes.csv", "--json"],
    "integrals-csv": ["integrals", "--n", "7", "--s", "1",
                      "--csv", "table.csv"],
    "lg-files": ["lg", "--n", "7", "--s", "1", "--curvature", "curv.json",
                 "--potential", "pot.json", "--grid", "1000,100", "--json"],
    "energy-potential": ["energy", "--n", "7", "--s", "1",
                         "--curvature", "sphere:1", "--potential", "pot.json",
                         "--json"],
    "remainder-tracefree": ["remainder", "--n", "7", "--s", "1",
                            "--curvature", "curv.json", "--h0", "7.5",
                            "--json"],
    "family-human": ["family", "--n", "7", "--s", "1", "--base-lg", "0",
                     "--f0", "-1", "--k-max", "3"],
    "family-grid": ["family", "--n", "7", "--s", "1", "--curvature",
                    "sphere:1", "--potential", "pot.json", "--k-max", "3",
                    "--grid", "1000,100", "--json"],
    "verdict-human": ["verdict", "--n", "7", "--s", "1", "--curvature",
                      "sphere:1", "--h0", "7.954545454545454", "--f0", "-1",
                      "--base-lg", "5"],
    "verdict-grid": ["verdict", "--n", "7", "--s", "1", "--curvature",
                     "curv.json", "--potential", "pot.json",
                     "--grid", "1000,100", "--json"],
    # the mode solve and the spectral window away from (7, 1)
    "lg-9-05": ["lg", "--n", "9", "--s", "0.5", "--curvature", "sphere:1",
                "--grid", "2000,200", "--json"],
    "lg-7-15": ["lg", "--n", "7", "--s", "1.5", "--curvature", "sphere:1",
                "--grid", "2000,200", "--json"],
    "kernel-9-05": ["kernel", "--n", "9", "--s", "0.5", "--grid", "2000,200",
                    "--json"],
    "kernel-7-15": ["kernel", "--n", "7", "--s", "1.5", "--grid", "2000,200",
                    "--json"],
    "chat-7-15": ["chat", "--n", "7", "--s", "1.5", "--curvature", "sphere:1",
                  "--h0", "1", "--grid", "2000,200", "--json"],
}


def readme_examples() -> list:
    """Each command of the README "Examples:" block as an argv list."""
    text = README.read_text(encoding="utf-8")
    block = text.split("Examples:\n\n```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line, comments=True)
        if argv:
            assert argv[0] == "hsbubble", line
            commands.append(argv[1:])
    return commands


def golden_cases() -> dict:
    cases = {argv[0]: argv for argv in readme_examples()}
    assert len(cases) == len(readme_examples()), "one example per subcommand"
    assert not set(cases) & set(EXTRA_CASES)
    return {**cases, **EXTRA_CASES}


GOLDEN_CASES = golden_cases()


def write_inputs(directory) -> None:
    """Write INPUT_FILES, the files a golden case may read, into directory."""
    for fname, data in INPUT_FILES.items():
        (Path(directory) / fname).write_text(json.dumps(data),
                                             encoding="utf-8")


def run_golden(name: str) -> tuple:
    """(exit code, stdout, stderr, {side file: bytes}) of GOLDEN_CASES[name]
    run through cli.main in an empty working directory holding INPUT_FILES:
    what test_report_matches_golden compares with tests/golden/<name>.* and
    tests/regen_golden.py writes there."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(tmp)
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = cli.main(GOLDEN_CASES[name])
        finally:
            os.chdir(cwd)
        side = {fname: (Path(tmp) / fname).read_bytes()
                for fname in sorted(set(os.listdir(tmp)) - set(INPUT_FILES))}
    return rc, out.getvalue(), err.getvalue(), side


def _flags(parser):
    for action in parser._actions:
        yield from action.option_strings
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _flags(sub)


def test_readme_names_every_flag():
    text = README.read_text(encoding="utf-8")
    flags = set(_flags(cli._parser(cli._SUBCOMMANDS))) - {"-h", "--help"}
    assert {"--csv", "--emit-modes", "--r0", "--json"} <= flags
    missing = sorted(f for f in flags
                     if not re.search(re.escape(f) + r"(?![\w-])", text))
    assert missing == []


def test_readme_examples_parse():
    assert [argv[0] for argv in readme_examples()] == [
        "constants", "integrals", "bubble", "lg", "energy", "remainder",
        "reduce", "family", "verdict", "kernel"]


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_report_matches_golden(name, monkeypatch):
    # every leaf of a report is a plain Python value: a numpy scalar would
    # print as np.float64(...) in a text report, or be refused by json
    # (a record is no leaf: its fields are)
    leaf_types = set()
    jsonable = cli._jsonable

    def spy(obj, key):
        if not isinstance(obj, (dict, list, tuple)) and \
                not hasattr(obj, "__dict__"):
            leaf_types.add(type(obj))
        return jsonable(obj, key)

    monkeypatch.setattr(cli, "_jsonable", spy)
    rc, out, err, side = run_golden(name)
    assert rc == 0, err
    assert leaf_types <= {float, int, bool, str, type(None)}, leaf_types
    assert out == (GOLDEN / f"{name}.stdout").read_text(encoding="utf-8")
    assert side == {f.name[len(name) + 1:]: f.read_bytes()
                    for f in GOLDEN.glob(f"{name}.*")
                    if f.name != f"{name}.stdout"}


def help_text(capsys, monkeypatch) -> str:
    """`hsbubble --help` and each subcommand's `--help`, each under a
    `$ hsbubble ... --help` line, at a fixed 80-column width."""
    monkeypatch.setenv("COLUMNS", "80")
    sub = next(a for a in cli._parser(cli._SUBCOMMANDS)._actions
               if isinstance(a, argparse._SubParsersAction))
    parts = []
    for argv in ([], *([name] for name in sub.choices)):
        argv = [*argv, "--help"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert (exc.value.code, captured.err) == (0, "")
        parts.append(f"$ hsbubble {' '.join(argv)}\n{captured.out}")
    return "".join(parts)


def test_help_matches_golden(capsys, monkeypatch):
    assert help_text(capsys, monkeypatch) == \
        (GOLDEN / "help.stdout").read_text(encoding="utf-8")


@pytest.mark.parametrize("argv", [
    ["nosuch"], [], ["--json"], ["kernel", "--bogus", "1"], ["kernel"],
    ["kernel", "--n", "seven", "--s", "1"],
    ["kernel", "--n", "7", "--s", "1", "--bogus", "1"],
], ids=["unknown-name", "no-name", "json-alone", "bad-flag", "missing-flags",
        "bad-value", "extra-flag"])
def test_parse_errors_match_the_full_parser(capsys, monkeypatch, argv):
    # main builds only the subparser argv[0] names (all of them for --help,
    # an unknown name or none); each refusal still reads as the full
    # parser's, usage line included: an extra flag after complete ones is
    # refused by the top-level parser, whose usage lists every subcommand
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    with pytest.raises(SystemExit) as full:
        cli._parser(cli._SUBCOMMANDS).parse_args(argv)
    assert exc.value.code == full.value.code == 1
    assert err == capsys.readouterr().err
    assert err.startswith("usage: hsbubble ")


@pytest.mark.parametrize("argv, named", [
    ([], "the following arguments are required: subcommand\n"),
    (["nosuch"], "argument subcommand: invalid choice: 'nosuch' "),
])
def test_a_missing_or_unknown_subcommand_is_called_subcommand(capsys, argv,
                                                              named):
    # the brace list of names is the usage line's, not the argument's name
    with pytest.raises(SystemExit):
        main(argv)
    assert named in capsys.readouterr().err
