"""End-to-end checks of the subcommand driver: report shapes, exit codes,
byte-identical re-runs, and the emitted CSV side files."""

import csv
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hsbubble
from hsbubble.cli import main
from hsbubble.moments import bubble_moment
from hsbubble.params import HSParams, derive_constants

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


def test_constants_human_format(capsys):
    rc, out, _ = invoke(capsys, ["constants", "--n", "7", "--s", "1"])
    assert rc == 0
    assert "kappa = " in out
    assert "c_ns = " in out


def test_json_keys_sorted(capsys):
    rc, out, _ = invoke(capsys,
                        ["constants", "--n", "7", "--s", "1", "--json"])
    assert rc == 0
    doc = json.loads(out)
    assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ----------------------------------------------------------------- integrals


def test_integrals_table_has_140_11_row(capsys):
    rc, out, _ = invoke(capsys, ["integrals", "--n", "7", "--s", "1"])
    assert rc == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert {"ratio", "quadrature", "closed_form", "rel_residual"} <= set(
        rows[0].keys())
    byname = {r["ratio"]: r for r in rows}
    row = byname["r2grad_over_mass2"]
    assert float(row["closed_form"]) == 140.0 / 11.0
    assert abs(float(row["rel_residual"])) < 1e-10


def test_integrals_csv_file_matches_stdout(capsys, tmp_path):
    path = tmp_path / "table.csv"
    rc, out, _ = invoke(capsys,
                        ["integrals", "--n", "7", "--s", "1",
                         "--csv", str(path)])
    assert rc == 0
    assert path.read_text() == out


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
    doc = invoke_json(capsys,
                      ["remainder", "--n", "7", "--s", "1",
                       "--curvature", "flat", "--h0", "0"])
    out = doc["outputs"]
    assert out == {"alpha_inv": 0.0, "alpha": None, "degenerate": True}


# -------------------------------------------------------------------- reduce


def test_reduce_no_critical_point_message(capsys):
    rc, out, _ = invoke(capsys, ["reduce", "--quad", "2", "--quartic", "1"])
    assert rc == 0  # a verdict, not an error
    assert "no critical point: sign condition fails" in out


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


def test_family_human_table(capsys):
    rc, out, _ = invoke(capsys,
                        ["family", "--n", "7", "--s", "1", "--base-lg", "0",
                         "--f0", "-1", "--k-max", "2"])
    assert rc == 0
    assert "k,lap_h_shift,lg_k,predicted_t0" in out


def test_family_requires_negative_f0(capsys):
    rc, _, err = invoke(capsys,
                        ["family", "--n", "7", "--s", "1", "--base-lg", "0",
                         "--f0", "1", "--k-max", "2"])
    assert rc == 1
    assert "error" in err


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


# -------------------------------------------------------------------- kernel


def test_kernel_diagnostics_keys(capsys):
    doc = invoke_json(capsys,
                      ["kernel", "--n", "7", "--s", "1",
                       "--grid", "1000,100"])
    out = doc["outputs"]
    assert {"zero_tol", "grid", "mode0_min_eig", "mode0_kernel_eig",
            "mode0_eigvec_alignment_with_Z0", "mode0_near_zero_count",
            "mode0_negative_count", "mode2_min_eig",
            "mode2_near_zero_count"} <= set(out)
    assert out["grid"] == {"N": 1000, "R_max": 100.0, "gamma": 2.0}
    assert out["mode2_min_eig"] > 0


# ---------------------------------------------------------------- exit codes


def test_exit_1_bad_dimension(capsys):
    rc, _, err = invoke(capsys, ["constants", "--n", "2", "--s", "1"])
    assert rc == 1
    assert "error" in err


def test_exit_1_unknown_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["constants", "--n", "7", "--s", "1", "--bogus"])
    assert exc.value.code == 1
    assert "usage" in capsys.readouterr().err


def test_exit_1_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["not-a-subcommand"])
    assert exc.value.code == 1
    assert "usage" in capsys.readouterr().err


def test_exit_1_missing_required_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bubble", "--n", "7", "--s", "1"])  # no --delta
    assert exc.value.code == 1
    assert "usage" in capsys.readouterr().err


def test_exit_1_bad_grid_string(capsys):
    rc, _, err = invoke(capsys,
                        ["kernel", "--n", "7", "--s", "1", "--grid", "zzz"])
    assert rc == 1
    assert "grid" in err


def test_exit_1_bad_deltas_string(capsys):
    rc, _, err = invoke(capsys,
                        ["energy", "--n", "7", "--s", "1", "--deltas", "x:y"])
    assert rc == 1
    assert "deltas" in err


def test_exit_1_potential_file_and_inline(capsys, tmp_path):
    path = tmp_path / "pot.json"
    path.write_text(json.dumps({"h0": 1.0, "lap_h": 0.0}))
    rc, _, err = invoke(capsys,
                        ["lg", "--n", "7", "--s", "1",
                         "--potential", str(path), "--h0", "1"])
    assert rc == 1
    assert "exclusive" in err


def test_exit_1_potential_schema(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"h0": 1.0}))  # lap_h missing
    rc, _, err = invoke(capsys,
                        ["lg", "--n", "7", "--s", "1",
                         "--potential", str(bad)])
    assert rc == 1
    assert "lap_h" in err

    extra = tmp_path / "extra.json"
    extra.write_text(json.dumps({"h0": 1.0, "lap_h": 0.0, "zz": 1.0}))
    rc, _, err = invoke(capsys,
                        ["lg", "--n", "7", "--s", "1",
                         "--potential", str(extra)])
    assert rc == 1
    assert "zz" in err


def test_exit_1_bad_curvature_file(capsys, tmp_path):
    rc, _, err = invoke(capsys,
                        ["lg", "--n", "7", "--s", "1",
                         "--curvature", str(tmp_path / "missing.json")])
    assert rc == 1
    assert "error" in err


def test_exit_2_ill_conditioned_fit(capsys):
    rc, _, err = invoke(capsys,
                        ["energy", "--n", "7", "--s", "1",
                         "--curvature", "flat",
                         "--deltas", "0.000001:0.05:12"])
    assert rc == 2
    assert "numerical failure" in err


@pytest.mark.parametrize("argv,cause", [
    # first cell mass underflows (was exit 0 with the solvability check
    # skipped, and "singular matrix" from the banded solve)
    (["lg", "--n", "30", "--s", "1.5", "--grid", "2000,200"],
     "cell masses underflow to 0 on this grid (gamma = 4.0, N = 2000"),
    (["lg", "--n", "7", "--s", "1.9"], "cell masses underflow to 0"),
    # kappa beyond the float range (was an OverflowError traceback)
    (["integrals", "--n", "7", "--s", "1.99"],
     "kappa = ((n - s)(n - 2))**((n - 2)/(2(2 - s))) overflows a float "
     "at n = 7, s = 1.99"),
    # kappa finite but a moment prefactor power of it is not (was an
    # OverflowError traceback)
    (["lg", "--n", "16", "--s", "1.9"],
     "kappa**2 overflows a float at n = 16, s = 1.9"),
    (["energy", "--n", "16", "--s", "1.9", "--curvature", "sphere:1"],
     "kappa**(2*(s)) overflows a float at n = 16, s = 1.9"),
    # a finite scale whose profile amplitude does not fit a float (was an
    # OverflowError traceback)
    (["bubble", "--n", "7", "--s", "1", "--delta", "1e-300"],
     "the profiles at scale delta = 1e-300 overflow a float at n = 7"),
    # an ell = 0 source beyond the float range (was a numpy RuntimeWarning,
    # then "ell = 0 banded solve failed: array must not contain infs or NaNs")
    (["chat", "--n", "7", "--s", "1", "--curvature", "sphere:1",
      "--h0", "1e305", "--grid", "2000,200"],
     "the ell = 0 source with a = 1e+305, mode0_extra = 2.0 and its "
     "projection leave the float range"),
])
def test_exit_2_names_the_cause(capsys, argv, cause):
    rc, out, err = invoke(capsys, argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("numerical failure: ")
    assert cause in err


@pytest.mark.parametrize("argv,cause", [
    # was exit 0 with "delta_at_eps": NaN, which is not JSON
    (["reduce", "--quad", "2", "--quartic", "-1", "--eps", "-1", "--json"],
     "eps must be positive and finite, got -1.0"),
    # was exit 0 with "eps": NaN echoed
    (["reduce", "--quad", "2", "--quartic", "1", "--eps", "nan", "--json"],
     "eps must be positive and finite, got nan"),
    # was exit 0, the tolerance ignored
    (["integrals", "--n", "7", "--s", "1", "--tol", "nan"], "tol=nan"),
    # were exit 0 with NaN or 0 centre values
    (["bubble", "--n", "7", "--s", "1", "--delta", "nan"], "delta=nan"),
    (["bubble", "--n", "7", "--s", "1", "--delta", "inf"], "delta=inf"),
    # was a numpy ValueError traceback
    (["bubble", "--n", "7", "--s", "1", "--delta", "0.1", "--points", "-1",
      "--emit-profile", "f.csv"], "--points must be >= 1, got -1"),
    # were exit 2 with "quadrature budget ... exhausted; error estimate nan"
    (["kernel", "--n", "7", "--s", "1", "--grid", "500,nan"], "R_max=nan"),
    (["kernel", "--n", "7", "--s", "1", "--grid", "500,100,nan"],
     "gamma=nan"),
    (["lg", "--n", "7", "--s", "1", "--grid", "500,inf"], "R_max=inf"),
    # were exit 0 with NaN rungs, and a blow-up candidate
    (["family", "--n", "7", "--s", "1", "--base-lg", "nan", "--f0", "-1",
      "--k-max", "2"], "obstruction total must be finite, got nan"),
    (["verdict", "--n", "7", "--s", "1", "--base-lg", "nan", "--f0", "1"],
     "obstruction total must be finite, got nan"),
    (["verdict", "--n", "7", "--s", "1", "--curvature", "sphere:1",
      "--h0", "7.954545454545454", "--base-lg", "1", "--lg-tol", "nan"],
     "lg_tol must be finite, got nan"),
    # was a RuntimeWarning from numpy before the error
    (["energy", "--n", "7", "--s", "1", "--deltas", "0.01:inf:12"],
     "--deltas needs 0 < lo < hi < inf"),
    # non-finite curvature and potential fields are named
    (["lg", "--n", "7", "--s", "1", "--lap-h", "inf"],
     "potential jet field 'lap_h' must be finite, got inf"),
    (["lg", "--n", "7", "--s", "1", "--curvature", "nan-curv.json"],
     "curvature invariant 'scal' must be a finite number, got nan"),
    # sphere radii whose invariants leave the float range (were an
    # OverflowError and a ZeroDivisionError traceback, and a message that
    # named ric_norm2 but not the radius)
    (["lg", "--n", "7", "--s", "1", "--curvature", "sphere:1e200",
      "--grid", "2000,200"],
     "sphere radius 1e+200 puts the curvature invariants outside the float "
     "range"),
    (["lg", "--n", "7", "--s", "1", "--curvature", "sphere:1e-200",
      "--grid", "2000,200"], "sphere radius 1e-200 puts"),
    (["lg", "--n", "7", "--s", "1", "--curvature", "sphere:1e-80",
      "--grid", "2000,200"], "sphere radius 1e-80 puts"),
])
def test_exit_1_names_the_cause(capsys, tmp_path, monkeypatch, argv, cause):
    monkeypatch.chdir(tmp_path)
    # JSON allows no NaN literal, but Python's reader accepts one
    (tmp_path / "nan-curv.json").write_text(
        '{"scal": NaN, "ric_norm2": 300.0, "rm_norm2": 100.0, '
        '"lap_scal": 1.5}', encoding="utf-8")
    rc, out, err = invoke(capsys, argv)
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ")
    assert cause in err
    assert os.listdir(tmp_path) == ["nan-curv.json"]


def test_scipy_free_subcommands_load_no_scipy():
    src = os.path.dirname(os.path.dirname(hsbubble.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    runs = [
        ["constants", "--n", "7", "--s", "1"],
        ["integrals", "--n", "7", "--s", "1"],
        ["bubble", "--n", "7", "--s", "1", "--delta", "0.1"],
        ["reduce", "--quad", "2", "--quartic", "1"],
        ["remainder", "--n", "7", "--s", "1", "--curvature", "flat",
         "--h0", "2"],
        ["verdict", "--n", "7", "--s", "1", "--curvature", "sphere:1",
         "--h0", "7.954545454545454", "--base-lg", "5"],
    ]
    code = ("import contextlib, io, sys\n"
            "from hsbubble.cli import main\n"
            f"for argv in {runs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0, argv\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_exit_0_plain_runs(capsys):
    for argv in (["constants", "--n", "7", "--s", "1"],
                 ["reduce", "--quad", "-1", "--quartic", "2"],
                 ["family", "--n", "7", "--s", "1", "--base-lg", "-1",
                  "--f0", "-1", "--k-max", "1"]):
        rc, _, _ = invoke(capsys, argv)
        assert rc == 0


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


def test_readme_examples_parse():
    assert [argv[0] for argv in readme_examples()] == [
        "constants", "integrals", "bubble", "lg", "energy", "remainder",
        "reduce", "family", "verdict", "kernel"]


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_report_matches_golden(name, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for fname, data in INPUT_FILES.items():
        (tmp_path / fname).write_text(json.dumps(data), encoding="utf-8")
    rc, out, err = invoke(capsys, GOLDEN_CASES[name])
    assert rc == 0, err
    assert out == (GOLDEN / f"{name}.stdout").read_text(encoding="utf-8")
    written = sorted(set(os.listdir(tmp_path)) - set(INPUT_FILES))
    expected = sorted(f.name[len(name) + 1:]
                      for f in GOLDEN.glob(f"{name}.*")
                      if f.name != f"{name}.stdout")
    assert written == expected
    for fname in written:
        assert (tmp_path / fname).read_bytes() == \
            (GOLDEN / f"{name}.{fname}").read_bytes(), fname
