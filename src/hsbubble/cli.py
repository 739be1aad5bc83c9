"""Subcommand driver exposing every operation with reproducible reports.

Each subcommand echoes its parsed inputs next to its outputs so any report
can be reproduced from itself.  JSON documents have the fixed shape

    {"tool": "hsbubble", "subcommand": ..., "inputs": ..., "outputs": ...}

with sorted keys, so two runs with the same inputs are byte-identical.
Exit codes: 0 success, 1 domain/validation error (including bad flags),
2 numerical failure (non-convergence, ill-conditioned fit).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass

import numpy as np

from .bubble import default_grid, eval_profiles
from .energy import (RadialModel, fit_expansion, j_at_bubble,
                     remainder_alpha, remainder_norm_scaled)
from .errors import DomainError, NumericalError
from .geometry import (CurvatureData, LgBreakdown, PotentialJet,
                       assemble_w, curvature_preset, density_coeffs, kns,
                       lg_total)
from .linearized import kernel_diagnostics, nonlocal_term
from .moments import identity_report
from .params import HSParams, derive_constants
from .reduction import (ReducedFunctional, critical_t, family_theorem2,
                        verdict)

__all__ = ["RunConfig", "run", "main", "build_parser"]

_POTENTIAL_KEYS = ("h0", "lap_h", "f0")


class _Parser(argparse.ArgumentParser):
    """argparse with validation failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


@dataclass(frozen=True)
class RunConfig:
    """One fully parsed invocation: a single subcommand plus its flags."""

    subcommand: str
    args: argparse.Namespace
    format: str  # "json" | "csv" | "human"


# ------------------------------------------------------------- flag plumbing


def _add_params(sp):
    sp.add_argument("--n", type=int, required=True, help="dimension (>= 3)")
    sp.add_argument("--s", type=float, required=True,
                    help="singularity exponent in [0, 2)")


def _add_json(sp):
    sp.add_argument("--json", action="store_true",
                    help="emit a JSON report instead of text")


def _add_curvature(sp):
    sp.add_argument("--curvature", default="flat",
                    help="flat | sphere:R | path to JSON with keys "
                         "{scal, ric_norm2, rm_norm2, lap_scal}")


def _add_potential(sp):
    sp.add_argument("--potential", default=None,
                    help="path to JSON with keys {h0, lap_h[, f0]} "
                         "(exclusive with the inline flags)")
    sp.add_argument("--h0", type=float, default=None,
                    help="potential value at the point")
    sp.add_argument("--lap-h", type=float, default=None,
                    help="potential Laplacian at the point "
                         "(minus-divergence convention)")
    sp.add_argument("--f0", type=float, default=None,
                    help="perturbation-direction value at the point")


def _add_grid(sp, default="8000,200"):
    sp.add_argument("--grid", default=default,
                    help="solver mesh as N,Rmax[,gamma] "
                         f"(default {default}, gamma defaults to 2/(2-s))")


def _parse_grid(p: HSParams, text: str):
    parts = text.split(",")
    if len(parts) not in (2, 3):
        raise DomainError(f"--grid expects N,Rmax[,gamma], got {text!r}")
    try:
        N = int(parts[0])
        r_max = float(parts[1])
        gamma = float(parts[2]) if len(parts) == 3 else None
    except ValueError as exc:
        raise DomainError(f"bad --grid value {text!r}: {exc}") from exc
    return default_grid(p, N=N, R_max=r_max, gamma=gamma)


def _parse_deltas(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError(f"--deltas expects lo:hi:count, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise DomainError(f"bad --deltas value {text!r}: {exc}") from exc
    if not (0.0 < lo < hi and count >= 2):
        raise DomainError(f"--deltas needs 0 < lo < hi and count >= 2, "
                          f"got {text!r}")
    return np.geomspace(lo, hi, count)


def _potential_jet(args) -> PotentialJet:
    inline = [v is not None for v in (args.h0, args.lap_h, args.f0)]
    if args.potential is not None:
        if any(inline):
            raise DomainError(
                "--potential is exclusive with --h0/--lap-h/--f0")
        try:
            with open(args.potential, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise DomainError(
                f"cannot read potential file {args.potential!r}: {exc}"
            ) from exc
        except json.JSONDecodeError as exc:
            raise DomainError(
                f"potential file {args.potential!r} is not valid JSON: {exc}"
            ) from exc
        if not isinstance(data, dict):
            raise DomainError("potential file must hold a JSON object")
        extra = [k for k in data if k not in _POTENTIAL_KEYS]
        missing = [k for k in ("h0", "lap_h") if k not in data]
        if extra or missing:
            raise DomainError(
                f"potential schema requires h0 and lap_h (f0 optional); "
                f"missing {missing}, unexpected {extra}")
        vals = {}
        for k in _POTENTIAL_KEYS:
            v = data.get(k, 0.0)
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise DomainError(f"potential field {k!r} must be a number")
            vals[k] = float(v)
        return PotentialJet(vals["h0"], vals["lap_h"], vals["f0"])
    return PotentialJet(args.h0 or 0.0, args.lap_h or 0.0, args.f0 or 0.0)


def _curvature_inputs(c: CurvatureData) -> dict:
    return {"scal": c.scal, "ric_norm2": c.ric_norm2,
            "rm_norm2": c.rm_norm2, "lap_scal": c.lap_scal}


def _jet_inputs(jet: PotentialJet) -> dict:
    return {"h0": jet.h0_val, "lap_h": jet.lap_h, "f0": jet.f_val}


def _grid_inputs(grid) -> dict:
    return {"N": grid.N, "R_max": grid.R_max, "gamma": grid.gamma}


# ---------------------------------------------------------------- handlers
# each returns (inputs, outputs, human_text_or_None); human None means the
# generic key = value rendering


def _cmd_constants(args):
    p = HSParams(args.n, args.s)
    c = derive_constants(p)
    outputs = {"crit_exp": c.crit_exp, "kappa": c.kappa, "c_ns": c.c_ns,
               "lambda_ns": c.lambda_ns, "kappa_pow": c.kappa_pow}
    return {"n": args.n, "s": args.s}, outputs, None


def _cmd_integrals(args):
    p = HSParams(args.n, args.s)
    rep = identity_report(p, tol=args.tol)
    # elapsed_seconds is deliberately not echoed: reports must be
    # byte-identical across re-runs with the same inputs
    outputs = {"ratios": rep.ratios}
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["ratio", "quadrature", "closed_form", "rel_residual"])
    for name, row in rep.ratios.items():
        writer.writerow([name, repr(float(row["quadrature"])),
                         repr(float(row["closed_form"])),
                         repr(float(row["rel_residual"]))])
    if args.csv is not None:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            fh.write(buf.getvalue())
    inputs = {"n": args.n, "s": args.s, "tol": args.tol}
    return inputs, outputs, buf.getvalue().rstrip("\n")


def _cmd_bubble(args):
    p = HSParams(args.n, args.s)
    c = derive_constants(p)
    prof = eval_profiles(p, args.delta, 0.0)
    outputs = {
        "kappa": c.kappa,
        "center_value": float(prof["U_delta"]),
        "center_identity": c.kappa * args.delta ** (-(args.n - 2.0) / 2.0),
    }
    inputs = {"n": args.n, "s": args.s, "delta": args.delta,
              "points": args.points}
    if args.emit_profile is not None:
        r = np.linspace(0.0, 20.0 * args.delta, args.points)
        vals = eval_profiles(p, args.delta, r)
        with open(args.emit_profile, "w", encoding="utf-8",
                  newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["r", "U_delta", "dr_U_delta", "Z_delta"])
            for i in range(r.size):
                writer.writerow([repr(float(r[i])),
                                 repr(float(vals["U_delta"][i])),
                                 repr(float(vals["dr_U_delta"][i])),
                                 repr(float(vals["Z_delta"][i]))])
        outputs["profile_csv"] = args.emit_profile
        outputs["profile_rows"] = args.points
    return inputs, outputs, None


def _cmd_chat(args):
    p = HSParams(args.n, args.s)
    c = curvature_preset(args.curvature, args.n)
    grid = _parse_grid(p, args.grid)
    w = assemble_w(c, p, args.h0)
    det = nonlocal_term(p, w, grid, detail=True)
    mode0, mode2 = det["mode0"], det["mode2"]
    outputs = {
        "w": {"a": w.a, "mode0_extra": w.mode0_extra,
              "t_free_norm2": w.t_free_norm2},
        "nonlocal_term": det["total"],
        "mode0_part": det["mode0_part"],
        "mode2_part": det["mode2_part"],
        "multiplier": det["multiplier"],
        "mode0_defect": mode0.defect,
        "mode0_algebraic_residual": mode0.algebraic_residual,
        "mode0_solvability": mode0.solvability,
        "mode2_defect": mode2.defect,
        "mode2_algebraic_residual": mode2.algebraic_residual,
    }
    if args.emit_modes is not None:
        r = grid.nodes
        c0 = mode0.profile.values
        c2 = mode2.profile.values
        with open(args.emit_modes, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["r", "c0", "c2"])
            for i in range(r.size):
                writer.writerow([repr(float(r[i])), repr(float(c0[i])),
                                 repr(float(c2[i]))])
        outputs["modes_csv"] = args.emit_modes
        outputs["modes_rows"] = int(r.size)
    inputs = {"n": args.n, "s": args.s, "h0": args.h0,
              "curvature": _curvature_inputs(c), "grid": _grid_inputs(grid)}
    return inputs, outputs, None


def _cmd_lg(args):
    p = HSParams(args.n, args.s)
    c = curvature_preset(args.curvature, args.n)
    jet = _potential_jet(args)
    grid = _parse_grid(p, args.grid)
    out = lg_total(c, jet, p, grid)
    outputs = {"local_term": out.local_term,
               "nonlocal_term": out.nonlocal_term,
               "total": out.total,
               "kns": kns(c, p),
               "density_coeffs": density_coeffs(c)}
    inputs = {"n": args.n, "s": args.s,
              "curvature": _curvature_inputs(c), "potential": _jet_inputs(jet),
              "grid": _grid_inputs(grid)}
    return inputs, outputs, None


def _cmd_energy(args):
    p = HSParams(args.n, args.s)
    c = curvature_preset(args.curvature, args.n)
    jet = _potential_jet(args)
    model = RadialModel(c, jet, r0=args.r0)
    deltas = _parse_deltas(args.deltas)
    rep = fit_expansion(model, p, deltas, nuisance=not args.no_nuisance)
    outputs = {
        "c0_fit": rep.c0_fit, "c2_fit": rep.c2_fit, "c4_fit": rep.c4_fit,
        "c0_se": rep.c0_se, "c2_se": rep.c2_se, "c4_se": rep.c4_se,
        "c0_pred": rep.c0_pred, "c2_pred": rep.c2_pred,
        "c4_pred": rep.c4_pred,
        "c0_dev": rep.c0_dev, "c2_dev": rep.c2_dev, "c4_dev": rep.c4_dev,
        "condition": rep.condition, "rms_residual": rep.rms_residual,
        "nuisance": rep.nuisance,
    }
    inputs = {"n": args.n, "s": args.s, "curvature": _curvature_inputs(c),
              "potential": _jet_inputs(jet), "deltas": args.deltas,
              "r0": args.r0, "nuisance": not args.no_nuisance}
    return inputs, outputs, None


def _cmd_remainder(args):
    p = HSParams(args.n, args.s)
    c = curvature_preset(args.curvature, args.n)
    jet = _potential_jet(args)
    out = remainder_alpha(c, p, jet.h0_val)
    outputs = dict(out)
    if not out["degenerate"]:
        ratios = {}
        for d in (0.1, 0.01, 0.001):
            nrm = remainder_norm_scaled(c, p, jet.h0_val, d)
            ratios[repr(d)] = nrm / d**2
        vals = list(ratios.values())
        spread = (max(vals) - min(vals)) / out["alpha_inv"]
        outputs["scaling_check"] = {"norm_over_delta_sq": ratios,
                                    "max_rel_spread": spread}
    inputs = {"n": args.n, "s": args.s, "curvature": _curvature_inputs(c),
              "h0": jet.h0_val}
    return inputs, outputs, None


def _cmd_reduce(args):
    out = critical_t(ReducedFunctional(args.quad, args.quartic))
    if out.t0 is not None:
        message = "critical point found"
    elif out.degenerate_quartic:
        message = "no critical point: degenerate quartic coefficient"
    else:
        message = "no critical point: sign condition fails"
    outputs = {"t0": out.t0, "second_derivative": out.second_derivative,
               "nondegenerate": out.nondegenerate,
               "degenerate_quartic": out.degenerate_quartic,
               "message": message}
    if out.t0 is not None and args.eps is not None:
        outputs["delta_at_eps"] = out.t0 * float(np.sqrt(args.eps))
    inputs = {"quad": args.quad, "quartic": args.quartic}
    if args.eps is not None:
        inputs["eps"] = args.eps
    return inputs, outputs, None


def _cmd_family(args):
    p = HSParams(args.n, args.s)
    jet = _potential_jet(args)
    inputs = {"n": args.n, "s": args.s, "potential": _jet_inputs(jet),
              "k_max": args.k_max}
    if args.base_lg is not None:
        base = LgBreakdown(args.base_lg, 0.0, args.base_lg)
        inputs["base_lg"] = args.base_lg
    else:
        c = curvature_preset(args.curvature, args.n)
        grid = _parse_grid(p, args.grid)
        base = lg_total(c, jet, p, grid)
        inputs.update({"curvature": _curvature_inputs(c),
                       "grid": _grid_inputs(grid)})
    ladder = family_theorem2(base, p, jet.f_val, args.k_max)
    entries = [{"k": e.k, "lap_h_shift": e.lap_h_shift, "lg_k": e.lg_k,
                "predicted_t0": e.predicted_t0} for e in ladder.entries]
    outputs = {"base_lg": ladder.base_lg, "quad_coef": ladder.quad_coef,
               "r4grad": ladder.r4grad, "entries": entries}
    lines = [f"base_lg = {ladder.base_lg!r}",
             f"quad_coef = {ladder.quad_coef!r}",
             f"r4grad = {ladder.r4grad!r}",
             "k,lap_h_shift,lg_k,predicted_t0"]
    for e in entries:
        lines.append(f"{e['k']},{e['lap_h_shift']!r},{e['lg_k']!r},"
                     f"{'' if e['predicted_t0'] is None else repr(e['predicted_t0'])}")
    return inputs, outputs, "\n".join(lines)


def _cmd_verdict(args):
    p = HSParams(args.n, args.s)
    c = curvature_preset(args.curvature, args.n)
    jet = _potential_jet(args)
    if args.base_lg is not None:
        lg = LgBreakdown(args.base_lg, 0.0, args.base_lg)
        lg_inputs = {"base_lg": args.base_lg}
    else:
        grid = _parse_grid(p, args.grid)
        lg = lg_total(c, jet, p, grid)
        lg_inputs = {"grid": _grid_inputs(grid)}
    v = verdict(jet, c, p, lg, lg_tol=args.lg_tol)
    outputs = {"classification": v.classification, "h0": v.h0_val,
               "critical_value": v.critical_value, "excess": v.excess,
               "lg_total": v.lg_total,
               "required_f_sign": v.required_f_sign,
               "f_sign_ok": v.f_sign_ok}
    inputs = {"n": args.n, "s": args.s, "curvature": _curvature_inputs(c),
              "potential": _jet_inputs(jet), "lg_tol": args.lg_tol,
              **lg_inputs}
    return inputs, outputs, None


def _cmd_kernel(args):
    p = HSParams(args.n, args.s)
    grid = _parse_grid(p, args.grid)
    out = kernel_diagnostics(p, grid)
    inputs = {"n": args.n, "s": args.s, "grid": _grid_inputs(grid)}
    return inputs, dict(out), None


# ------------------------------------------------------------------ driver


def build_parser() -> _Parser:
    parser = _Parser(prog="hsbubble",
                     description="bubble profiles, moment identities, the "
                                 "projected linear solver, energy "
                                 "expansions, and blow-up family "
                                 "predictions")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("constants", help="derived constants at (n, s)")
    _add_params(sp); _add_json(sp)
    sp.set_defaults(func=_cmd_constants)

    sp = sub.add_parser("integrals",
                        help="moment-ratio identities, quadrature vs closed "
                             "form")
    _add_params(sp); _add_json(sp)
    sp.add_argument("--tol", type=float, default=1e-10,
                    help="quadrature tolerance")
    sp.add_argument("--csv", default=None, help="also write the table here")
    sp.set_defaults(func=_cmd_integrals)

    sp = sub.add_parser("bubble", help="bubble profile at scale delta")
    _add_params(sp); _add_json(sp)
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--emit-profile", default=None,
                    help="write r,U_delta,dr_U_delta,Z_delta CSV here")
    sp.add_argument("--points", type=int, default=401,
                    help="rows in the emitted profile (on [0, 20 delta])")
    sp.set_defaults(func=_cmd_bubble)

    sp = sub.add_parser("chat",
                        help="projected linear solve C(W) and the nonlocal "
                             "pairing")
    _add_params(sp); _add_json(sp); _add_curvature(sp)
    sp.add_argument("--h0", type=float, required=True,
                    help="amplitude of the U1 component of W")
    _add_grid(sp)
    sp.add_argument("--emit-modes", default=None,
                    help="write r,c0,c2 mode-profile CSV here")
    sp.set_defaults(func=_cmd_chat)

    sp = sub.add_parser("lg", help="geometric obstruction at (h0, x0)")
    _add_params(sp); _add_json(sp); _add_curvature(sp); _add_potential(sp)
    _add_grid(sp)
    sp.set_defaults(func=_cmd_lg)

    sp = sub.add_parser("energy",
                        help="delta-sweep energy fit vs predicted "
                             "coefficients")
    _add_params(sp); _add_json(sp); _add_curvature(sp); _add_potential(sp)
    sp.add_argument("--deltas", default="0.005:0.05:12",
                    help="geometric sweep lo:hi:count")
    sp.add_argument("--r0", type=float, default=1.0,
                    help="truncation radius")
    sp.add_argument("--no-nuisance", action="store_true",
                    help="drop the truncation-order fit columns")
    sp.set_defaults(func=_cmd_energy)

    sp = sub.add_parser("remainder",
                        help="remainder-density norm and its delta^2 "
                             "scaling")
    _add_params(sp); _add_json(sp); _add_curvature(sp); _add_potential(sp)
    sp.set_defaults(func=_cmd_remainder)

    sp = sub.add_parser("reduce",
                        help="critical point of the reduced quartic")
    _add_json(sp)
    sp.add_argument("--quad", type=float, required=True)
    sp.add_argument("--quartic", type=float, required=True)
    sp.add_argument("--eps", type=float, default=None,
                    help="also report delta = t0 sqrt(eps)")
    sp.set_defaults(func=_cmd_reduce)

    sp = sub.add_parser("family",
                        help="k-ladder of perturbed potentials and "
                             "predicted scales")
    _add_params(sp); _add_json(sp); _add_curvature(sp); _add_potential(sp)
    _add_grid(sp)
    sp.add_argument("--k-max", type=int, required=True)
    sp.add_argument("--base-lg", type=float, default=None,
                    help="base obstruction value (skips the solve)")
    sp.set_defaults(func=_cmd_family)

    sp = sub.add_parser("verdict",
                        help="classification against the curvature "
                             "threshold")
    _add_params(sp); _add_json(sp); _add_curvature(sp); _add_potential(sp)
    _add_grid(sp)
    sp.add_argument("--base-lg", type=float, default=None,
                    help="obstruction value (skips the solve)")
    sp.add_argument("--lg-tol", type=float, default=0.0,
                    help="obstruction zero tolerance")
    sp.set_defaults(func=_cmd_verdict)

    sp = sub.add_parser("kernel", help="spectral diagnostics of both modes")
    _add_params(sp); _add_json(sp)
    _add_grid(sp)
    sp.set_defaults(func=_cmd_kernel)

    return parser


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _human_lines(outputs, prefix=""):
    lines = []
    for k, v in outputs.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            lines.extend(_human_lines(v, prefix=f"{key}."))
        elif isinstance(v, float):
            lines.append(f"{key} = {v!r}")
        else:
            lines.append(f"{key} = {v}")
    return lines


def run(config: RunConfig) -> int:
    """Dispatch one parsed invocation; returns the process exit code."""
    try:
        inputs, outputs, human = config.args.func(config.args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    if config.format == "json":
        doc = {"tool": "hsbubble", "subcommand": config.subcommand,
               "inputs": _jsonable(inputs), "outputs": _jsonable(outputs)}
        print(json.dumps(doc, sort_keys=True, indent=2))
    elif human is not None:
        print(human)
    else:
        print("\n".join(_human_lines(_jsonable(outputs))))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    fmt = "json" if getattr(args, "json", False) else (
        "csv" if args.subcommand == "integrals" else "human")
    return run(RunConfig(subcommand=args.subcommand, args=args, format=fmt))


if __name__ == "__main__":
    raise SystemExit(main())
