"""Subcommand driver exposing every operation with reproducible reports.

Each subcommand echoes its parsed inputs next to its outputs so any report
can be reproduced from itself.  JSON documents have the fixed shape

    {"tool": "hsbubble", "subcommand": ..., "inputs": ..., "outputs": ...}

with sorted keys, so two runs with the same inputs are byte-identical.
Exit codes: 0 success, 1 domain/validation error (including bad flags),
2 numerical failure (non-convergence, ill-conditioned fit).

The subcommands are rows of one table (_SUBCOMMANDS): name, help, the shared
flag groups, the subcommand's own flags, the handler and an optional text
renderer.  Handlers take an _Inputs, which parses (n, s), the curvature, the
potential and the grid from the flags on first use.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np

from .bubble import default_grid, eval_profiles
from .energy import (RadialModel, fit_expansion, remainder_alpha,
                     remainder_norm_scaled)
from .errors import DomainError, NumericalError
from .geometry import (CURVATURE_SCHEMA_KEYS, LgBreakdown, PotentialJet,
                       assemble_w, curvature_preset, density_coeffs, kns,
                       lg_total, potential_file)
from .linearized import kernel_diagnostics, nonlocal_term
from .moments import identity_report
from .params import HSParams, derive_constants
from .reduction import (ReducedFunctional, critical_t, family_theorem2,
                        predicted_delta, verdict)

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    """argparse with validation failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# ------------------------------------------------------------- flag groups


def _add_params(sp):
    sp.add_argument("--n", type=int, required=True, help="dimension (>= 3)")
    sp.add_argument("--s", type=float, required=True,
                    help="singularity exponent in [0, 2)")


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


def _add_grid(sp):
    sp.add_argument("--grid", default="8000,200",
                    help="solver mesh as N,Rmax[,gamma] "
                         "(default 8000,200, gamma defaults to 2/(2-s))")


_GROUPS = {"params": _add_params, "curvature": _add_curvature,
           "potential": _add_potential, "grid": _add_grid}


# ------------------------------------------------------------- input layer


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
    if not (0.0 < lo < hi < math.inf and count >= 2):
        raise DomainError(f"--deltas needs 0 < lo < hi < inf and count >= 2, "
                          f"got {text!r}")
    return np.geomspace(lo, hi, count)


class _Inputs:
    """The shared inputs of one invocation.

    (n, s) is parsed at once; the curvature, the potential and the grid are
    parsed from their flags on first use, so validation follows the order in
    which a handler reads them and an input a run does not use is never
    parsed.  echo(*names) reports n, s and the named inputs as resolved;
    a name that is not a shared input echoes the flag of that name.
    """

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.p = HSParams(args.n, args.s) if "n" in args else None

    @cached_property
    def c(self):
        return curvature_preset(self.args.curvature, self.p.n)

    @cached_property
    def jet(self) -> PotentialJet:
        a = self.args
        if a.potential is None:
            return PotentialJet(a.h0 or 0.0, a.lap_h or 0.0, a.f0 or 0.0)
        if any(v is not None for v in (a.h0, a.lap_h, a.f0)):
            raise DomainError("--potential is exclusive with --h0/--lap-h/--f0")
        return potential_file(a.potential)

    @cached_property
    def grid(self):
        return _parse_grid(self.p, self.args.grid)

    def echo(self, *names) -> dict:
        out = {} if self.p is None else {"n": self.args.n, "s": self.args.s}
        for name in names:
            if name == "curvature":
                out[name] = {k: getattr(self.c, k)
                             for k in CURVATURE_SCHEMA_KEYS}
            elif name == "potential":
                out[name] = {"h0": self.jet.h0_val, "lap_h": self.jet.lap_h,
                             "f0": self.jet.f_val}
            elif name == "grid":
                out[name] = asdict(self.grid)
            else:
                out[name] = getattr(self.args, name)
        return out


def _obstruction(inp: _Inputs):
    """The obstruction (from --base-lg, else solved on the grid) and the
    inputs it used."""
    base = inp.args.base_lg
    if base is not None:
        return LgBreakdown(base, 0.0, base), {"base_lg": base}
    return (lg_total(inp.c, inp.jet, inp.p, inp.grid),
            inp.echo("curvature", "grid"))


def _csv(header, rows, path: Optional[str] = None) -> str:
    """CSV text with every number written as repr(float(x)), so it reads
    back bit for bit; also written to path when one is given."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([v if isinstance(v, str) else repr(float(v)) for v in row]
                     for row in rows)
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(buf.getvalue())
    return buf.getvalue()


# ---------------------------------------------------------------- handlers
# each returns (inputs, outputs)


def _cmd_constants(inp):
    c = derive_constants(inp.p)
    outputs = {"crit_exp": c.crit_exp, "kappa": c.kappa, "c_ns": c.c_ns,
               "lambda_ns": c.lambda_ns, "kappa_pow": c.kappa_pow}
    return inp.echo(), outputs


def _ratio_table(ratios: dict, path: Optional[str] = None) -> str:
    return _csv(["ratio", "quadrature", "closed_form", "rel_residual"],
                [(name, row["quadrature"], row["closed_form"],
                  row["rel_residual"]) for name, row in ratios.items()], path)


def _cmd_integrals(inp):
    rep = identity_report(inp.p, tol=inp.args.tol)
    # elapsed_seconds is deliberately not echoed: reports must be
    # byte-identical across re-runs with the same inputs
    if inp.args.csv is not None:
        _ratio_table(rep.ratios, inp.args.csv)
    return inp.echo("tol"), {"ratios": rep.ratios}


def _cmd_bubble(inp):
    a = inp.args
    c = derive_constants(inp.p)
    outputs = {
        "kappa": c.kappa,
        "center_value": float(eval_profiles(inp.p, a.delta, 0.0)["U_delta"]),
        "center_identity": c.kappa * a.delta ** (-(a.n - 2.0) / 2.0),
    }
    if a.points < 1:
        raise DomainError(f"--points must be >= 1, got {a.points}")
    if a.emit_profile is not None:
        r = np.linspace(0.0, 20.0 * a.delta, a.points)
        if inp.p.s > 1.0:  # U' ~ r**(1-s) is unbounded at r = 0: no such row
            r = r[1:]
        vals = eval_profiles(inp.p, a.delta, r)
        _csv(["r", "U_delta", "dr_U_delta", "Z_delta"],
             zip(r, vals["U_delta"], vals["dr_U_delta"], vals["Z_delta"]),
             a.emit_profile)
        outputs["profile_csv"] = a.emit_profile
        outputs["profile_rows"] = r.size
    return inp.echo("delta", "points"), outputs


def _cmd_chat(inp):
    c, grid = inp.c, inp.grid
    w = assemble_w(c, inp.p, inp.args.h0)
    det = nonlocal_term(inp.p, w, grid, detail=True)
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
    if inp.args.emit_modes is not None:
        _csv(["r", "c0", "c2"],
             zip(grid.nodes, mode0.profile.values, mode2.profile.values),
             inp.args.emit_modes)
        outputs["modes_csv"] = inp.args.emit_modes
        outputs["modes_rows"] = grid.N + 1
    return inp.echo("h0", "curvature", "grid"), outputs


def _cmd_lg(inp):
    out = lg_total(inp.c, inp.jet, inp.p, inp.grid)
    outputs = {"local_term": out.local_term,
               "nonlocal_term": out.nonlocal_term,
               "total": out.total,
               "kns": kns(inp.c, inp.p),
               "density_coeffs": density_coeffs(inp.c)}
    return inp.echo("curvature", "potential", "grid"), outputs


def _cmd_energy(inp):
    a = inp.args
    model = RadialModel(inp.c, inp.jet, r0=a.r0)
    rep = fit_expansion(model, inp.p, _parse_deltas(a.deltas),
                        nuisance=not a.no_nuisance)
    inputs = inp.echo("curvature", "potential", "deltas", "r0")
    inputs["nuisance"] = not a.no_nuisance
    return inputs, asdict(rep)


def _cmd_remainder(inp):
    c, h0 = inp.c, inp.jet.h0_val
    out = remainder_alpha(c, inp.p, h0)
    outputs = dict(out)
    if not out["degenerate"]:
        ratios = {repr(d): remainder_norm_scaled(c, inp.p, h0, d) / d**2
                  for d in (0.1, 0.01, 0.001)}
        vals = list(ratios.values())
        spread = (max(vals) - min(vals)) / out["alpha_inv"]
        outputs["scaling_check"] = {"norm_over_delta_sq": ratios,
                                    "max_rel_spread": spread}
    return {**inp.echo("curvature"), "h0": h0}, outputs


def _cmd_reduce(inp):
    a = inp.args
    out = critical_t(ReducedFunctional(a.quad, a.quartic))
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
    inputs = inp.echo("quad", "quartic")
    if a.eps is not None:
        # checked even without a critical point: the report echoes it
        if not 0.0 < a.eps < math.inf:
            raise DomainError(f"eps must be positive and finite, got {a.eps}")
        inputs["eps"] = a.eps
        if out.t0 is not None:
            outputs["delta_at_eps"] = predicted_delta(out.t0, a.eps)
    return inputs, outputs


def _cmd_family(inp):
    jet = inp.jet
    base, used = _obstruction(inp)
    ladder = family_theorem2(base, inp.p, jet.f_val, inp.args.k_max)
    entries = [{"k": e.k, "lap_h_shift": e.lap_h_shift, "lg_k": e.lg_k,
                "predicted_t0": e.predicted_t0} for e in ladder.entries]
    outputs = {"base_lg": ladder.base_lg, "quad_coef": ladder.quad_coef,
               "r4grad": ladder.r4grad, "entries": entries}
    return {**inp.echo("potential", "k_max"), **used}, outputs


def _family_table(outputs: dict) -> str:
    lines = [f"base_lg = {outputs['base_lg']!r}",
             f"quad_coef = {outputs['quad_coef']!r}",
             f"r4grad = {outputs['r4grad']!r}",
             "k,lap_h_shift,lg_k,predicted_t0"]
    for e in outputs["entries"]:
        t0 = e["predicted_t0"]
        lines.append(f"{e['k']},{e['lap_h_shift']!r},{e['lg_k']!r},"
                     f"{'' if t0 is None else repr(t0)}")
    return "\n".join(lines)


def _cmd_verdict(inp):
    c, jet = inp.c, inp.jet
    lg, used = _obstruction(inp)
    v = verdict(jet, c, inp.p, lg, lg_tol=inp.args.lg_tol)
    outputs = {"classification": v.classification, "h0": v.h0_val,
               "critical_value": v.critical_value, "excess": v.excess,
               "lg_total": v.lg_total,
               "required_f_sign": v.required_f_sign,
               "f_sign_ok": v.f_sign_ok}
    return {**inp.echo("curvature", "potential", "lg_tol"), **used}, outputs


def _cmd_kernel(inp):
    return inp.echo("grid"), kernel_diagnostics(inp.p, inp.grid)


# ------------------------------------------------------------------ table


class _Subcommand(NamedTuple):
    name: str
    help: str
    groups: tuple          # keys of _GROUPS
    flags: tuple           # (flag, add_argument keywords) pairs
    handler: Callable
    render: Optional[Callable] = None  # outputs -> text; None: key = value


_SUBCOMMANDS = (
    _Subcommand("constants", "derived constants at (n, s)", ("params",), (),
                _cmd_constants),
    _Subcommand(
        "integrals", "moment-ratio identities, quadrature vs closed form",
        ("params",),
        (("--tol", dict(type=float, default=1e-10,
                        help="quadrature tolerance")),
         ("--csv", dict(help="also write the table here"))),
        _cmd_integrals,
        lambda out: _ratio_table(out["ratios"]).rstrip("\n")),
    _Subcommand(
        "bubble", "bubble profile at scale delta", ("params",),
        (("--delta", dict(type=float, required=True)),
         ("--emit-profile", dict(help="write r,U_delta,dr_U_delta,Z_delta "
                                      "CSV here")),
         ("--points", dict(type=int, default=401, help="rows in the emitted "
                           "profile (on [0, 20 delta])"))),
        _cmd_bubble),
    _Subcommand(
        "chat", "projected linear solve C(W) and the nonlocal pairing",
        ("params", "curvature", "grid"),
        (("--h0", dict(type=float, required=True,
                       help="amplitude of the U1 component of W")),
         ("--emit-modes", dict(help="write r,c0,c2 mode-profile CSV here"))),
        _cmd_chat),
    _Subcommand("lg", "geometric obstruction at (h0, x0)",
                ("params", "curvature", "potential", "grid"), (), _cmd_lg),
    _Subcommand(
        "energy", "delta-sweep energy fit vs predicted coefficients",
        ("params", "curvature", "potential"),
        (("--deltas", dict(default="0.005:0.05:12",
                           help="geometric sweep lo:hi:count")),
         ("--r0", dict(type=float, default=1.0, help="truncation radius")),
         ("--no-nuisance", dict(action="store_true", help="drop the "
                                "truncation-order fit columns"))),
        _cmd_energy),
    _Subcommand("remainder",
                "remainder-density norm and its delta^2 scaling",
                ("params", "curvature", "potential"), (), _cmd_remainder),
    _Subcommand(
        "reduce", "critical point of the reduced quartic", (),
        (("--quad", dict(type=float, required=True)),
         ("--quartic", dict(type=float, required=True)),
         ("--eps", dict(type=float, help="also report delta = t0 sqrt(eps)"))),
        _cmd_reduce),
    _Subcommand(
        "family", "k-ladder of perturbed potentials and predicted scales",
        ("params", "curvature", "potential", "grid"),
        (("--k-max", dict(type=int, required=True)),
         ("--base-lg", dict(type=float, help="base obstruction value "
                                             "(skips the solve)"))),
        _cmd_family, _family_table),
    _Subcommand(
        "verdict", "classification against the curvature threshold",
        ("params", "curvature", "potential", "grid"),
        (("--base-lg", dict(type=float,
                            help="obstruction value (skips the solve)")),
         ("--lg-tol", dict(type=float, default=0.0,
                           help="obstruction zero tolerance"))),
        _cmd_verdict),
    _Subcommand("kernel", "spectral diagnostics of both modes",
                ("params", "grid"), (), _cmd_kernel),
)


# ------------------------------------------------------------------ driver


def build_parser() -> _Parser:
    parser = _Parser(prog="hsbubble",
                     description="bubble profiles, moment identities, the "
                                 "projected linear solver, energy "
                                 "expansions, and blow-up family "
                                 "predictions")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for cmd in _SUBCOMMANDS:
        sp = sub.add_parser(cmd.name, help=cmd.help)
        for group in cmd.groups:
            _GROUPS[group](sp)
        for flag, kwargs in cmd.flags:
            sp.add_argument(flag, **kwargs)
        sp.add_argument("--json", action="store_true",
                        help="emit a JSON report instead of text")
        sp.set_defaults(command=cmd)
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


def main(argv=None) -> int:
    """Parse argv, run one subcommand, print its report; the exit code."""
    args = build_parser().parse_args(argv)
    cmd = args.command
    try:
        inputs, outputs = cmd.handler(_Inputs(args))
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    outputs = _jsonable(outputs)
    if args.json:
        doc = {"tool": "hsbubble", "subcommand": cmd.name,
               "inputs": _jsonable(inputs), "outputs": outputs}
        print(json.dumps(doc, sort_keys=True, indent=2))
    elif cmd.render is not None:
        print(cmd.render(outputs))
    else:
        print("\n".join(_human_lines(outputs)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
