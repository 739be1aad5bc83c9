"""Subcommand driver exposing every operation with reproducible reports.

Each subcommand echoes its parsed inputs next to its outputs so any report
can be reproduced from itself.  JSON documents have the fixed shape

    {"tool": "hsbubble", "subcommand": ..., "inputs": ..., "outputs": ...}

with sorted keys, so two runs with the same inputs are byte-identical.
Exit codes: 0 success, 1 domain/validation error (bad flags, unwritable CSV
paths), 2 numerical failure (non-convergence, ill-conditioned fit, an output
that is not finite).  A reader that closes stdout early (`| head`) ends the
run quietly, with its exit code.

The subcommands are rows of one table (_SUBCOMMANDS): name, help, the flags
(the shared tuples _PARAMS, _CURVATURE, _POTENTIAL and _GRID, then the
subcommand's own), the handler and an optional text renderer.  The parser
holds only the subcommand named first (all of them for --help, an unknown
name or none).  Handlers take an _Inputs, which parses (n, s), the
curvature, the potential and the grid from the flags on first use.  Only
errors and params are imported here; each handler imports what it calls,
so a run loads only the modules (and numpy or scipy's LAPACK) its
subcommand uses: `constants`, `bubble`, `reduce`, `verdict --base-lg` and
`family --base-lg` load no numpy.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from functools import cached_property
from typing import Callable, NamedTuple, Optional

from .errors import DomainError, NumericalError
from .params import DEFAULT_GRID, DEFAULT_TOL, HSParams


class _Parser(argparse.ArgumentParser):
    """argparse with validation failures mapped to exit code 1, and every
    token that reads as a float a value (argparse refuses -1e-3, -5., -inf)."""

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
            return None
        except ValueError:
            return super()._parse_optional(arg_string)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# ------------------------------------------------------------ shared flags
# (flag, add_argument keywords) pairs, as in each _SUBCOMMANDS row

_PARAMS = (("--n", dict(type=int, required=True, help="dimension (>= 3)")),
           ("--s", dict(type=float, required=True,
                        help="singularity exponent in [0, 2)")))
_CURVATURE = (("--curvature", dict(
    default="flat", help="flat | sphere:R | path to JSON with keys "
                         "{scal, ric_norm2, rm_norm2, lap_scal}")),)
_POTENTIAL = (
    ("--potential", dict(help="path to JSON with keys {h0, lap_h[, f0]} "
                              "(exclusive with the inline flags)")),
    ("--h0", dict(type=float, help="potential value at the point")),
    ("--lap-h", dict(type=float, help="potential Laplacian at the point "
                                      "(minus-divergence convention)")),
    ("--f0", dict(type=float,
                  help="perturbation-direction value at the point")))
_GRID = (("--grid", dict(default="%d,%g" % DEFAULT_GRID,
                         help="solver mesh as N,Rmax[,gamma] (default "
                              "%(default)s, gamma defaults to 2/(2-s))")),)


# ------------------------------------------------------------- input layer


def _parse_grid(p: HSParams, text: str):
    from .bubble import default_grid
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


def _parse_deltas(text: str):
    import numpy as np
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
        from .geometry import curvature_preset
        return curvature_preset(self.args.curvature, self.p.n)

    @cached_property
    def jet(self):
        from .geometry import PotentialJet, potential_file
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
                from .geometry import CURVATURE_SCHEMA_KEYS
                out[name] = {k: getattr(self.c, k)
                             for k in CURVATURE_SCHEMA_KEYS}
            elif name == "potential":
                out[name] = self.jet
            elif name == "grid":
                out[name] = self.grid
            else:
                out[name] = getattr(self.args, name)
        return out


def _obstruction(inp: _Inputs):
    """The obstruction (from --base-lg, else solved on the grid) and the
    inputs it used."""
    from .geometry import LgBreakdown, lg_total
    base = inp.args.base_lg
    if base is not None:
        return LgBreakdown(base, 0.0, base), {"base_lg": base}
    return (lg_total(inp.c, inp.jet, inp.p, inp.grid),
            inp.echo("curvature", "grid"))


def _csv(header, rows, path: Optional[str] = None) -> str:
    """CSV text with every number written as repr(float(x)), so it reads
    back bit for bit, and every other cell a fixed name: none needs quoting.
    Also written to path when one is given."""
    text = "".join(",".join([v if isinstance(v, str) else repr(float(v))
                             for v in row]) + "\n"
                   for row in itertools.chain([header], rows))
    if path is not None:
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise DomainError(f"cannot write CSV file {path!r}: {exc}") from exc
    return text


# ---------------------------------------------------------------- handlers
# each returns (inputs, outputs)


def _cmd_constants(inp):
    p = inp.p
    outputs = {"crit_exp": p.crit_exp, "kappa": p.kappa, "c_ns": p.c_ns,
               "lambda_ns": p.lambda_ns, "kappa_pow": p.kappa_pow}
    return inp.echo(), outputs


def _ratio_table(ratios: dict, path: Optional[str] = None) -> str:
    return _csv(["ratio", "quadrature", "closed_form", "rel_residual"],
                [(name, row["quadrature"], row["closed_form"],
                  row["rel_residual"]) for name, row in ratios.items()], path)


def _cmd_integrals(inp):
    from .moments import identity_report
    rep = identity_report(inp.p, tol=inp.args.tol)
    if inp.args.csv is not None:
        _ratio_table(rep.ratios, inp.args.csv)
    return inp.echo("tol"), {"ratios": rep.ratios}


def _cmd_bubble(inp):
    from .bubble import eval_profiles
    a, p = inp.args, inp.p
    outputs = {
        "kappa": p.kappa,
        "center_value": eval_profiles(p, a.delta, 0.0)["U_delta"],
        "center_identity": p.kappa * a.delta ** (-(a.n - 2.0) / 2.0),
    }
    if a.points < 1:
        raise DomainError(f"--points must be >= 1, got {a.points}")
    # U' ~ r**(1-s) is unbounded at r = 0 for s > 1: the profile has no row
    # there, and starts at the second point
    first = 1 if p.s > 1.0 else 0
    if first and a.points == 1:
        raise DomainError("--points must be >= 2 at s > 1, got 1: the profile "
                          "leaves out r = 0, where U' ~ r**(1-s) is unbounded")
    if a.emit_profile is not None:
        stop, last = 20.0 * a.delta, max(a.points - 1, 1)
        if math.isinf(stop):
            raise NumericalError(f"the profile's end r = 20 delta leaves the "
                                 f"float range at delta = {a.delta!r}")
        # np.linspace(0, stop, points) bit for bit: i * step, the last stop
        step = stop / last
        radii = (i * step if i < last else stop
                 for i in range(first, a.points))
        # eval_profiles' keys come in the header's order
        _csv(["r", "U_delta", "dr_U_delta", "Z_delta"],
             ((r, *eval_profiles(p, a.delta, r).values()) for r in radii),
             a.emit_profile)
        outputs["profile_csv"] = a.emit_profile
        outputs["profile_rows"] = a.points - first
    return inp.echo("delta", "points"), outputs


def _cmd_chat(inp):
    from .geometry import assemble_w
    from .linearized import nonlocal_term
    c, grid = inp.c, inp.grid
    w = assemble_w(c, inp.p, inp.args.h0)
    det = nonlocal_term(inp.p, w, grid, detail=True)
    mode0, mode2 = det["mode0"], det["mode2"]
    outputs = {
        "w": w,
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
    from .geometry import density_coeffs, kns, lg_total
    out = lg_total(inp.c, inp.jet, inp.p, inp.grid)
    outputs = {**vars(out), "kns": kns(inp.c, inp.p),
               "density_coeffs": density_coeffs(inp.c)}
    return inp.echo("curvature", "potential", "grid"), outputs


def _cmd_energy(inp):
    from .energy import RadialModel, fit_expansion
    a = inp.args
    model = RadialModel(inp.c, inp.jet, r0=a.r0)
    rep = fit_expansion(model, inp.p, _parse_deltas(a.deltas))
    inputs = inp.echo("curvature", "potential", "deltas", "r0")
    inputs["nuisance"] = True  # the fit always carries its nuisance columns
    return inputs, rep


def _cmd_remainder(inp):
    from .energy import remainder_alpha, remainder_norm_scaled
    c, h0 = inp.c, inp.jet.h0
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
    from .reduction import ReducedFunctional, critical_t, predicted_delta
    a = inp.args
    out = critical_t(ReducedFunctional(a.quad, a.quartic))
    if out.t0 is not None:
        message = "critical point found"
    elif out.degenerate_quartic:
        message = "no critical point: degenerate quartic coefficient"
    else:
        message = "no critical point: sign condition fails"
    outputs = {**vars(out), "message": message}
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
    from .reduction import family_theorem2
    f0 = inp.jet.f0
    base, used = _obstruction(inp)
    ladder = family_theorem2(base, inp.p, f0, inp.args.k_max)
    return {**inp.echo("potential", "k_max"), **used}, ladder


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
    from .reduction import verdict
    c, jet = inp.c, inp.jet
    lg, used = _obstruction(inp)
    v = verdict(jet, c, inp.p, lg, lg_tol=inp.args.lg_tol)
    return {**inp.echo("curvature", "potential", "lg_tol"), **used}, v


def _cmd_kernel(inp):
    from .linearized import kernel_diagnostics
    return inp.echo("grid"), kernel_diagnostics(inp.p, inp.grid)


# ------------------------------------------------------------------ table


class _Subcommand(NamedTuple):
    name: str
    help: str
    flags: tuple           # (flag, add_argument keywords) pairs, in order
    handler: Callable
    render: Optional[Callable] = None  # outputs -> text; None: key = value


_SUBCOMMANDS = (
    _Subcommand("constants", "derived constants at (n, s)", _PARAMS,
                _cmd_constants),
    _Subcommand(
        "integrals", "moment-ratio identities, quadrature vs closed form",
        _PARAMS + (("--tol", dict(type=float, default=DEFAULT_TOL,
                                  help="quadrature tolerance")),
                   ("--csv", dict(help="also write the table here"))),
        _cmd_integrals,
        lambda out: _ratio_table(out["ratios"]).rstrip("\n")),
    _Subcommand(
        "bubble", "bubble profile at scale delta",
        _PARAMS + (("--delta", dict(type=float, required=True)),
                   ("--emit-profile", dict(help="write r,U_delta,dr_U_delta,"
                                                "Z_delta CSV here")),
                   ("--points", dict(type=int, default=401, help="rows in "
                                     "the emitted profile (on [0, 20 "
                                     "delta])"))),
        _cmd_bubble),
    _Subcommand(
        "chat", "projected linear solve C(W) and the nonlocal pairing",
        _PARAMS + _CURVATURE + _GRID + (
            ("--h0", dict(type=float, required=True,
                          help="amplitude of the U1 component of W")),
            ("--emit-modes", dict(help="write r,c0,c2 mode-profile CSV "
                                       "here"))),
        _cmd_chat),
    _Subcommand("lg", "geometric obstruction at (h0, x0)",
                _PARAMS + _CURVATURE + _POTENTIAL + _GRID, _cmd_lg),
    _Subcommand(
        "energy", "delta-sweep energy fit vs predicted coefficients",
        _PARAMS + _CURVATURE + _POTENTIAL + (
            ("--deltas", dict(default="0.005:0.05:12",
                              help="geometric sweep lo:hi:count")),
            ("--r0", dict(type=float, default=1.0, help="truncation radius"))),
        _cmd_energy),
    _Subcommand("remainder",
                "remainder-density norm and its delta^2 scaling",
                _PARAMS + _CURVATURE + _POTENTIAL, _cmd_remainder),
    _Subcommand(
        "reduce", "critical point of the reduced quartic",
        (("--quad", dict(type=float, required=True)),
         ("--quartic", dict(type=float, required=True)),
         ("--eps", dict(type=float, help="also report delta = t0 sqrt(eps)"))),
        _cmd_reduce),
    _Subcommand(
        "family", "k-ladder of perturbed potentials and predicted scales",
        _PARAMS + _CURVATURE + _POTENTIAL + _GRID + (
            ("--k-max", dict(type=int, required=True)),
            ("--base-lg", dict(type=float, help="base obstruction value "
                                                "(skips the solve)"))),
        _cmd_family, _family_table),
    _Subcommand(
        "verdict", "classification against the curvature threshold",
        _PARAMS + _CURVATURE + _POTENTIAL + _GRID + (
            ("--base-lg", dict(type=float,
                               help="obstruction value (skips the solve)")),
            ("--lg-tol", dict(type=float, default=0.0,
                              help="obstruction zero tolerance"))),
        _cmd_verdict),
    _Subcommand("kernel", "spectral diagnostics of both modes",
                _PARAMS + _GRID, _cmd_kernel),
)


# ------------------------------------------------------------------ driver


def _parser(rows) -> _Parser:
    """The parser over these _SUBCOMMANDS rows; its usage names them all."""
    parser = _Parser(prog="hsbubble",
                     description="bubble profiles, moment identities, the "
                                 "projected linear solver, energy "
                                 "expansions, and blow-up family "
                                 "predictions")
    # the full table keeps argparse's default metavar, the same brace list
    # in usage, because its errors then name the argument "subcommand"
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar=(
        None if rows is _SUBCOMMANDS else
        "{%s}" % ",".join(cmd.name for cmd in _SUBCOMMANDS)))
    for cmd in rows:
        sp = sub.add_parser(cmd.name, help=cmd.help)
        for flag, kwargs in cmd.flags:
            sp.add_argument(flag, **kwargs)
        sp.add_argument("--json", action="store_true",
                        help="emit a JSON report instead of text")
        sp.set_defaults(command=cmd)
    return parser


def _jsonable(obj, key):
    """obj with dicts for records and lists for tuples; a non-finite float,
    which JSON cannot hold, is refused by its key."""
    if hasattr(obj, "__dict__"):  # a Record, or energy's FitReport
        obj = vars(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v, f"{key}.{k}") for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v, f"{key}[{i}]") for i, v in enumerate(obj)]
    if isinstance(obj, float) and not math.isfinite(obj):
        raise NumericalError(f"{key} = {obj!r} is not a finite number")
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
    argv = list(sys.argv[1:] if argv is None else argv)
    rows = [cmd for cmd in _SUBCOMMANDS if argv[:1] == [cmd.name]]
    args = _parser(rows or _SUBCOMMANDS).parse_args(argv)
    cmd = args.command
    try:
        inputs, outputs = cmd.handler(_Inputs(args))
        inputs = _jsonable(inputs, "inputs")
        outputs = _jsonable(outputs, "outputs")
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    if args.json:
        doc = {"tool": "hsbubble", "subcommand": cmd.name,
               "inputs": inputs, "outputs": outputs}
        report = json.dumps(doc, sort_keys=True, indent=2)
    elif cmd.render is not None:
        report = cmd.render(outputs)
    else:
        report = "\n".join(_human_lines(outputs))
    try:
        print(report)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`| head`): the run still succeeded;
        # point stdout at devnull so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
