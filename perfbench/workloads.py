"""The four benchmark workloads: inputs from a seed, operations, checks.

Every workload is a closed loop with one caller.  Its work is split into
passes; `Workload.pass_ops(i)` gives pass i, a list of `Op`s in an order
drawn from the seed.  An op's `call` is the timed call into hsbubble; its
`check` compares the result with the reference outputs captured from a
trusted commit (reference.json) and returns a mismatch message or None.

  cli-cold     one op = one fresh `python -m hsbubble.cli ...` process, over
               the nine README examples that do no bordered solve.
  grid-ladder  one op = one (n, s) case's refinement ladder: lg_total and
               kernel_diagnostics at N = 2000, 4000, 8000 (R_max = 200).
  rhs-sweep    one op = one nonlocal_term(detail=True) at (7, 1) on the
               8000,200 grid, with a source W drawn from the seed.
  quad-sweep   per (n, s) case: identity_report, the README energy fit,
               and remainder_alpha on the radial and Gauss-Jacobi paths.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import tempfile
import threading
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

# Floats in reports match the reference within this relative tolerance; it
# admits reordered floating-point sums (relative drift ~1e-11), not a change
# of method.  Keys naming roundoff-level diagnostics (residuals, spreads,
# standard errors) also pass within the absolute tolerance.
RTOL = 1e-7
DIAG_ATOL = 1e-9
DIAG_KEYS = ("residual", "spread", "_se", "error", "rms")
IDENTITY_RESIDUAL_MAX = 1e-8
ORDER_TARGET, ORDER_TOL = 2.0, 0.05
SOLVE_RESIDUAL_MAX = 1e-8
DEFECT_MAX = 1e-3

CASES = ((7, 1.0), (9, 0.5), (7, 1.5))
LADDER_N = (2000, 4000, 8000)
LADDER_RMAX = 200.0
RHS_CASE = (7, 1.0)
RHS_GRID = (8000, 200.0)
RHS_TRACE_OPS = 4
README_DELTAS = (0.005, 0.05, 12)
CHILD_TIMEOUT_S = 120.0


def child_env() -> dict:
    """Environment for every child: the checkout's sources, one BLAS thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def non_einstein(n: int) -> dict:
    """A fixed valid non-Einstein curvature: sphere:1 plus trace-free Ricci."""
    return {"scal": float(n * (n - 1)),
            "ric_norm2": float(n * (n - 1) ** 2) + 5.0,
            "rm_norm2": float(2 * n * (n - 1)), "lap_scal": 0.0}


def case_key(n: int, s: float) -> str:
    return f"{n},{s!r}"


# ------------------------------------------------------------ comparisons


def compare(got, ref, path: str = "") -> Optional[str]:
    """Key-by-key comparison of JSON-like values; floats within RTOL."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(ref):
            return f"{path}: {got!r} does not have the keys {sorted(ref)}"
        for k in ref:
            msg = compare(got[k], ref[k], f"{path}.{k}")
            if msg:
                return msg
        return None
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return f"{path}: list length differs"
        for i, (g, r) in enumerate(zip(got, ref)):
            msg = compare(g, r, f"{path}[{i}]")
            if msg:
                return msg
        return None
    if isinstance(ref, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        atol = DIAG_ATOL if any(t in path for t in DIAG_KEYS) else 0.0
        if math.isfinite(ref):
            ok = abs(got - ref) <= RTOL * abs(ref) + atol
        else:
            ok = got == ref
        return None if ok else f"{path}: {got!r} != reference {ref!r}"
    if got != ref or type(got) is not type(ref):
        return f"{path}: {got!r} != reference {ref!r}"
    return None


def jsonable(obj):
    """Plain-JSON copy of a result (numpy scalars become Python numbers)."""
    return json.loads(json.dumps(obj, default=lambda o: o.item()))


# ------------------------------------------------------------- operations


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]
    # typed error the reference commit raised here; the op then counts as
    # unanswered, not failed, when it raises exactly that error
    expect_error: Optional[str] = None
    # ops of one kind do the same work; op_p50_s takes a median per kind
    kind: Optional[str] = None
    # the calibration task (run.Calibration) whose speed follows this op's
    # as the host's speed drifts
    calibration: str = "solve"


class Workload:
    name = ""
    # one pass's wall time on a 2-CPU Xeon VM; sets the passes per run
    nominal_pass_s = 1.0

    def __init__(self, seed: int, reference: dict):
        self.seed = seed
        self.ref = reference[self.name]

    def pass_ops(self, i: int) -> list:
        raise NotImplementedError

    def trace_pass(self) -> list:
        return self.pass_ops(0)

    def passes(self, seconds: float) -> int:
        """Passes per run: fixed by --seconds, not by the machine's speed."""
        return max(1, math.ceil(seconds / self.nominal_pass_s))

    def _shuffled(self, ops: list, i: int) -> list:
        random.Random(f"{self.seed}/{self.name}/{i}").shuffle(ops)
        return ops


# ---------------------------------------------------------------- cli-cold

CLI_COMMANDS = {
    "constants": ["constants", "--n", "7", "--s", "1", "--json"],
    "integrals": ["integrals", "--n", "7", "--s", "1", "--json"],
    "bubble": ["bubble", "--n", "7", "--s", "1", "--delta", "0.1",
               "--emit-profile", "profile.csv", "--json"],
    "energy": ["energy", "--n", "7", "--s", "1", "--curvature", "sphere:1",
               "--h0", "7.954545454545454", "--deltas", "0.005:0.05:12",
               "--json"],
    "remainder": ["remainder", "--n", "7", "--s", "1", "--curvature", "flat",
                  "--h0", "2", "--json"],
    "reduce": ["reduce", "--quad", "2", "--quartic", "1", "--json"],
    "family": ["family", "--n", "7", "--s", "1", "--base-lg", "0", "--f0",
               "-1", "--k-max", "10", "--json"],
    "verdict": ["verdict", "--n", "7", "--s", "1", "--curvature", "sphere:1",
                "--h0", "7.954545454545454", "--base-lg", "5", "--json"],
    "kernel": ["kernel", "--n", "7", "--s", "1", "--grid", "8000,200",
               "--json"],
}
PROFILE_SAMPLE_ROWS = (1, 101, 201, 301, 401)


@dataclass
class ChildResult:
    code: int
    stdout: str
    stderr: str
    maxrss_kb: int
    cpu_s: float  # the child's user + system CPU time
    profile_rows: Optional[list] = None


def run_child(argv: list, cwd: Path) -> ChildResult:
    """Run one child to completion; its peak RSS and CPU time from wait4."""
    with tempfile.TemporaryFile("w+", dir=cwd) as out, \
            tempfile.TemporaryFile("w+", dir=cwd) as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), text=True,
                                stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return ChildResult(proc.returncode, out.read(), err.read(),
                           usage.ru_maxrss, usage.ru_utime + usage.ru_stime)


def cli_argv(args: list, importtime: bool = False) -> list:
    flags = ["-X", "importtime"] if importtime else []
    return [sys.executable, *flags, "-m", "hsbubble.cli", *args]


class CliCold(Workload):
    name = "cli-cold"
    nominal_pass_s = 6.0

    def __init__(self, seed: int, reference: dict, workdir: Path):
        super().__init__(seed, reference)
        self.workdir = workdir
        import hsbubble.cli  # noqa: F401  (the program each op starts)

    def _op(self, cmd: str, importtime: bool) -> Op:
        argv = cli_argv(CLI_COMMANDS[cmd], importtime)

        return Op(cmd, lambda: run_child(argv, self.workdir),
                  lambda res: self._check(cmd, res))

    def _check(self, cmd: str, res: ChildResult) -> Optional[str]:
        csv_path = self.workdir / "profile.csv"
        if csv_path.exists():
            res.profile_rows = csv_path.read_text().splitlines()
            csv_path.unlink()
        if res.code != 0:
            return f"{cmd}: exit code {res.code}: {res.stderr.strip()[-200:]}"
        try:
            doc = json.loads(res.stdout)
        except json.JSONDecodeError as exc:
            return f"{cmd}: report is not JSON: {exc}"
        msg = compare(doc, self.ref["reports"][cmd], cmd)
        if msg or cmd != "bubble":
            return msg
        rows = res.profile_rows or []
        want = self.ref["profile"]
        if len(rows) != want["rows"] or rows[0] != want["header"]:
            return "bubble: emitted profile has the wrong shape"
        for i in PROFILE_SAMPLE_ROWS:
            got = [float(x) for x in rows[i].split(",")]
            msg = compare(got, want["samples"][str(i)], f"profile[{i}]")
            if msg:
                return msg
        return None

    def pass_ops(self, i: int) -> list:
        return self._shuffled([self._op(c, False) for c in CLI_COMMANDS], i)

    def importtime_pass(self) -> list:
        return self._shuffled([self._op(c, True) for c in CLI_COMMANDS], 0)


# ------------------------------------------------------------- grid-ladder


def _ladder_result(lgs: list, kds: list) -> dict:
    return {str(N): {"local_term": lg.local_term,
                     "nonlocal_term": lg.nonlocal_term, "total": lg.total,
                     "kernel": jsonable(kd)}
            for N, lg, kd in zip(LADDER_N, lgs, kds)}


def observed_order(v1: float, v2: float, v3: float) -> float:
    """Convergence order from three values on grids refined by 2."""
    return math.log2(abs((v1 - v2) / (v2 - v3)))


class GridLadder(Workload):
    name = "grid-ladder"
    nominal_pass_s = 9.5

    def __init__(self, seed: int, reference: dict):
        super().__init__(seed, reference)
        import hsbubble
        self.H = hsbubble
        self.inputs = {}
        for n, s in CASES:
            p = hsbubble.HSParams(n, s)
            self.inputs[case_key(n, s)] = (
                p, hsbubble.curvature_preset("sphere:1", n),
                hsbubble.PotentialJet(0.0, 0.0))

    def _op(self, key: str) -> Op:
        H = self.H
        p, curv, jet = self.inputs[key]

        def call():
            lgs, kds = [], []
            for N in LADDER_N:
                grid = H.bubble.default_grid(p, N=N, R_max=LADDER_RMAX)
                lgs.append(H.geometry.lg_total(curv, jet, p, grid))
                kds.append(H.linearized.kernel_diagnostics(p, grid))
            return _ladder_result(lgs, kds)

        def check(res):
            msg = compare(res, self.ref[key], key)
            if msg:
                return msg
            order = observed_order(*(res[str(N)]["nonlocal_term"]
                                     for N in LADDER_N))
            if abs(order - ORDER_TARGET) > ORDER_TOL:
                return f"{key}: observed order {order:.4f}, expected ~2"
            return None

        return Op(key, call, check)

    def pass_ops(self, i: int) -> list:
        return self._shuffled([self._op(case_key(n, s)) for n, s in CASES], i)


# --------------------------------------------------------------- rhs-sweep


def draw_source(rng: random.Random, n: int):
    """One (curvature, h0) source; non-Einstein data are valid by design."""
    h0 = rng.uniform(-10.0, 10.0)
    if rng.random() < 0.5:
        return f"sphere:{rng.uniform(0.5, 2.0)!r}", h0
    scal = rng.uniform(-60.0, 60.0)
    curv = {"scal": scal,
            "ric_norm2": scal * scal / n + rng.uniform(0.5, 20.0),
            "rm_norm2": rng.uniform(0.0, 100.0),
            "lap_scal": rng.uniform(-10.0, 10.0)}
    return curv, h0


def rhs_prediction(ref: dict, a: float, e: float, t: float) -> dict:
    """Nonlocal pairing of W = (a, e, t) from the reference basis.

    The mode-0 part is the quadratic form [a e] G [a e]^T and the mode-2
    part is linear in t = |T|^2; the multiplier is linear in (a, e).
    """
    g = ref["gram"]
    part0 = a * a * g[0] + 2.0 * a * e * g[1] + e * e * g[2]
    scale0 = a * a * abs(g[0]) + 2.0 * abs(a * e * g[1]) + e * e * abs(g[2])
    part2 = t * ref["mode2_per_t"]
    mult = a * ref["multiplier"][0] + e * ref["multiplier"][1]
    mscale = abs(a * ref["multiplier"][0]) + abs(e * ref["multiplier"][1])
    return {"mode0_part": (part0, scale0), "mode2_part": (part2, abs(part2)),
            "total": (part0 + part2, scale0 + abs(part2)),
            "multiplier": (mult, mscale)}


def check_mode_solutions(det: dict) -> Optional[str]:
    for m in ("mode0", "mode2"):
        sol = det[m]
        if not sol.algebraic_residual <= SOLVE_RESIDUAL_MAX:
            return f"{m}: algebraic residual {sol.algebraic_residual:.3e}"
        if not sol.defect <= DEFECT_MAX:
            return f"{m}: defect {sol.defect:.3e}"
    m0 = det["mode0"]
    if not m0.solvability <= SOLVE_RESIDUAL_MAX:
        return f"mode0: solvability {m0.solvability:.3e}"
    if not (m0.gradient_orthogonality or 0.0) <= SOLVE_RESIDUAL_MAX:
        return f"mode0: gradient orthogonality {m0.gradient_orthogonality:.3e}"
    return None


class RhsSweep(Workload):
    name = "rhs-sweep"
    nominal_pass_s = 2.3

    def __init__(self, seed: int, reference: dict):
        super().__init__(seed, reference)
        import hsbubble
        self.H = hsbubble
        n, s = RHS_CASE
        self.p = hsbubble.HSParams(n, s)
        self.grid = hsbubble.default_grid(self.p, N=RHS_GRID[0],
                                          R_max=RHS_GRID[1])
        self.rng = random.Random(f"{seed}/{self.name}")
        self.sources = []

    def _source(self, i: int):
        while len(self.sources) <= i:
            curv, h0 = draw_source(self.rng, self.p.n)
            c = self.H.curvature_preset(curv, self.p.n)
            self.sources.append(self.H.assemble_w(c, self.p, h0))
        return self.sources[i]

    def _op(self, i: int) -> Op:
        w = self._source(i)
        H = self.H

        def call():
            return H.linearized.nonlocal_term(self.p, w, self.grid,
                                              detail=True)

        def check(det):
            want = rhs_prediction(self.ref, w.a, w.mode0_extra, w.t_free_norm2)
            for k, (val, scale) in want.items():
                if not abs(det[k] - val) <= RTOL * scale:
                    return f"source {i}: {k} {det[k]!r} != predicted {val!r}"
            return check_mode_solutions(det)

        return Op(f"source{i}", call, check, kind="nonlocal_term")

    def pass_ops(self, i: int) -> list:
        return [self._op(i)]

    def trace_pass(self) -> list:
        return [self._op(i) for i in range(RHS_TRACE_OPS)]


# -------------------------------------------------------------- quad-sweep


# The identity report, the energy fit and the radial remainder run adaptive
# quadrature, a Python loop over 15-point numpy panels; the Gauss-Jacobi
# remainder is vectorised over 2000 nodes and drifts like the LU task.
CALIBRATION = {"identity": "dispatch", "fit": "dispatch",
               "remainder_radial": "dispatch", "remainder_jacobi": "solve"}


class QuadSweep(Workload):
    name = "quad-sweep"
    nominal_pass_s = 2.0  # ~0.8 s without the two budget-exhausting calls

    def __init__(self, seed: int, reference: dict):
        super().__init__(seed, reference)
        import numpy as np
        import hsbubble
        self.H = hsbubble
        lo, hi, count = README_DELTAS
        self.deltas = np.geomspace(lo, hi, count)
        self.inputs = {}
        for n, s in CASES:
            p = hsbubble.HSParams(n, s)
            sphere = hsbubble.curvature_preset("sphere:1", n)
            h0_crit = hsbubble.derive_constants(p).c_ns * sphere.scal
            model = hsbubble.RadialModel(
                sphere, hsbubble.PotentialJet(h0_crit, 0.0), r0=1.0)
            self.inputs[case_key(n, s)] = {
                "p": p, "sphere": sphere, "model": model,
                "non_einstein": hsbubble.curvature_preset(non_einstein(n), n)}

    def op_calls(self, key: str) -> dict:
        H, inp = self.H, self.inputs[key]
        p = inp["p"]
        return {
            "identity": lambda: {
                k: {f: float(v) for f, v in row.items()}
                for k, row in H.moments.identity_report(p).ratios.items()},
            "fit": lambda: jsonable(asdict(
                H.energy.fit_expansion(inp["model"], p, self.deltas))),
            "remainder_radial": lambda: jsonable(
                H.energy.remainder_alpha(inp["sphere"], p, 1.0)),
            "remainder_jacobi": lambda: jsonable(
                H.energy.remainder_alpha(inp["non_einstein"], p, 1.0)),
        }

    def _check(self, key: str, kind: str, res) -> Optional[str]:
        ref = self.ref[key][kind]
        if "error" in ref:
            # the reference commit raised here; a result now must at least
            # be a finite positive norm (refresh reference.json to pin it)
            ok = res.get("alpha_inv", 0.0) > 0.0 and math.isfinite(
                res["alpha_inv"]) and not res["degenerate"]
            return None if ok else f"{key} {kind}: bad result {res!r}"
        if kind == "identity":
            worst = max(row["rel_residual"] for row in res.values())
            if not worst <= IDENTITY_RESIDUAL_MAX:
                return f"{key}: identity residual {worst:.3e}"
        return compare(res, ref, f"{key}.{kind}")

    def _ops(self) -> list:
        ops = []
        for n, s in CASES:
            key = case_key(n, s)
            for kind, call in self.op_calls(key).items():
                ref = self.ref[key][kind]
                ops.append(Op(f"{key}/{kind}", call,
                              lambda res, key=key, kind=kind:
                              self._check(key, kind, res),
                              expect_error=ref.get("error"),
                              calibration=CALIBRATION[kind]))
        return ops

    def pass_ops(self, i: int) -> list:
        """Pass 0 runs all twelve ops; later passes skip the ops that raised
        at the reference commit, which fail the same way on every attempt
        and would cost ~25 s of every pass."""
        ops = self._ops()
        if i > 0:
            ops = [op for op in ops if op.expect_error is None]
        return self._shuffled(ops, i)

    def passes(self, seconds: float) -> int:
        return 1 + super().passes(seconds)


WORKLOADS = ("cli-cold", "grid-ladder", "rhs-sweep", "quad-sweep")


def load_reference() -> dict:
    with open(REFERENCE, "r", encoding="utf-8") as fh:
        return json.load(fh)


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Import the program and build one workload's inputs from the seed."""
    import hsbubble
    if Path(hsbubble.__file__).resolve().parent.parent != SRC:
        raise RuntimeError(f"hsbubble loads from {hsbubble.__file__}, "
                           f"not from {SRC}")
    reference = load_reference()
    if name == "cli-cold":
        return CliCold(seed, reference, workdir)
    cls = {"grid-ladder": GridLadder, "rhs-sweep": RhsSweep,
           "quad-sweep": QuadSweep}[name]
    return cls(seed, reference)
