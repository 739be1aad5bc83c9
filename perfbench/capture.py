"""Capture reference.json: the outputs the benchmark checks against.

    python3 perfbench/capture.py

Run from the root of a checkout at a commit whose outputs are trusted; the
file records that commit's results for every operation the workloads run,
including the typed errors it raises.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402,F401  (pins the BLAS threads before numpy loads)
import workloads as wl  # noqa: E402


def capture_cli(tmp: Path) -> dict:
    work = wl.CliCold(0, {"cli-cold": {}}, tmp)
    reports, profile = {}, {}
    for op in work.pass_ops(0):
        res = op.call()
        if res.code != 0:
            raise RuntimeError(f"{op.label} failed: {res.stderr}")
        reports[op.label] = json.loads(res.stdout)
        if op.label == "bubble":
            rows = res.profile_rows
            profile = {"rows": len(rows), "header": rows[0], "samples": {
                str(i): [float(x) for x in rows[i].split(",")]
                for i in wl.PROFILE_SAMPLE_ROWS}}
    return {"reports": reports, "profile": profile}


def capture_ladder() -> dict:
    work = wl.GridLadder(0, {"grid-ladder": {}})
    return {op.label: op.call() for op in work.pass_ops(0)}


def capture_rhs() -> dict:
    work = wl.RhsSweep(0, {"rhs-sweep": {}})
    W = work.H.linearized.WDecomposition

    def pair(a, e, t):
        return work.H.linearized.nonlocal_term(work.p, W(a, e, t), work.grid,
                                               detail=True)

    ua, ue, ut, both = pair(1, 0, 0), pair(0, 1, 0), pair(0, 0, 1), \
        pair(1, 1, 0)
    g00, g11 = ua["mode0_part"], ue["mode0_part"]
    return {"gram": [g00, 0.5 * (both["mode0_part"] - g00 - g11), g11],
            "mode2_per_t": ut["mode2_part"],
            "multiplier": [ua["multiplier"], ue["multiplier"]]}


def capture_quad() -> dict:
    from hsbubble.errors import DomainError, NumericalError
    work = wl.QuadSweep(0, {"quad-sweep": {}})
    out = {}
    for n, s in wl.CASES:
        key = wl.case_key(n, s)
        out[key] = {}
        for kind, call in work.op_calls(key).items():
            try:
                out[key][kind] = call()
            except (DomainError, NumericalError) as exc:
                out[key][kind] = {"error": type(exc).__name__}
    return out


def main() -> int:
    with tempfile.TemporaryDirectory(dir=wl.ROOT) as tmp:
        ref = {"cli-cold": capture_cli(Path(tmp)),
               "grid-ladder": capture_ladder(),
               "rhs-sweep": capture_rhs(),
               "quad-sweep": capture_quad()}
    with open(wl.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
