"""Paired benchmark runs of the working tree against a git revision.

    python3 tests/bench_pairs.py REV [--workload W] [--pairs 10] [--seed S]

REV's files are exported with `git archive` into a temporary directory
(offline, and the repository's refs, index and worktree list are left
alone).  Pair i, for i = 0 .. pairs - 1, runs

    python3 perfbench/run.py --workload W --seed S+i --seconds 12 --trace 0

once in REV's tree and once in the working tree, the working tree first on
even i and second on odd i, so that a drift of the host's speed within a
pair favours neither side.  For every end-to-end metric of BENCHMARK.json
it then prints each side's median and quartiles, the change of the median,
and in how many pairs the working tree did better (a tie counts for
neither).  The exported tree is removed at the end, whatever happens.

The script imports no hsbubble code, and pytest does not collect it.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(rev: str, dest: Path) -> None:
    """REV's committed files, unpacked into dest."""
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev],
                               stdout=subprocess.PIPE)
    unpack = subprocess.run(["tar", "-x", "-C", str(dest)],
                            stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() or unpack.returncode:
        raise SystemExit(f"could not export {rev!r} with git archive")


def run(tree: Path, workload: str, seed: int) -> dict:
    """The metric values of one perfbench run in tree."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "12", "--trace", "0"],
        cwd=tree, env=env, text=True, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"perfbench in {tree} (seed {seed}) exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"  {tree}: seed {seed}: {result['failed']} of "
              f"{result['attempted']} operations failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", help="the git revision to compare against")
    ap.add_argument("--workload", default="quad-sweep")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if args.pairs < 1:
        raise SystemExit("--pairs must be at least 1")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        better = {m["name"]: m["better"]
                  for m in json.load(fh)["end_to_end"]}

    base = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    runs = {"base": [], "tree": []}
    try:
        export(args.rev, base)
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("tree", "base") if i % 2 == 0 else ("base", "tree")
            got = {side: run(ROOT if side == "tree" else base,
                             args.workload, seed) for side in order}
            for side in runs:
                runs[side].append(got[side])
            print(f"pair {i} (seed {seed}, {order[0]} first): " + ", ".join(
                f"{name} {got['base'][name]:.6g} -> {got['tree'][name]:.6g}"
                for name in better), flush=True)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    print(f"\n{args.workload}: {args.rev} (base) against the working tree "
          f"(tree), {args.pairs} pairs from seed {args.seed}; medians "
          "[quartiles], and the median's change against base's spread")
    for name, sense in better.items():
        base_v = [r[name] for r in runs["base"]]
        tree_v = [r[name] for r in runs["tree"]]
        (b1, b2, b3), (t1, t2, t3) = quartiles(base_v), quartiles(tree_v)
        sign = 1.0 if sense == "higher" else -1.0
        wins = sum(sign * (t - b) > 0.0 for b, t in zip(base_v, tree_v))
        change = f"{(t2 - b2) / abs(b2):+.2%}" if b2 else "n/a"
        print(f"{name}: base {b2:.6g} [{b1:.6g}, {b3:.6g}], tree {t2:.6g} "
              f"[{t1:.6g}, {t3:.6g}], change {change}, "
              f"|change| {'>' if abs(t2 - b2) > b3 - b1 else '<='} base's "
              f"q3 - q1; tree {sense} in {wins} of {args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
