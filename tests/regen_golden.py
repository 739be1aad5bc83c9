"""Rewrite golden reports after an intended change of their numbers.

    PYTHONPATH=src python tests/regen_golden.py [NAME...]

Each NAME is a key of test_cli.GOLDEN_CASES; with no NAME every case is
regenerated, so a run that prints nothing shows that no report moved.  A
case's command runs through
test_cli.run_golden, the call test_report_matches_golden checks: cli.main
in an empty working directory holding test_cli.INPUT_FILES.  The report
and every side file it writes replace tests/golden/NAME.*, and each number
whose text changed is printed as old -> new with its relative change, for
the change log.
Unknown names are refused before anything runs.
"""

import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_cli import GOLDEN, GOLDEN_CASES, run_golden  # noqa: E402

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def run(name: str) -> dict:
    """{golden file name: bytes} of one case, its stdout included."""
    rc, out, err, side = run_golden(name)
    if rc != 0:
        raise SystemExit(f"{name}: exit {rc}: {err}")
    return {f"{name}.stdout": out.encode("utf-8"),
            **{f"{name}.{fname}": data for fname, data in side.items()}}


def moved_numbers(old: str, new: str):
    """(old, new) text of each number that differs, in order, or None when
    the texts differ in more than their numbers."""
    if NUMBER.sub("#", old) != NUMBER.sub("#", new):
        return None
    return [(a, b) for a, b in zip(NUMBER.findall(old), NUMBER.findall(new))
            if a != b]


def main(names: list) -> None:
    unknown = sorted(set(names) - set(GOLDEN_CASES))
    if unknown:
        raise SystemExit(f"unknown golden case(s) {unknown}; known: "
                         f"{', '.join(sorted(GOLDEN_CASES))}")
    for name in names or sorted(GOLDEN_CASES):
        files = run(name)
        for stale in GOLDEN.glob(f"{name}.*"):
            if stale.name not in files:
                stale.unlink()
                print(f"{stale.name}: removed")
        for fname, data in files.items():
            path = GOLDEN / fname
            old = path.read_bytes() if path.exists() else None
            if old is None:
                print(f"{fname}: new")
            elif old != data:
                moved = moved_numbers(old.decode("utf-8"), data.decode("utf-8"))
                if moved is None:
                    print(f"{fname}: changed beyond its numbers")
                for a, b in moved or ():
                    rel = abs(float(b) - float(a)) / abs(float(a)) \
                        if float(a) else float("inf")
                    print(f"{fname}: {a} -> {b} ({rel:.2g} relative)")
            path.write_bytes(data)


if __name__ == "__main__":
    main(sys.argv[1:])
