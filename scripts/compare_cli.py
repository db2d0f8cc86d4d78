#!/usr/bin/env python3
"""Compare ``lefprop`` output between this checkout and another one.

    python3 scripts/compare_cli.py OTHER_CHECKOUT

Runs every README example and the tabular and seeded check invocations
below with ``--no-timestamp``, once against each checkout's ``src/``, and
compares standard output byte for byte and the exit code.  Prints one line
per invocation and exits 1 if any of them differ.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BK = "x1^3,x2^3,x3^3,x1*x2*x3"
FORMS = "x1^2+x2*x3,x2^2-x1*x3,x3^2"

COMMANDS = [
    # README examples
    ["wlp", "--gens", BK],
    ["slp", "--ideal", "bk3.ideal", "--format", "csv"],
    ["hf", "--gens", BK],
    ["classify", "--sequence", "1,2,2,1", "--property", "slp"],
    ["osequence", "--sequence", "1,3,7"],
    ["extremal", "--n", "3", "--d", "5", "--i", "3"],
    ["dual", "--n", "3", "--d", "3", "--f", "y1*y2^2 - 2*y1*y2*y3 + y1*y3^2"],
    ["minsupport", "--n", "3", "--d", "4", "--i", "2", "--bound", "4"],
    ["verify-thm1", "--n", "3", "--d", "5"],
    ["verify-thm2", "--n", "4", "--d", "2"],
    ["verify-thm2", "--n", "3", "--d", "5", "--i", "3"],
    ["verify-thm37", "--n", "3", "--d", "5", "--i", "2"],
    ["crosscheck", "--n", "3", "--d", "3", "--sample", "all"],
    ["named"],
    # full checks as tables, shortcuts, seeded randomized checks
    ["wlp", "--gens", BK, "--format", "csv"],
    ["slp", "--gens", BK, "--method", "full", "--format", "csv"],
    ["power", "--gens", BK, "--i", "2", "--method", "full", "--format", "csv"],
    ["slp", "--gens", BK, "--method", "shortcut"],
    ["power", "--gens", BK, "--i", "1"],
    ["slp", "--gens", BK, "--mode", "randomized", "--seed", "9"],
    ["slp", "--gens", FORMS, "--mode", "randomized", "--seed", "9"],
    ["wlp", "--gens", FORMS, "--seed", "9", "--format", "csv"],
    # the searched witness over several HF levels, and the pool path
    ["verify-thm2", "--n", "3", "--d", "4", "--i", "1"],
    ["verify-thm1", "--n", "3", "--d", "4", "--threads", "2"],
]


def run(checkout: Path, argv: list[str], cwd: str) -> tuple[int, bytes]:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "lefschetz_props.cli", *argv, "--no-timestamp"],
        cwd=cwd, env=env, capture_output=True,
    )
    return proc.returncode, proc.stdout


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    other = Path(sys.argv[1]).resolve()
    differing = 0
    with tempfile.TemporaryDirectory() as cwd:
        Path(cwd, "bk3.ideal").write_text("x1^3\nx2^3\nx3^3\nx1*x2*x3\n")
        for argv in COMMANDS:
            here, there = run(ROOT, argv, cwd), run(other, argv, cwd)
            same = here == there
            differing += not same
            print(f"{'same' if same else 'DIFF'}  exit {here[0]}/{there[0]}  "
                  f"lefprop {' '.join(argv)}")
    print(f"{len(COMMANDS) - differing} of {len(COMMANDS)} invocations identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
