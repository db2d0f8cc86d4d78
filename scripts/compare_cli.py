#!/usr/bin/env python3
"""Compare ``lefprop`` output between this checkout and another one.

    python3 scripts/compare_cli.py OTHER_CHECKOUT

Runs every README example and the tabular, seeded and form-ideal invocations
below with ``--no-timestamp``, once against each checkout's ``src/``, and
compares standard output byte for byte and the exit code.  Prints one line
per invocation and exits 1 if any of them differ, unless ``DECLARED`` names
that invocation with the reason it is meant to differ: such a line reads
DECLARED and does not fail the run, and a declared invocation that no longer
differs reads STALE, so its entry can go.
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
RATIONAL_FORMS = "1/2*x1^2+x2*x3,x2^2-3*x1*x3,x3^2"
NON_ARTINIAN_FORMS = "x1^2+x2*x3,x2^2-x1*x3"
CUBIC_FORMS = "x1^3+x2^2*x3,x2^3-x1*x3^2,x3^3"
# A support ideal that no transposition of the variables fixes.
ASYMMETRIC = "x1^4,x2^4,x3^4,x1*x2*x3^2,x2^2*x3^2,x1*x3^3,x2*x3^3"

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
    ["verify-thm2", "--n", "4", "--d", "4", "--i", "1"],
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
    # the power-1 campaign, which sweeps and searches Theorem 1's window,
    # and the pool path (split at popcount 4, partial at the default budgets)
    ["verify-thm2", "--n", "3", "--d", "4", "--i", "1"],
    ["verify-thm1", "--n", "4", "--d", "5", "--threads", "2"],
    # support-ideal campaigns: four variables, no symmetry reduction, a
    # seeded crosscheck sample, and the SLP bound
    ["verify-thm1", "--n", "4", "--d", "3"],
    ["verify-thm1", "--n", "3", "--d", "4", "--no-symmetry"],
    ["crosscheck", "--n", "3", "--d", "4", "--sample", "256", "--seed", "3"],
    ["verify-thm2", "--n", "3", "--d", "4"],
    # the form-ideal path: row-reduced spans, a rational-coefficient ideal
    # (also with the removed ``--order``, a usage error), and a non-artinian
    # ideal, which is recognized as such (exit 2)
    ["hf", "--gens", FORMS],
    ["hf", "--gens", RATIONAL_FORMS],
    ["hf", "--gens", RATIONAL_FORMS, "--order", "lex"],
    ["socle", "--gens", FORMS],
    ["hf", "--gens", NON_ARTINIAN_FORMS, "--upto", "6"],
    ["hf", "--gens", NON_ARTINIAN_FORMS],
    ["socle", "--gens", NON_ARTINIAN_FORMS],
    # minimal-kernel-support searches, whose dependence tests run the rank
    # policy on rows of the multiplication map, also on a nonzero ideal
    ["verify-thm37", "--n", "3", "--d", "5", "--i", "1"],
    ["verify-thm37", "--n", "4", "--d", "4", "--i", "2"],
    ["verify-thm37", "--n", "3", "--d", "6", "--i", "3"],
    ["minsupport", "--gens", BK, "--d", "3", "--i", "2", "--bound", "6"],
    # pairs past an onto map of the same power: a five-variable campaign,
    # and randomized scans (FORMS is onto from (1, 1); BK fails at (1, 2)
    # and is onto from (1, 3))
    ["verify-thm1", "--n", "5", "--d", "3"],
    ["power", "--gens", FORMS, "--i", "1", "--method", "full", "--seed", "9",
     "--format", "csv"],
    ["slp", "--gens", BK, "--method", "full", "--mode", "randomized", "--seed", "9",
     "--format", "csv"],
    # every power i <= d-1 in four variables, ranked from the parity
    # columns the row builder packs: a seeded crosscheck (every power map
    # of the SLP) and the per-power bound for i = 2
    ["crosscheck", "--n", "4", "--d", "3", "--sample", "300", "--seed", "5"],
    ["verify-thm2", "--n", "4", "--d", "3", "--i", "2"],
    # campaigns decided from the one critical map: the power-shortcut decide
    # over Theorem 1's window, and 151k four-variable masks
    ["verify-thm2", "--n", "3", "--d", "5", "--i", "1"],
    ["verify-thm1", "--n", "4", "--d", "4"],
    # the orderly below-bound walk stopped by each budget, on the pool path,
    # and in five variables
    ["verify-thm1", "--n", "3", "--d", "5", "--budget-ideals", "20000"],
    ["verify-thm1", "--n", "3", "--d", "5", "--budget-entries", "1000000"],
    ["verify-thm1", "--n", "3", "--d", "5", "--threads", "2"],
    ["verify-thm1", "--n", "5", "--d", "3", "--budget-ideals", "1000"],
    # the full SLP check on a seeded sample of d = 5 support ideals, and a
    # degree-6 minimal-support search over the zero ideal's rows
    ["crosscheck", "--n", "3", "--d", "5", "--sample", "300", "--seed", "2"],
    ["verify-thm37", "--n", "3", "--d", "6", "--i", "1"],
    # the integer-only form path: full checks on the rational-coefficient
    # ideal, and a cubic ideal whose pieces past the socle are certified
    # to be all of S_k without an elimination
    ["slp", "--gens", RATIONAL_FORMS, "--mode", "randomized", "--seed", "9",
     "--method", "full", "--format", "csv"],
    ["power", "--gens", RATIONAL_FORMS, "--i", "2", "--method", "full",
     "--seed", "9", "--format", "csv"],
    ["hf", "--gens", CUBIC_FORMS, "--upto", "8"],
    ["slp", "--gens", CUBIC_FORMS, "--mode", "randomized", "--seed", "4",
     "--method", "full", "--format", "csv"],
    # below-bound masks certified by the orderly walk on the other keys and
    # on the pool path: the power-2 window stopped by an entry budget on
    # its 173rd of 261 masks, a degree-7 power-2 window of 232k masks split
    # at popcount 4, and 151k four-variable WLP masks
    ["verify-thm2", "--n", "4", "--d", "4", "--i", "2", "--budget-entries", "5000"],
    ["verify-thm2", "--n", "3", "--d", "7", "--i", "2", "--threads", "2"],
    ["verify-thm1", "--n", "4", "--d", "4", "--threads", "2"],
    # the packed canonicity test on the Gosper stream of larger groups: the
    # power-1 campaign's at-bound window under 23 permutations, and the SLP
    # bound's under 119
    ["verify-thm2", "--n", "4", "--d", "3", "--i", "1"],
    ["verify-thm2", "--n", "5", "--d", "2"],
    # the below-bound walk split across forked workers: partial reports
    # stopped by each budget, the no-symmetry window, an entry budget on a
    # power window, and a window partial at the default budgets
    ["verify-thm1", "--n", "3", "--d", "5", "--threads", "2", "--budget-ideals", "20000"],
    ["verify-thm1", "--n", "3", "--d", "5", "--threads", "2", "--budget-entries", "1000000"],
    ["verify-thm1", "--n", "3", "--d", "5", "--no-symmetry", "--threads", "2"],
    ["verify-thm2", "--n", "3", "--d", "7", "--i", "2", "--budget-entries", "10000000",
     "--threads", "2"],
    ["verify-thm1", "--n", "3", "--d", "6", "--threads", "2"],
    # the entry budget stopping the walk of a no-symmetry window, which
    # visits every subset, in-process on (3, 4) and split across two workers
    # on (3, 5)
    ["verify-thm1", "--n", "3", "--d", "4", "--no-symmetry", "--budget-entries", "50000"],
    ["verify-thm1", "--n", "3", "--d", "5", "--no-symmetry", "--budget-entries", "5000000",
     "--threads", "2"],
    # minimal-support searches on an ideal that every permutation of the
    # variables fixes, other than the zero ideal (the Theorem 1 girth of
    # the complete intersection), on an asymmetric one, and a degree-7
    # search at a middle power, where most row sets grown are stopping
    # sets and are ranked (the weights of ell^3 are not all odd)
    ["minsupport", "--gens", "x1^4,x2^4,x3^4", "--d", "4", "--i", "1", "--bound", "10"],
    ["minsupport", "--gens", ASYMMETRIC, "--d", "4", "--i", "2", "--bound", "5"],
    ["verify-thm37", "--n", "3", "--d", "7", "--i", "3"],
    # workers that only walk, every mask decided by the parent: a
    # four-variable window stopped by an entry budget inside a dealt
    # segment, and a no-symmetry window stopped by the ideal budget
    ["verify-thm1", "--n", "4", "--d", "4", "--threads", "2", "--budget-entries", "10000000"],
    ["verify-thm1", "--n", "3", "--d", "5", "--no-symmetry", "--threads", "2",
     "--budget-ideals", "100000"],
    # a girth (4) below the bound (5): the first dependent row set lowers
    # the bound of the rest of the search
    ["minsupport", "--gens", "x1^4,x2^4,x3^4", "--d", "4", "--i", "2", "--bound", "5"],
    # a split scan stopped deep inside its workers' streams: 120,000 masks
    # into the 1,422 segments of (4, 4) split at popcount 4
    ["verify-thm1", "--n", "4", "--d", "4", "--threads", "2", "--budget-ideals", "120000"],
    # crosschecks below d = 2, where no shortcut gate holds
    ["crosscheck", "--n", "3", "--d", "0"],
    ["crosscheck", "--n", "3", "--d", "1"],
    # budgets that the sweep below the bound leaves exactly used up, so the
    # witness search at the bound stops on its first mask
    ["verify-thm1", "--n", "3", "--d", "5", "--budget-ideals", "38918"],
    ["verify-thm1", "--n", "3", "--d", "5", "--budget-entries", "15188379"],
    # minimal-support searches at i = 1 that took seconds on the orderly
    # tree of the zero ideal's rows
    ["verify-thm37", "--n", "3", "--d", "7", "--i", "1"],
    ["verify-thm37", "--n", "4", "--d", "5", "--i", "1"],
    # the orderly walk at P = 719 permutations, and the split walk at P = 119
    # (split at popcount 4, stopped by the ideal budget)
    ["verify-thm1", "--n", "6", "--d", "3"],
    ["verify-thm1", "--n", "5", "--d", "4", "--threads", "2", "--budget-ideals", "20000"],
    # per-pair ranks decided without a matrix: a map with a one-dimensional
    # side (rank one), a power bounded through a composition of two known
    # records, and shortcuts that read the full check's records
    ["slp", "--gens", ASYMMETRIC, "--method", "full", "--format", "csv"],
    ["slp", "--gens", "x1^3,x2^3,x3^3,x4^3", "--method", "full", "--format", "csv"],
    ["crosscheck", "--n", "3", "--d", "4", "--sample", "512", "--seed", "7"],
    # exact scans of form ideals through the record cache: powers bounded
    # by composition (7 of 21 pairs of the cubic ideal, 2 of 6 of the
    # rational one), and an ideal holding (x1 + x2 + x3)^2, whose map from
    # R_0 has a one-dimensional source and rank 0 (exit 1)
    ["slp", "--gens", CUBIC_FORMS, "--mode", "exact", "--method", "full", "--format", "csv"],
    ["slp", "--gens", RATIONAL_FORMS, "--mode", "exact", "--method", "full", "--format", "csv"],
    ["slp", "--gens", "x1^2,x2^2,x3^2,x1*x2+x1*x3+x2*x3", "--mode", "exact", "--method",
     "full", "--format", "csv"],
    # the power-1 campaign stopped by an entry budget inside its sweep
    ["verify-thm2", "--n", "3", "--d", "5", "--i", "1", "--budget-entries", "3000"],
]

# Invocations whose output is meant to differ from the other checkout, as a
# tuple of the argv above, mapped to the reason.
_POWER_ONE = (
    "the power-1 bound is Theorem 1's, not d+1: expected_bound {} and "
    "details.matrix_entry_cost move"
)
DECLARED: dict[tuple[str, ...], str] = {
    ("verify-thm2", "--n", "3", "--d", "4", "--i", "1"): _POWER_ONE.format("5 -> 10"),
    ("verify-thm2", "--n", "3", "--d", "5", "--i", "1"): _POWER_ONE.format("6 -> 12"),
    ("verify-thm2", "--n", "4", "--d", "3", "--i", "1"): _POWER_ONE.format("4 -> 6"),
    ("verify-thm2", "--n", "4", "--d", "4", "--i", "1"): _POWER_ONE.format("5 -> 8"),
    ("verify-thm2", "--n", "3", "--d", "5", "--i", "1", "--budget-entries", "3000"):
        _POWER_ONE.format("6 -> 12") + ", and so does examined: the sweep stops at "
        "another mask",
}


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
    differing = undeclared = 0
    with tempfile.TemporaryDirectory() as cwd:
        Path(cwd, "bk3.ideal").write_text("x1^3\nx2^3\nx3^3\nx1*x2*x3\n")
        for argv in COMMANDS:
            here, there = run(ROOT, argv, cwd), run(other, argv, cwd)
            same = here == there
            reason = DECLARED.get(tuple(argv))
            differing += not same
            undeclared += not same and reason is None
            if reason is None:
                status, note = ("same" if same else "DIFF"), ""
            else:
                status, note = ("STALE" if same else "DECLARED"), f"  ({reason})"
            print(f"{status}  exit {here[0]}/{there[0]}  "
                  f"lefprop {' '.join(argv)}{note}")
    summary = f"{len(COMMANDS) - differing} of {len(COMMANDS)} invocations identical"
    if differing > undeclared:
        summary += f", {differing - undeclared} declared differences"
    print(summary)
    return 1 if undeclared else 0


if __name__ == "__main__":
    sys.exit(main())
