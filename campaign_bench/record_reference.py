#!/usr/bin/env python3
"""Record the reference verdicts the benchmark checks every call against.

    python3 campaign_bench/record_reference.py

Runs each workload's campaign once per campaign seed it can draw and writes
the verdict fields (no timings) to ``reference.json``.  Record only from a
commit whose verdicts are known to be right: the benchmark treats any later
difference as a failure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from workloads import REFERENCE_PATH, WORKLOADS, verdict_of

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lefschetz_props import harness  # noqa: E402


def main() -> None:
    reference: dict = {}
    for wl in WORKLOADS.values():
        key = wl.reference_key()
        if key in reference:
            continue
        seeds = range(wl.seed_space) if wl.seed_space else [None]
        entries = {}
        for seed in seeds:
            entries["any" if seed is None else str(seed)] = verdict_of(wl.run(harness, seed))
            print(f"{key} seed {seed}: recorded", flush=True)
        reference[key] = entries
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
