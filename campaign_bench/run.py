#!/usr/bin/env python3
"""Campaign benchmark: time to a verified verdict, end to end and per layer.

    python3 campaign_bench/run.py --workload thm1-3-5 --seed 1 --seconds 20 --trace 0

Every campaign call runs in a fresh interpreter (``worker.py``), so import,
kernel-lane selection and the lazy caches a ``lefprop`` invocation fills are
paid as a user pays them.  Each call's verdict fields are checked against
``reference.json``; a call fails if it raises, returns ``partial`` or
differs from the reference.

``--trace 0`` repeats the call for ``--seconds`` (at least twice) and
reports the end-to-end metrics as medians.  ``--trace 1`` makes one untraced
and one traced call: the traced call wraps the package's layers from outside
(``layers.py``) and gives per-layer self times and counts, the time no layer
claims, the tracing overhead, and the rank kernels timed per lane on the
matrices the call produced.  Spans and full results go to
``campaign_bench/out/`` (the spans of the latest traced run per workload).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import (
    WORKLOADS,
    expected_verdict,
    load_reference,
    verdict_mismatches,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "lefschetz_props"
OUT = BENCH / "out"

SETUP_PROBES = 5      # set-up-only interpreters per timed run, besides the calls
MIN_CALLS = 2
RUN_BUDGET_S = 170    # a run never starts work it cannot finish by then

# name -> unit; the order is the print order.
END_TO_END = {
    "wall_s": "s",
    "examined_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "harness.enumerate.self_s": "s",
    "harness.symmetry.self_s": "s",
    "harness.symmetry.calls": "count",
    "harness.symmetry.accept_ratio": "ratio",
    "harness.ideal_from_mask.self_s": "s",
    "harness.scan.self_s": "s",
    "harness.form_draw.self_s": "s",
    "harness.form_rejections": "count",
    "harness.pool.utilization": "ratio",
    "ideals.monomial_ideal.self_s": "s",
    "ideals.monomial_ideal.calls": "count",
    "ideals.hf.self_s": "s",
    "ideals.form_piece.self_s": "s",
    "ideals.form_piece.calls": "count",
    "ideals.reduce_mod_piece.self_s": "s",
    "lefschetz.decide.self_s": "s",
    "lefschetz.decide.calls": "count",
    "lefschetz.build_rows.self_s": "s",
    "lefschetz.build_rows.calls": "count",
    "lefschetz.build_rows.entries": "count",
    "lefschetz.free_pair_ratio": "ratio",
    "lefschetz.shortcut_fallback_ratio": "ratio",
    "exactlinalg.row_reduce.self_s": "s",
    "exactlinalg.row_reduce.calls": "count",
    "exactlinalg.row_reduce.cells": "count",
    "kernels.rank_mod.self_s": "s",
    "kernels.rank_mod.calls": "count",
    "kernels.rank_mod.cert_ratio": "ratio",
    "kernels.rank_exact.self_s": "s",
    "kernels.rank_exact.calls": "count",
    "kernels.entry_bits_max": "bits",
    "kernels.pure.rank_mod.us_per_call": "us",
    "kernels.pure.rank_exact.us_per_call": "us",
    "combinatorics.cache_misses": "count",
    "unattributed.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
}


class WorkerError(Exception):
    pass


def spawn(job: dict, deadline: float) -> dict:
    """Run one worker to completion; its set-up time is added as setup_s."""
    cmd = [sys.executable, str(BENCH / "worker.py"), json.dumps(job)]
    t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    # own session, so a timeout also stops the worker's pool processes
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerError("timed out") from None
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        raise WorkerError(tail[0])
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["t_ready"] - t_spawn
    return result


def tags(seed: int, backend: str) -> dict:
    """What a result depends on besides the workload."""
    rev = None  # not a git checkout
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=5, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "kernel_backend": backend,
        "git_rev": rev,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def check_call(wl, reference: dict, seed, result: dict) -> list[str]:
    return verdict_mismatches(expected_verdict(reference, wl, seed), result["verdict"])


def timed_run(wl, seed: int, seconds: float, reference: dict, deadline: float):
    setups = [spawn({"setup_only": True}, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    calls, attempted, failed = [], 0, 0
    campaign_seeds = wl.campaign_seeds(seed)
    t0 = time.monotonic()
    longest = 0.0
    while attempted < MIN_CALLS or time.monotonic() - t0 < seconds:
        if time.monotonic() + longest > deadline:
            break
        cs = next(campaign_seeds)
        attempted += 1
        started = time.monotonic()
        try:
            result = spawn({"workload": wl.name, "seed": cs}, deadline)
        except WorkerError as exc:
            failed += 1
            print(f"call {attempted} (campaign seed {cs}): FAILED: {exc}")
            continue
        finally:
            longest = max(longest, time.monotonic() - started)
        problems = check_call(wl, reference, cs, result)
        if problems:
            failed += 1
            print(f"call {attempted} (campaign seed {cs}): verdict differs "
                  f"from the reference in {', '.join(problems)}")
        setups.append(result["setup_s"])
        calls.append(result)
    if not calls:
        return None
    walls = [c["wall_s"] for c in calls]
    values = {
        "wall_s": (statistics.median(walls), len(walls)),
        "examined_per_s": (
            statistics.median(c["examined"] / c["wall_s"] for c in calls), len(calls)
        ),
        "setup_s": (statistics.median(setups), len(setups)),
        "peak_rss_mb": (statistics.median(c["peak_rss_mb"] for c in calls), len(calls)),
    }
    detail = {"calls": calls, "setup_samples": setups}
    return values, attempted, failed, calls[0]["backend"], detail


def traced_run(wl, seed: int, reference: dict, deadline: float):
    cs = next(wl.campaign_seeds(seed))
    job = {"workload": wl.name, "seed": cs,
           "spans_out": str(OUT / f"spans-{wl.name}.bin")}
    attempted, failed = 0, 0
    results = []
    for trace in (False, True):
        attempted += 1
        try:
            result = spawn({**job, "trace": trace}, deadline)
        except WorkerError as exc:
            failed += 1
            print(f"{'traced' if trace else 'untraced'} call: FAILED: {exc}")
            continue
        problems = check_call(wl, reference, cs, result)
        if problems:
            failed += 1
            print(f"{'traced' if trace else 'untraced'} call: verdict differs "
                  f"from the reference in {', '.join(problems)}")
        results.append(result)
    if len(results) < 2:
        return None
    plain, traced = results
    if plain["report_sha256"] != traced["report_sha256"]:
        failed += 1
        print("traced and untraced reports differ: wrapping changed the campaign")
    lanes = traced["rank_lanes"]
    if lanes["mismatches"]:
        failed += 1
        print(f"rank lanes {lanes['lanes']}: {lanes['mismatches']} ranks differ "
              "from the ranks the campaign saw")
    layer = dict(traced["layers"])
    layer["kernels.entry_bits_max"] = lanes["entry_bits_max"]
    for key, value in lanes.items():
        if key.endswith("us_per_call") or key.endswith("bailouts"):
            layer[f"kernels.{key}"] = value
    layer["trace.wall_s"] = traced["wall_s"]
    layer["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    values = {name: (value, 1) for name, value in layer.items()}
    detail = {"untraced": plain, "traced": traced, "campaign_seed": cs}
    return values, attempted, failed, traced["backend"], detail


def unit_of(name: str) -> str:
    """Unit of a metric printed beside the declared ones."""
    if name.endswith("us_per_call"):
        return "us"
    return "s" if name.endswith("_s") else "count"


def print_table(wl, mode: str, values: dict, units: dict, meta: dict, wall: float | None):
    print(f"workload {wl.name} ({mode}): {wl.why}")
    print("  " + "  ".join(f"{k}={v}" for k, v in meta.items()))
    if mode == "trace":
        print(f"  recorded shares: {wl.shares}")
        print(f"  expected to move: {wl.expect}")
    if mode == "trace" and wl.pool:
        print("  per-layer numbers are from the parent process only: spans "
              "recorded in forked pool workers are lost")
    print(f"  {'metric':<38} {'value':>14} {'unit':<6} {'n':>3}  share")
    for name in list(units) + sorted(set(values) - set(units)):
        if name not in values:
            continue
        value, n = values[name]
        unit = units.get(name) or unit_of(name)
        share = f"{value / wall:6.1%}" if wall and name.endswith("self_s") else ""
        print(f"  {name:<38} {value:>14.6g} {unit:<6} {n:>3}  {share}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    if not (PACKAGE / "__init__.py").is_file():
        print(f"no package source under {PACKAGE.relative_to(ROOT)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    reference = load_reference()
    OUT.mkdir(exist_ok=True)
    try:
        # first import of a checkout compiles bytecode; keep it out of setup_s
        spawn({"setup_only": True}, deadline)
        if args.trace:
            outcome = traced_run(wl, args.seed, reference, deadline)
            units = PER_LAYER
        else:
            outcome = timed_run(wl, args.seed, args.seconds, reference, deadline)
            units = END_TO_END
    except WorkerError as exc:
        print(f"worker failed: {exc}", file=sys.stderr)
        return 1
    if outcome is None:
        print("no call completed; nothing to report", file=sys.stderr)
        return 1
    values, attempted, failed, backend, detail = outcome
    meta = tags(args.seed, backend)
    mode = "trace" if args.trace else "timed"
    if args.trace:
        wall = values["trace.wall_s"][0]
        claimed = sum(v for k, (v, _) in values.items() if k.endswith(".self_s"))
        print_table(wl, mode, values, units, meta, wall)
        print(f"  layer self times + unattributed = {claimed:.6f} s of "
              f"{wall:.6f} s traced wall")
    else:
        print_table(wl, mode, values, units, meta, None)
    print(f"  {'error_rate':<38} {failed / attempted:>14.6g} {'ratio':<6} {attempted:>3}")
    with open(OUT / f"{mode}-{wl.name}-seed{args.seed}.json", "w") as fh:
        json.dump({"tags": meta, "workload": wl.name, "values": values,
                   "attempted": attempted, "failed": failed, "detail": detail}, fh)
    metrics = {
        name: {"value": values[name][0], "unit": unit} for name, unit in units.items()
    }
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
