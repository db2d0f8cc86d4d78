"""One campaign call in a fresh interpreter, reported as one JSON line.

    python3 campaign_bench/worker.py '{"workload": "thm1-3-5", "seed": null}'

Job keys: ``workload`` and ``seed`` (the campaign seed, null if unseeded);
``setup_only`` stops after the import; ``trace`` wraps the package's layers
and adds per-layer metrics, the rank-lane timings and ``spans_out``, the
file the spans are written to.  ``t_ready`` is CLOCK_MONOTONIC after the
package import and kernel-lane selection, so the caller can time set-up
from the moment it started this process.
"""

import os
import sys
import time


def main() -> None:
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    import lefschetz_props as pkg

    backend = pkg.kernel_backend
    t_ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    import hashlib
    import json
    import resource

    job = json.loads(sys.argv[1])
    out = {"t_ready": t_ready, "backend": backend}
    if job.get("setup_only"):
        print(json.dumps(out))
        return

    from workloads import WORKLOADS, verdict_of

    wl = WORKLOADS[job["workload"]]
    seed = job["seed"]
    if job.get("trace"):
        import layers
        from spans import Tracer

        tracer = Tracer()
        captured = layers.instrument(tracer, pkg)
        try:
            report, wall = layers.traced_call(tracer, lambda: wl.run(pkg.harness, seed))
        finally:
            tracer.restore()
        out["layers"] = layers.layer_metrics(
            tracer, pkg, wl.pool, layers.child_cpu_seconds()
        )
        out["rank_lanes"] = layers.time_rank_lanes(pkg, captured)
        out["spans"] = tracer.dump(job["spans_out"])
    else:
        t0 = time.perf_counter()
        report = wl.run(pkg.harness, seed)
        wall = time.perf_counter() - t0

    full = json.dumps(report.to_dict(include_timing=False), sort_keys=True)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out.update(
        wall_s=wall,
        examined=report.examined,
        verdict=verdict_of(report),
        report_sha256=hashlib.sha256(full.encode()).hexdigest(),
        # Linux reports KiB; pool workers run concurrently, so count the
        # largest one once per worker (an upper bound: forked pages are shared).
        peak_rss_mb=(own + wl.pool * children) / 1024,
    )
    print(json.dumps(out))


if __name__ == "__main__":
    main()
