"""Per-layer instrumentation of a campaign, applied from outside the package.

``instrument`` wraps the module attributes campaigns call into, in every
module that imported them by value, and records spans and counters on a
``Tracer``.  ``layer_metrics`` turns them into the per-layer metrics.  The
rank kernels' arguments are kept (an evenly thinned sample) so the rank
layer can be timed per lane on the workload's own matrices
(``time_rank_lanes``).
"""

from __future__ import annotations

import resource
import statistics
import time

from spans import Tracer

# Layer span names; each yields <name>.self_s and <name>.calls.
LAYER_SPANS = (
    "harness.enumerate", "harness.symmetry", "harness.ideal_from_mask",
    "harness.scan", "harness.form_draw",
    "ideals.monomial_ideal", "ideals.hf", "ideals.form_piece",
    "ideals.reduce_mod_piece",
    "lefschetz.decide", "lefschetz.build_rows",
    "exactlinalg.row_reduce",
    "kernels.rank_mod", "kernels.rank_exact",
)
ROOT_SPAN = "campaign"
CAPTURE_LIMIT = 2048


class MatrixSample:
    """Evenly thinned sample of kernel arguments: every ``stride``-th call
    is kept, and the stride doubles whenever the sample is full."""

    def __init__(self, limit: int = CAPTURE_LIMIT):
        self.limit = limit
        self.stride = 1
        self.seen = 0
        self.items: list[tuple] = []

    def offer(self, item: tuple) -> None:
        if self.seen % self.stride == 0:
            self.items.append(item)
            if len(self.items) >= self.limit:
                self.items = self.items[::2]
                self.stride *= 2
        self.seen += 1


def instrument(tracer: Tracer, pkg) -> dict[str, MatrixSample]:
    """Wrap the campaign call graph of the imported package ``pkg``; returns
    the matrix samples for the two rank kernels.  ``tracer.restore()``
    removes every wrapper."""
    harness, ideals, lefschetz = pkg.harness, pkg.ideals, pkg.lefschetz
    exactlinalg, kernels = pkg.exactlinalg, pkg._kernels
    count = tracer.counters
    captured = {"rank_mod": MatrixSample(), "rank_exact": MatrixSample()}

    def on_symmetry(result, exc, args):
        count["symmetry.calls"] += 1
        count["symmetry.accepted"] += bool(result)

    def on_artinian_draw(result, exc, args):
        if exc is not None or not result:
            count["form_rejections"] += 1

    def on_shortcut(result, exc, args):
        if result is not None:
            count["shortcut.calls"] += 1
            count["shortcut.fallbacks"] += bool(result.fallback)

    def on_scan_pairs(result, exc, args):
        if result is not None:
            count["pairs.scanned"] += len(result[0])

    def on_matrix_pair(result, exc, args):
        count["pairs.built"] += 1

    def on_build_rows(result, exc, args):
        if result is not None:
            count["build_rows.entries"] += result[1] * result[2]

    def on_row_reduce(result, exc, args):
        count["row_reduce.cells"] += args[0].rows * args[0].cols

    def on_rank_mod(result, exc, args):
        rows, ncols = args[0], args[1]
        count["rank_mod.cert"] += result == min(len(rows), ncols)
        captured["rank_mod"].offer((rows, ncols, result))

    def on_rank_exact(result, exc, args):
        captured["rank_exact"].offer((args[0], args[1], result))

    patch = tracer.patch
    # harness: enumeration is a generator, timed per next()
    patch(harness, "iter_support_masks", "harness.enumerate")
    patch(harness, "_is_canonical", "harness.symmetry", on_symmetry)
    patch(harness, "ideal_from_mask", "harness.ideal_from_mask")
    patch(harness, "_scan_expected_pass", "harness.scan")
    patch(harness, "random_form_ideal", "harness.form_draw")
    patch(harness, "is_artinian", "ideals.hf", on_artinian_draw)
    # ideals, wherever a campaign reaches them
    patch(ideals.MonomialIdeal, "__init__", "ideals.monomial_ideal")
    patch(ideals.MonomialIdeal, "degree_mask", "ideals.hf")
    for mod in (ideals, lefschetz, harness):
        patch(mod, "socle_degree", "ideals.hf")
    for mod in (ideals, harness):
        patch(mod, "hilbert_function", "ideals.hf")
    patch(ideals, "is_artinian", "ideals.hf")
    patch(ideals, "_build_form_piece", "ideals.form_piece")
    patch(lefschetz, "reduce_mod_piece", "ideals.reduce_mod_piece")
    # lefschetz deciders, imported by value into harness
    for name in ("check_wlp", "check_slp", "check_power"):
        for mod in (lefschetz, harness):
            patch(mod, name, "lefschetz.decide")
    for name in ("check_power_shortcut", "check_slp_shortcut"):
        patch(harness, name, "lefschetz.decide", on_shortcut)
    patch(lefschetz, "_scan_pairs", None, on_scan_pairs)
    patch(lefschetz, "_pair_exact", None, on_matrix_pair)
    patch(lefschetz, "_pair_via_forms", None, on_matrix_pair)
    patch(lefschetz, "_build_rows", "lefschetz.build_rows", on_build_rows)
    # exact linear algebra and the rank kernels
    for mod in (exactlinalg, ideals):
        patch(mod, "row_reduce", "exactlinalg.row_reduce", on_row_reduce)
    patch(kernels, "rank_mod_rows", "kernels.rank_mod", on_rank_mod)
    patch(kernels, "rank_int_rows", "kernels.rank_exact", on_rank_exact)
    return captured


def traced_call(tracer: Tracer, fn):
    """Run ``fn`` under the root span; returns (result, wall seconds)."""
    root = tracer.open(tracer.intern(ROOT_SPAN))
    t0 = time.perf_counter()
    try:
        result = fn()
    finally:
        wall = time.perf_counter() - t0
        tracer.close(root)
    return result, wall


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, pkg, pool_workers: int, child_cpu_s: float) -> dict:
    """Per-layer metrics of the traced call(s) recorded on ``tracer``."""
    st = tracer.self_times()
    c = tracer.counters
    out: dict[str, float] = {}
    for span in LAYER_SPANS:
        entry = st.get(span, {"self_ns": 0, "calls": 0})
        out[f"{span}.self_s"] = entry["self_ns"] / 1e9
        out[f"{span}.calls"] = entry["calls"]
    root = st.get(ROOT_SPAN, {"self_ns": 0})
    out["unattributed.self_s"] = root["self_ns"] / 1e9
    out["harness.symmetry.calls"] = c["symmetry.calls"]
    out["harness.symmetry.accept_ratio"] = _ratio(c["symmetry.accepted"], c["symmetry.calls"])
    out["harness.form_rejections"] = c["form_rejections"]
    scan_s = st.get("harness.scan", {"incl_ns": 0})["incl_ns"] / 1e9
    out["harness.pool.utilization"] = _ratio(child_cpu_s, scan_s * pool_workers)
    out["lefschetz.build_rows.entries"] = c["build_rows.entries"]
    out["lefschetz.free_pair_ratio"] = _ratio(
        c["pairs.scanned"] - c["pairs.built"], c["pairs.scanned"]
    )
    out["lefschetz.shortcut_fallback_ratio"] = _ratio(c["shortcut.fallbacks"], c["shortcut.calls"])
    out["exactlinalg.row_reduce.cells"] = c["row_reduce.cells"]
    out["kernels.rank_mod.cert_ratio"] = _ratio(c["rank_mod.cert"], out["kernels.rank_mod.calls"])
    comb = pkg.combinatorics
    out["combinatorics.cache_misses"] = (
        comb.monomial_basis.cache_info().misses + comb.basis_index.cache_info().misses
    )
    return out


def child_cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def time_rank_lanes(pkg, captured: dict[str, MatrixSample], repeats: int = 5) -> dict:
    """Time the rank kernels per lane on the captured campaign matrices.

    The pure lane always runs; the compiled lane runs when ``_core`` is
    importable.  Every lane must reproduce the rank the campaign saw, so the
    lanes agree on every rank and every maximal-rank verdict.  Lanes are
    timed separately and never compared with each other.
    """
    ranks_py = pkg._ranks_py
    prime = pkg._kernels.WORD_PRIME
    lanes = {"pure": (ranks_py.rank_mod, ranks_py.rank_i64)}
    try:
        from lefschetz_props import _core
    except ImportError:
        _core = None
    if _core is not None:
        lanes["compiled"] = (_core.rank_mod, _core.rank_i64)
    out: dict = {"lanes": sorted(lanes), "mismatches": 0}
    mod_items = captured["rank_mod"].items
    exact_items = captured["rank_exact"].items
    out["matrices"] = len(mod_items) + len(exact_items)
    out["entry_bits_max"] = max(
        (abs(e).bit_length() for rows, _, _ in mod_items + exact_items for r in rows for e in r),
        default=0,
    )
    for lane, (rank_mod, rank_i64) in lanes.items():

        def exact(rows, ncols, rank_i64=rank_i64):
            # the dispatcher's retry: a 62-bit bailout (-1) reruns on big ints
            r = rank_i64(rows, ncols)
            return r if r >= 0 else ranks_py.rank_i64(rows, ncols)

        for rows, ncols, seen in mod_items:
            out["mismatches"] += rank_mod(rows, ncols, prime) != seen
        for rows, ncols, seen in exact_items:
            out["mismatches"] += exact(rows, ncols) != seen
        if lane == "compiled":
            out["compiled.bailouts"] = sum(
                rank_i64(rows, ncols) < 0 for rows, ncols, _ in exact_items
            )
        out[f"{lane}.rank_mod.us_per_call"] = _time_per_call(
            lambda: [rank_mod(rows, ncols, prime) for rows, ncols, _ in mod_items],
            len(mod_items), repeats,
        )
        out[f"{lane}.rank_exact.us_per_call"] = _time_per_call(
            lambda: [exact(rows, ncols) for rows, ncols, _ in exact_items],
            len(exact_items), repeats,
        )
    return out


def _time_per_call(batch, calls: int, repeats: int) -> float:
    if not calls:
        return 0.0
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        batch()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / calls * 1e6
