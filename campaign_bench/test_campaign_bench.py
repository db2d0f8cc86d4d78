"""Self-tests of the campaign benchmark.

    python3 -m pytest campaign_bench -q

They cover the self-time arithmetic (nested, overlapping and generator
spans), the verdict gate, and that wrapping the package's layers leaves
campaign reports unchanged.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import lefschetz_props as pkg  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from spans import Tracer, self_times  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    expected_verdict,
    load_reference,
    verdict_mismatches,
    verdict_of,
)


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_nested_self_times():
    clock = FakeClock()
    tr = Tracer(clock)
    root = tr.open(tr.intern("root"))
    clock.now = 1
    a = tr.open(tr.intern("a"))
    clock.now = 2
    b = tr.open(tr.intern("b"))
    clock.now = 3
    tr.close(b)
    clock.now = 5
    tr.close(a)
    clock.now = 6
    c = tr.open(tr.intern("c"))
    clock.now = 8
    tr.close(c)
    clock.now = 10
    tr.close(root)
    st = tr.self_times()
    assert {k: v["self_ns"] for k, v in st.items()} == {"root": 4, "a": 3, "b": 1, "c": 2}
    assert sum(v["self_ns"] for v in st.values()) == 10
    assert st["a"]["incl_ns"] == 4


def test_overlapping_children_counted_once_and_clipped():
    names = ["p", "k"]
    # parent [0, 10]; children [1, 5] and [3, 7] overlap, [9, 12] overruns
    name = [0, 1, 1, 1]
    start = [0, 1, 3, 9]
    end = [10, 5, 7, 12]
    parent = [-1, 0, 0, 0]
    st = self_times(names, name, start, end, parent)
    assert st["p"]["self_ns"] == 10 - (6 + 1)


def test_same_name_nesting_is_one_call():
    names = ["decide"]
    st = self_times(names, [0, 0, 0], [0, 1, 6], [5, 3, 8], [-1, 0, -1])
    assert st["decide"] == {"self_ns": 3 + 2 + 2, "spans": 3, "calls": 2, "incl_ns": 7}


def test_generator_spans_time_each_next():
    clock = FakeClock()
    tr = Tracer(clock)

    def inner():
        clock.now += 1

    traced_inner = tr.wrap(inner, "inner")

    def produce():
        for i in range(3):
            clock.now += 2
            traced_inner()
            yield i
        clock.now += 1

    gen = tr.wrap(produce, "gen")
    root = tr.open(tr.intern("root"))
    for _ in gen():
        clock.now += 5  # consumer's work is not the generator's
    tr.close(root)
    st = tr.self_times()
    assert st["gen"]["self_ns"] == 3 * 2 + 1
    assert st["gen"]["spans"] == 4  # three items and the final StopIteration
    assert st["inner"]["self_ns"] == 3
    assert st["root"]["self_ns"] == 3 * 5
    assert sum(v["self_ns"] for v in st.values()) == clock.now


def test_wrapper_closes_span_on_exception_and_observes_it():
    tr = Tracer()
    seen = []

    def boom():
        raise ValueError("no")

    wrapped = tr.wrap(boom, "boom", lambda res, exc, args: seen.append(exc))
    with pytest.raises(ValueError):
        wrapped()
    assert tr.stack == [] and len(tr.name) == 1 and tr.end[0] >= tr.start[0]
    assert isinstance(seen[0], ValueError)


def test_matrix_sample_thins_evenly():
    sample = layers.MatrixSample(limit=4)
    for k in range(20):
        sample.offer((k,))
    assert sample.stride == 8
    assert [item[0] for item in sample.items] == [0, 8, 16]


def test_verdict_gate_rejects_tampered_report():
    report = pkg.harness.verify_thm1(3, 3)
    expected = verdict_of(report)
    assert verdict_mismatches(expected, verdict_of(report)) == []
    report.examined += 1
    report.witnesses = []
    assert verdict_mismatches(expected, verdict_of(report)) == ["examined", "witnesses"]
    assert verdict_mismatches(None, expected) == ["no reference"]


def test_reference_covers_every_campaign_seed():
    reference = load_reference()
    thm1 = expected_verdict(reference, WORKLOADS["thm1-3-5"], None)
    assert thm1["confirmed"] and thm1["examined"] == 38923
    assert expected_verdict(reference, WORKLOADS["thm1-3-5-par"], None) == thm1
    wiebe = expected_verdict(reference, WORKLOADS["wiebe-forms"], None)
    assert wiebe["details"]["initial_ideal_slp_count"] == 99
    cross = WORKLOADS["crosscheck-3-4"]
    for seed in range(cross.seed_space):
        entry = expected_verdict(reference, cross, seed)
        assert entry["confirmed"] and entry["examined"] == cross.fixed["sample"]


CAMPAIGNS = {
    "thm1": lambda h: h.verify_thm1(3, 4),
    "thm1-pool": lambda h: h.verify_thm1(3, 4, threads=2),
    "crosscheck": lambda h: h.crosscheck_lemmas(3, 3, 40, 7),
    "wiebe": lambda h: h.wiebe_initial_ideal_check(3, (2, 3), 4, 2),
}


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_wrapping_leaves_reports_unchanged(name):
    campaign = CAMPAIGNS[name]
    plain = campaign(pkg.harness).to_dict(include_timing=False)
    originals = {
        (mod, attr): getattr(mod, attr)
        for mod in (pkg.harness, pkg.lefschetz, pkg._kernels)
        for attr in dir(mod)
        if callable(getattr(mod, attr))
    }
    tracer = Tracer()
    layers.instrument(tracer, pkg)
    try:
        traced, wall = layers.traced_call(tracer, lambda: campaign(pkg.harness))
    finally:
        tracer.restore()
    assert traced.to_dict(include_timing=False) == plain
    assert all(getattr(mod, attr) is fn for (mod, attr), fn in originals.items())
    st = tracer.self_times()
    assert st["kernels.rank_mod"]["calls"] > 0
    # every span nests in the root, so the self times add up to its duration
    assert sum(v["self_ns"] for v in st.values()) == st[layers.ROOT_SPAN]["incl_ns"]


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why and len(w["why"]) <= 200
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
