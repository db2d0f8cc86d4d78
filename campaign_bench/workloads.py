"""Campaign workloads, their reasons, and the verdict gate.

Each workload is one public ``lefschetz_props.harness`` campaign at a fixed
size.  The benchmark seed picks the campaign seeds of a seeded workload from
a recorded range (``seed_space``), so every call has a reference verdict in
``reference.json``.

``shares`` are the layer self-time shares of one traced run (pure kernel
lane, 2 shared vCPUs at 2.1 GHz, Python 3.11; tracing adds about 20%), and
``expect`` says which changes should move the workload and which should
leave it flat.  Re-measure the shares with ``run.py --trace 1`` after a
change to the layers.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Report fields a verdict consists of; timing fields are left out.
VERDICT_FIELDS = (
    "confirmed", "examined", "partial", "min_failing_hf",
    "failures", "witnesses", "details",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str                       # one line, also in BENCHMARK.json
    shares: str                    # measured layer self-time shares
    expect: str                    # which changes should move it, which not
    campaign: str                  # harness function the workload calls
    fixed: dict = field(default_factory=dict)
    seed_space: int = 0            # 0: the campaign takes no seed
    reference: str = ""            # reference entry, when shared
    pool: int = 0                  # worker processes the campaign starts

    def campaign_seeds(self, seed: int):
        """Endless seed-determined order of campaign seeds (None if unseeded)."""
        if not self.seed_space:
            while True:
                yield None
        order = random.Random(seed).sample(range(self.seed_space), self.seed_space)
        while True:
            yield from order

    def run(self, harness, campaign_seed: int | None):
        kwargs = dict(self.fixed)
        if campaign_seed is not None:
            kwargs["seed"] = campaign_seed
        return getattr(harness, self.campaign)(**kwargs)

    def reference_key(self) -> str:
        return self.reference or self.name


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="thm1-3-5",
            why="Exhaustive WLP campaign through the whole monomial pipeline; "
                "no layer dominates, so bitmask-campaign work must show here.",
            shares="hf/socle 22%, MonomialIdeal 18%, rank_mod 18%, deciders 14%, "
                   "build_rows 12%, symmetry 8%, enumeration 4%, ideal_from_mask "
                   "2%; 38,923 ideals, 230,971 symmetry tests, 99,179 rank_mod "
                   "calls, one exact rank call, no form-path work",
            expect="moves with bitmask campaigns (ROADMAP 2) and the mod-p "
                   "pre-check (5); flat under form-path work (3)",
            campaign="verify_thm1",
            fixed={"n": 3, "d": 5, "symmetry": True, "threads": 1},
        ),
        Workload(
            name="thm1-3-5-par",
            why="The same campaign with threads=2: the only workload that runs "
                "the process-pool chunk/merge path, so pool changes are measured.",
            shares="parent side only: waiting on the pool 80%, symmetry 14%, "
                   "enumeration 6%; pool utilization 0.75 of 2 workers",
            expect="moves with pool changes (ROADMAP 4a/4b) and with thm1-3-5's "
                   "layers; flat under form-path work (3)",
            campaign="verify_thm1",
            fixed={"n": 3, "d": 5, "symmetry": True, "threads": 2},
            reference="thm1-3-5",
            pool=2,
        ),
        Workload(
            name="crosscheck-3-4",
            why="Full SLP without early stop on higher powers: rank_mod and "
                "build_rows dominate, exact rank runs, no symmetry; a mod-p "
                "pre-check change can help thm1 and hurt this one.",
            shares="rank_mod 41%, build_rows 23%, deciders 22%, hf 8%, "
                   "MonomialIdeal 3%; 535 of 54k rank calls exact, 56% of "
                   "shortcut calls fall back, no enumeration or symmetry",
            expect="moves with the mod-p pre-check and check-engine work "
                   "(ROADMAP 5) and matrix building; flat under symmetry and "
                   "enumeration changes",
            campaign="crosscheck_lemmas",
            fixed={"n": 3, "d": 4, "sample": 2048},
            seed_space=64,
        ),
        Workload(
            name="wiebe-forms",
            why="Form-ideal path: Fraction row_reduce dominates and enumeration, "
                "symmetry and MonomialIdeal are bypassed; the control workload "
                "for monomial-only changes.",
            shares="row_reduce 97% (281 calls), reduce_mod_piece 1%; one "
                   "non-artinian draw walks is_artinian to the socle cap and "
                   "takes most of the call",
            expect="moves with the integer-only form path (ROADMAP 3); flat "
                   "under bitmask, symmetry and pool changes",
            campaign="wiebe_initial_ideal_check",
            # The campaign seed stays fixed: from one seed to the next the
            # call's cost varies tenfold with whether a non-artinian draw
            # occurs, which no affordable run length averages out.
            fixed={"n": 3, "degrees": (2, 3), "samples": 100, "seed": 1},
        ),
    )
}


def verdict_of(report) -> dict:
    """The report's verdict fields, normalized through JSON."""
    full = report.to_dict(include_timing=False)
    return json.loads(json.dumps({k: full[k] for k in VERDICT_FIELDS}))


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def expected_verdict(reference: dict, workload: Workload, campaign_seed) -> dict | None:
    entries = reference.get(workload.reference_key(), {})
    return entries.get("any" if campaign_seed is None else str(campaign_seed))


def verdict_mismatches(expected: dict | None, got: dict) -> list[str]:
    """Names of verdict fields that differ from the reference (empty: pass)."""
    if expected is None:
        return ["no reference"]
    return [k for k in VERDICT_FIELDS if expected.get(k) != got.get(k)]
