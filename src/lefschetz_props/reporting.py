"""Report types and the versioned JSON layout they serialize to.

Every JSON document carries ``schema = "lefschetz-report/1"`` plus a ``kind``
discriminator.  ``JSON_SCHEMAS`` maps each kind to a JSON-Schema fragment the
test suite validates emitted documents against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

SCHEMA_ID = "lefschetz-report/1"

PAIR_FIELDS = ("i", "j", "dim_source", "dim_target", "rank", "maximal")


class PairRecord(NamedTuple):
    """One multiplication map: power i from degree j to degree j+i.

    A named tuple, because campaigns make several per ideal and a tuple is
    cheap to build: fields follow ``PAIR_FIELDS``, cannot be assigned, and
    equal records hash equal."""

    i: int
    j: int
    dim_source: int
    dim_target: int
    rank: int
    maximal: bool

    def to_dict(self) -> dict:
        return {
            "i": self.i,
            "j": self.j,
            "dim_source": self.dim_source,
            "dim_target": self.dim_target,
            "rank": self.rank,
            "maximal": self.maximal,
        }


@dataclass
class LefschetzReport:
    """Verdict of a Lefschetz-property check with per-map evidence.

    ``verdict`` is the conjunction of per-pair maximality over the recorded
    pairs; ``witness`` is present exactly when the verdict is false and names
    the first failing pair in the order the pairs were tested (lexicographic
    (i, j) for full checks, the single lemma pair for shortcuts).
    """

    property: str                    # "WLP" | "SLP" | "power"
    verdict: bool
    method: str                      # "full" | "shortcut" (a fallback runs "full")
    mode: str                        # "exact" | "randomized"
    pairs: tuple[PairRecord, ...]
    witness: tuple[int, int] | None = None
    power: int | None = None
    ell: tuple | None = None         # coefficients, exact mode
    seeds: tuple[int, ...] = ()      # per-trial seeds, randomized mode
    trials: int = 0
    fallback: bool = False

    def to_dict(self) -> dict:
        out = {
            "schema": SCHEMA_ID,
            "kind": "lefschetz-check",
            "property": self.property,
            "verdict": self.verdict,
            "method": self.method,
            "mode": self.mode,
            "pairs": [p.to_dict() for p in self.pairs],
            "witness": (
                None if self.witness is None
                else {"i": self.witness[0], "j": self.witness[1]}
            ),
            "fallback": self.fallback,
        }
        if self.power is not None:
            out["power"] = self.power
        if self.ell is not None:
            out["ell"] = list(self.ell)
        if self.mode == "randomized":
            out["seeds"] = list(self.seeds)
            out["trials"] = self.trials
        return out


@dataclass
class VerificationReport:
    """Outcome of one harness campaign."""

    campaign: str
    params: dict
    confirmed: bool
    examined: int = 0
    expected_bound: int | None = None
    min_failing_hf: int | None = None
    witnesses: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    details: dict = field(default_factory=dict)
    partial: bool = False
    elapsed_seconds: float | None = None

    def to_dict(self, include_timing: bool = True) -> dict:
        out = {
            "schema": SCHEMA_ID,
            "kind": "verify-campaign",
            "campaign": self.campaign,
            "params": self.params,
            "confirmed": self.confirmed,
            "examined": self.examined,
            "expected_bound": self.expected_bound,
            "min_failing_hf": self.min_failing_hf,
            "witnesses": self.witnesses,
            "failures": self.failures,
            "details": self.details,
            "partial": self.partial,
        }
        if include_timing and self.elapsed_seconds is not None:
            out["elapsed_seconds"] = self.elapsed_seconds
        return out


_PAIR_SCHEMA = {
    "type": "object",
    "required": list(PAIR_FIELDS),
    "properties": {
        "i": {"type": "integer"},
        "j": {"type": "integer"},
        "dim_source": {"type": "integer", "minimum": 0},
        "dim_target": {"type": "integer", "minimum": 0},
        "rank": {"type": "integer", "minimum": 0},
        "maximal": {"type": "boolean"},
    },
}

_BASE_REQUIRED = ["schema", "kind"]

JSON_SCHEMAS: dict[str, dict] = {
    "lefschetz-check": {
        "type": "object",
        "required": _BASE_REQUIRED + ["property", "verdict", "method", "mode", "pairs", "witness"],
        "properties": {
            "schema": {"const": SCHEMA_ID},
            "kind": {"const": "lefschetz-check"},
            "property": {"enum": ["WLP", "SLP", "power"]},
            "verdict": {"type": "boolean"},
            "method": {"type": "string"},
            "mode": {"enum": ["exact", "randomized"]},
            "pairs": {"type": "array", "items": _PAIR_SCHEMA},
            "witness": {
                "oneOf": [
                    {"type": "null"},
                    {
                        "type": "object",
                        "required": ["i", "j"],
                        "properties": {"i": {"type": "integer"}, "j": {"type": "integer"}},
                    },
                ]
            },
            "fallback": {"type": "boolean"},
            "power": {"type": "integer"},
            "ell": {"type": "array", "items": {"type": ["integer", "string"]}},
            "seeds": {"type": "array", "items": {"type": "integer"}},
            "trials": {"type": "integer"},
        },
    },
    "verify-campaign": {
        "type": "object",
        "required": _BASE_REQUIRED + ["campaign", "params", "confirmed", "examined"],
        "properties": {
            "schema": {"const": SCHEMA_ID},
            "kind": {"const": "verify-campaign"},
            "campaign": {"type": "string"},
            "params": {"type": "object"},
            "confirmed": {"type": "boolean"},
            "examined": {"type": "integer", "minimum": 0},
            "expected_bound": {"type": ["integer", "null"]},
            "min_failing_hf": {"type": ["integer", "null"]},
            "witnesses": {"type": "array"},
            "failures": {"type": "array"},
            "details": {"type": "object"},
            "partial": {"type": "boolean"},
            "elapsed_seconds": {"type": "number"},
        },
    },
    "hf": {
        "type": "object",
        "required": _BASE_REQUIRED + ["n", "hilbert_function"],
        "properties": {
            "schema": {"const": SCHEMA_ID},
            "kind": {"const": "hf"},
            "n": {"type": "integer"},
            "hilbert_function": {"type": "array", "items": {"type": "integer"}},
        },
    },
    "socle": {
        "type": "object",
        "required": _BASE_REQUIRED + ["socle_degree"],
        "properties": {"socle_degree": {"type": "integer"}},
    },
    "classify": {
        "type": "object",
        "required": _BASE_REQUIRED + ["sequence", "property", "forces"],
        "properties": {
            "sequence": {"type": "array", "items": {"type": "integer"}},
            "property": {"enum": ["wlp", "slp"]},
            "forces": {"type": "boolean"},
        },
    },
    "osequence": {
        "type": "object",
        "required": _BASE_REQUIRED + ["sequence", "is_o_sequence"],
        "properties": {
            "sequence": {"type": "array", "items": {"type": "integer"}},
            "is_o_sequence": {"type": "boolean"},
        },
    },
    "dual-ideal": {
        "type": "object",
        "required": _BASE_REQUIRED + ["n", "d", "generators", "hf_d", "artinian"],
        "properties": {
            "generators": {"type": "array", "items": {"type": "string"}},
            "hf_d": {"type": "integer"},
            "artinian": {"type": "boolean"},
        },
    },
    "extremal": {
        "type": "object",
        "required": _BASE_REQUIRED + ["n", "d", "i", "f", "support_size", "generators", "hf_d"],
        "properties": {
            "f": {"type": "string"},
            "support_size": {"type": "integer"},
            "generators": {"type": "array", "items": {"type": "string"}},
            "hf_d": {"type": "integer"},
        },
    },
    "minsupport": {
        "type": "object",
        "required": _BASE_REQUIRED + ["n", "d", "i", "bound", "min_support"],
        "properties": {
            "min_support": {"type": ["integer", "null"]},
            "bound": {"type": "integer"},
        },
    },
    "crosscheck": {
        "type": "object",
        "required": _BASE_REQUIRED + ["campaign", "confirmed", "examined", "details"],
        "properties": {
            "confirmed": {"type": "boolean"},
            "examined": {"type": "integer"},
        },
    },
    "named-suite": {
        "type": "object",
        "required": _BASE_REQUIRED + ["campaign", "confirmed", "details"],
        "properties": {"confirmed": {"type": "boolean"}},
    },
}


def pairs_to_csv_rows(pairs) -> list[list[str]]:
    """Header plus one row per pair record, for --format csv output."""
    rows = [list(PAIR_FIELDS)]
    for p in pairs:
        d = p.to_dict() if isinstance(p, PairRecord) else p
        rows.append([str(d[k]).lower() if k == "maximal" else str(d[k]) for k in PAIR_FIELDS])
    return rows


def pairs_from_csv_rows(rows) -> list[PairRecord]:
    """Inverse of pairs_to_csv_rows; used by the round-trip tests."""
    header, *body = rows
    if list(header) != list(PAIR_FIELDS):
        raise ValueError("unexpected CSV header")
    out = []
    for row in body:
        d = dict(zip(PAIR_FIELDS, row))
        out.append(
            PairRecord(
                i=int(d["i"]),
                j=int(d["j"]),
                dim_source=int(d["dim_source"]),
                dim_target=int(d["dim_target"]),
                rank=int(d["rank"]),
                maximal=d["maximal"] == "true",
            )
        )
    return out
