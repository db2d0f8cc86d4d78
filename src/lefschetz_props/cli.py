"""Command-line front door.

Exit codes
----------
0   property holds / verification confirmed
1   property fails / verification refuted (for verify-* campaigns a witness
    at the bound is the expected outcome and exits 0; the distinction lives
    in the JSON, not the exit code)
2   usage error, malformed input (with line/column diagnostics)
3   budget exceeded / indeterminate result

Ideal file grammar (authoritative)
----------------------------------
One generator per line; blank lines and '#' comments are skipped.

  generator   := expvec | polynomial
  expvec      := INT (WS INT)*              e.g.  "2 0 1"  for x1^2*x3
  polynomial  := [sign] term (sign term)*
  term        := coefficient '*' factors | coefficient | factors
  factors     := factor ('*' factor)*
  factor      := VAR ('^' INT)?             VAR = x1, x2, ...
  coefficient := INT | INT '/' INT

A file whose generators are all single monomials with coefficient one is a
monomial ideal; anything else is an ideal of forms, e.g. "3*x1^2 - x2*x3".
Dual elements use the same term grammar with y in place of x.  Inline
generators are comma-separated: --gens "x1^3,x2^3,x3^3,x1*x2*x3".

Campaign config files are declarative "key = value" lines with keys among
n, d, i, property, symmetry, budget, budget_entries, seed, threads, sample;
explicit command-line flags win over the config.  A subcommand reads the
keys of its own flags (budget is --budget-ideals of verify-thm1/2 and
--budget of verify-thm37; property only for verify-thm1/2) and refuses
any other key.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import harness
from .classify import forces_slp, forces_wlp, is_o_sequence
from .duality import DualElement, dual_ideal_from_support, extremal_dual
from .errors import BudgetExceededError, CapExceededError, NotArtinianError
from .ideals import MonomialIdeal, hilbert_function, is_artinian, socle_degree
from .lefschetz import (
    check_power,
    check_power_shortcut,
    check_slp,
    check_slp_shortcut,
    check_wlp,
)
from .parsing import (
    IdealSyntaxError,
    format_monomial,
    parse_dual_element,
    parse_generators,
    parse_ideal,
    parse_inline_ideal,
)
from .reporting import SCHEMA_ID, pairs_to_csv_rows

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class UsageError(ValueError):
    pass


def _load_ideal(args):
    if getattr(args, "gens", None):
        return parse_inline_ideal(args.gens, args.n)
    if getattr(args, "ideal", None):
        with open(args.ideal, encoding="utf-8") as fh:
            return parse_ideal(fh.read(), args.n)
    raise UsageError("an ideal is required: pass --ideal FILE or --gens LIST")


def _emit(payload: dict, args) -> None:
    if getattr(args, "format", "json") == "csv":
        sys.stdout.write(_to_csv(payload))
    else:
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _to_csv(payload: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if "pairs" in payload:
        for row in pairs_to_csv_rows(payload["pairs"]):
            writer.writerow(row)
        return buf.getvalue()
    if "hilbert_function" in payload:
        writer.writerow(["k", "h"])
        for k, h in enumerate(payload["hilbert_function"]):
            writer.writerow([k, h])
        return buf.getvalue()
    writer.writerow(["key", "value"])
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, (dict, list)):
            value = json.dumps(value, sort_keys=True)
        writer.writerow([key, value])
    return buf.getvalue()


def _ideal_echo(I) -> dict:
    return {"n": I.n, "generators": I.generator_strings(),
            "type": "monomial" if isinstance(I, MonomialIdeal) else "form"}


# ---------------------------------------------------------------------------
# config files


_CONFIG_KEYS = {
    "n", "d", "i", "property", "symmetry", "budget",
    "budget_entries", "seed", "threads", "sample",
}

_SWITCHES = {
    "1": True, "on": True, "true": True, "yes": True,
    "0": False, "off": False, "false": False, "no": False,
}


def _read_config(path: str) -> list:
    """The (line number, key, value) of each config line."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (s.strip() for s in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
            out.append((lineno, key, value))
    return out


def _config_value(key: str, value: str):
    """A config value parsed for its key; a ValueError says what it must be."""
    if key == "symmetry":
        if value.lower() not in _SWITCHES:
            raise ValueError(f"one of {', '.join(_SWITCHES)}")
        return _SWITCHES[value.lower()]
    if key == "property" or key == "sample" and value == "all":
        return value
    try:
        return int(value)
    except ValueError:
        raise ValueError("an integer or 'all'" if key == "sample" else "an integer") from None


def _apply_config(args) -> None:
    """Fill each flag left unset from the config file.  A key goes to the
    subcommand's own flag: ``budget`` is the ideal budget of verify-thm1/2
    and the row-set budget of verify-thm37.  A key the subcommand has no flag
    for, or a value that does not parse, is a usage error at its line."""
    if not getattr(args, "config", None):
        return
    for lineno, key, value in _read_config(args.config):
        where = f"{args.config}:{lineno}"
        dest = "budget_ideals" if key == "budget" and not hasattr(args, key) else key
        if not hasattr(args, dest):
            raise UsageError(f"{where}: {args.command} does not read config key {key!r}")
        try:
            value = _config_value(key, value)
        except ValueError as exc:
            raise UsageError(f"{where}: {key} must be {exc}, got {value!r}") from None
        if getattr(args, dest) is None:
            setattr(args, dest, value)


def _fill_defaults(args, **defaults) -> None:
    for key, value in defaults.items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_hf(args) -> int:
    I = _load_ideal(args)
    upto = args.upto
    if upto is None:
        if not is_artinian(I):
            raise UsageError("--upto is required for non-artinian ideals")
        upto = socle_degree(I) + 1
    hf = hilbert_function(I, upto)
    _emit({"schema": SCHEMA_ID, "kind": "hf", "command": "hf",
           "ideal": _ideal_echo(I), "n": I.n,
           "hilbert_function": list(hf)}, args)
    return EXIT_OK


def _cmd_socle(args) -> int:
    I = _load_ideal(args)
    e = socle_degree(I, cap=args.cap)
    _emit({"schema": SCHEMA_ID, "kind": "socle", "command": "socle",
           "ideal": _ideal_echo(I), "socle_degree": e}, args)
    return EXIT_OK


def _cmd_check(args) -> int:
    """wlp / slp / power: the parser sets ``full`` and ``shortcut`` to the
    subcommand's deciders."""
    I = _load_ideal(args)
    powers = (args.i,) if args.command == "power" else ()
    if getattr(args, "method", "full") == "shortcut":
        if not isinstance(I, MonomialIdeal):
            raise UsageError("the shortcut applies to monomial ideals; "
                             "pass --method full for an ideal of forms")
        if args.mode == "randomized":
            raise UsageError("the shortcut is exact; "
                             "pass --method full for --mode randomized")
        rep = args.shortcut(I, *powers)
    else:
        rep = args.full(I, *powers, args.mode, seed=args.seed,
                        trials=args.trials)
    payload = rep.to_dict()
    payload.update({"command": args.command, "ideal": _ideal_echo(I)})
    _emit(payload, args)
    return EXIT_OK if rep.verdict else EXIT_FAIL


def _cmd_dual(args) -> int:
    if args.f:
        n, terms = parse_dual_element(args.f, args.n)
        element = DualElement.from_terms(n, terms)
        if element.degree != args.d:
            raise UsageError(
                f"dual element has degree {element.degree}, expected {args.d}"
            )
        support = element.support_monomials()
    elif args.support:
        n, gens = parse_generators(args.support.replace(",", "\n"), "y", args.n)
        support = []
        for g in gens:
            if len(g) != 1 or g[0][1] != 1:
                raise UsageError("--support expects coefficient-one monomials")
            support.append(tuple(g[0][0].get(t, 0) for t in range(n)))
            if support[-1] in support[:-1]:
                raise UsageError("--support repeats the monomial "
                                 + format_monomial(support[-1], "y"))
    else:
        raise UsageError("pass --f EXPR or --support MONOMIALS")
    I = dual_ideal_from_support(support, n, args.d)
    payload = {
        "schema": SCHEMA_ID, "kind": "dual-ideal", "command": "dual",
        "n": n, "d": args.d,
        "support": [format_monomial(m, "y") for m in support],
        "generators": I.generator_strings(),
        "hf_d": I.hf(args.d),
        "artinian": is_artinian(I),
    }
    _emit(payload, args)
    return EXIT_OK


def _cmd_extremal(args) -> int:
    f, I = extremal_dual(args.n, args.d, args.i)
    payload = {
        "schema": SCHEMA_ID, "kind": "extremal", "command": "extremal",
        "n": args.n, "d": args.d, "i": args.i,
        "f": str(f),
        "support_size": len(f.support),
        "generators": I.generator_strings(),
        "hf_d": I.hf(args.d),
        "artinian": is_artinian(I),
    }
    _emit(payload, args)
    return EXIT_OK


def _cmd_minsupport(args) -> int:
    if args.gens or args.ideal:
        I = _load_ideal(args)
        if not isinstance(I, MonomialIdeal):
            raise UsageError("minsupport expects a monomial ideal")
    else:
        if args.n is None:
            raise UsageError("--n is required without an ideal")
        I = MonomialIdeal(args.n, [])
    found = harness.min_kernel_support(I, args.d, args.i, args.bound, budget=args.budget)
    payload = {
        "schema": SCHEMA_ID, "kind": "minsupport", "command": "minsupport",
        "n": I.n, "d": args.d, "i": args.i, "bound": args.bound,
        "min_support": found,
    }
    _emit(payload, args)
    return EXIT_OK if found is not None else EXIT_FAIL


def _parse_sequence(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError as exc:
        raise UsageError(f"bad sequence {text!r}: {exc}") from exc


def _cmd_classify(args) -> int:
    seq = _parse_sequence(args.sequence)
    try:
        forces = forces_wlp(seq) if args.property == "wlp" else forces_slp(seq)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    payload = {
        "schema": SCHEMA_ID, "kind": "classify", "command": "classify",
        "sequence": list(seq), "property": args.property, "forces": forces,
    }
    _emit(payload, args)
    return EXIT_OK if forces else EXIT_FAIL


def _cmd_osequence(args) -> int:
    seq = _parse_sequence(args.sequence)
    try:
        ok = is_o_sequence(seq)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    payload = {
        "schema": SCHEMA_ID, "kind": "osequence", "command": "osequence",
        "sequence": list(seq), "is_o_sequence": ok,
    }
    _emit(payload, args)
    return EXIT_OK if ok else EXIT_FAIL


def _emit_campaign(report, args, **fields) -> int:
    """Emit a campaign report (timing dropped under --no-timestamp) with the
    given fields set, and return its exit code."""
    payload = report.to_dict(include_timing=not args.no_timestamp)
    payload.update(fields)
    _emit(payload, args)
    if report.partial:
        return EXIT_BUDGET
    return EXIT_OK if report.confirmed else EXIT_FAIL


def _cmd_verify_bound(args) -> int:
    """verify-thm1 (WLP bound) and verify-thm2 (SLP or power bound)."""
    thm1 = args.command == "verify-thm1"
    _apply_config(args)
    expected = "wlp" if thm1 else "slp" if args.i is None else "power"
    if args.property and args.property != expected:
        raise UsageError(
            f"config property {args.property!r} does not match this subcommand "
            f"({expected})"
        )
    _fill_defaults(args, n=3, d=3, symmetry=True, threads=1,
                   budget_ideals=harness.DEFAULT_BUDGET_IDEALS,
                   budget_entries=harness.DEFAULT_BUDGET_ENTRIES)
    campaign, powers = (harness.verify_thm1, ()) if thm1 else (harness.verify_thm2, (args.i,))
    report = campaign(
        args.n, args.d, *powers, symmetry=args.symmetry, threads=args.threads,
        budget_ideals=args.budget_ideals, budget_entries=args.budget_entries,
    )
    return _emit_campaign(report, args, command=args.command)


def _cmd_verify_thm37(args) -> int:
    _apply_config(args)
    _fill_defaults(args, budget=harness.DEFAULT_RANK_BUDGET)
    report = harness.verify_thm37(args.n, args.d, args.i, budget=args.budget)
    return _emit_campaign(report, args, command="verify-thm37")


def _cmd_crosscheck(args) -> int:
    _apply_config(args)
    _fill_defaults(args, n=3, d=3, seed=harness.DEFAULT_SEED)
    sample = None if args.sample in (None, "all") else int(args.sample)
    report = harness.crosscheck_lemmas(args.n, args.d, sample, args.seed)
    return _emit_campaign(report, args, command="crosscheck", kind="crosscheck")


def _cmd_named(args) -> int:
    report = harness.named_examples()
    return _emit_campaign(report, args, command="named", kind="named-suite")


# ---------------------------------------------------------------------------
# parser


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--no-timestamp", action="store_true",
                   help="omit timing fields for byte-identical output")


def _add_ideal_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ideal", help="path to an ideal file (one generator per line)")
    p.add_argument("--gens", help="inline comma-separated generators")
    p.add_argument("--n", type=int, help="arity override (inferred when omitted)")


def _add_check_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=("auto", "exact", "randomized"), default="auto")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trials", type=int, default=3)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lefprop",
        description="Exact deciders and verification campaigns for Lefschetz "
                    "properties",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hf", help="Hilbert function of a quotient")
    _add_ideal_flags(p)
    p.add_argument("--upto", type=int)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_hf)

    p = sub.add_parser("socle", help="socle degree of an artinian quotient")
    _add_ideal_flags(p)
    p.add_argument("--cap", type=int)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_socle)

    p = sub.add_parser("wlp", help="weak Lefschetz property check")
    _add_ideal_flags(p)
    _add_check_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_check, full=check_wlp)

    p = sub.add_parser("slp", help="strong Lefschetz property check")
    _add_ideal_flags(p)
    _add_check_flags(p)
    p.add_argument("--method", choices=("full", "shortcut"), default="full")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_check, full=check_slp, shortcut=check_slp_shortcut)

    p = sub.add_parser("power", help="maximal rank of a fixed power map")
    _add_ideal_flags(p)
    p.add_argument("--i", type=int, required=True)
    _add_check_flags(p)
    p.add_argument("--method", choices=("shortcut", "full"), default="shortcut")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_check, full=check_power, shortcut=check_power_shortcut)

    p = sub.add_parser("dual", help="ideal dual to a degree-d support")
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--f", help="dual element, e.g. 'y1*y2^2 - 2*y1*y2*y3'")
    p.add_argument("--support", help="comma-separated dual monomials")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("extremal", help="extremal dual element and its ideal")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("minsupport", help="minimal kernel support search")
    _add_ideal_flags(p)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--budget", type=int, default=harness.DEFAULT_RANK_BUDGET)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_minsupport)

    p = sub.add_parser("classify", help="does this Hilbert function force WLP/SLP?")
    p.add_argument("--sequence", required=True)
    p.add_argument("--property", choices=("wlp", "slp"), required=True)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("osequence", help="Hilbert-function admissibility")
    p.add_argument("--sequence", required=True)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_osequence)

    for name, with_i in (("verify-thm1", False), ("verify-thm2", True)):
        p = sub.add_parser(name, help=f"{name.replace('-', ' ')} bound campaign")
        p.add_argument("--n", type=int)
        p.add_argument("--d", type=int)
        if with_i:
            p.add_argument("--i", type=int)
        p.add_argument("--symmetry", dest="symmetry", action="store_true", default=None)
        p.add_argument("--no-symmetry", dest="symmetry", action="store_false", default=None)
        p.add_argument("--threads", type=int)
        p.add_argument("--budget-ideals", dest="budget_ideals", type=int)
        p.add_argument("--budget-entries", dest="budget_entries", type=int)
        p.add_argument("--config", help="campaign config file (key = value lines)")
        _add_output_flags(p)
        # ``property`` has no flag; only a config sets it
        p.set_defaults(func=_cmd_verify_bound, property=None)

    p = sub.add_parser("verify-thm37", help="minimal kernel support bound campaign")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--budget", type=int)
    p.add_argument("--config")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_verify_thm37)

    p = sub.add_parser("crosscheck", help="shortcut vs full decider agreement")
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--sample", help="sample size, or 'all'")
    p.add_argument("--seed", type=int)
    p.add_argument("--config")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_crosscheck)

    p = sub.add_parser("named", help="canonical example suite")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_named)

    return parser


def run(argv) -> int:
    """Parse argv, dispatch, and return the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (UsageError, IdealSyntaxError, NotArtinianError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BudgetExceededError, CapExceededError) as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
