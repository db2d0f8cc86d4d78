"""Text grammar for ideals and dual elements, with positioned diagnostics.

One generator per line.  A line is either a whitespace-separated exponent
vector ("2 0 1"), or a signed sum of terms where each term is an optional
integer or rational coefficient joined by '*' to variable factors like
"x1^2*x3" ("3*x1^2 - 1/2*x2*x3").  Dual elements use the same term grammar
with y in place of x.  Lines starting with '#' and blank lines are skipped.
Errors carry 1-based line and column numbers.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .combinatorics import Monomial
from .ideals import FormIdeal, MonomialIdeal


class IdealSyntaxError(ValueError):
    """Parse failure with a 1-based source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


_TOKEN = re.compile(
    r"""(?P<ws>\s+)
      | (?P<num>\d+)
      | (?P<var>[A-Za-z]\d+)
      | (?P<op>[\^*/+-])
    """,
    re.VERBOSE,
)


def _tokenize(text: str, lineno: int):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise IdealSyntaxError(f"unexpected character {text[pos]!r}", lineno, pos + 1)
        if m.lastgroup != "ws":
            out.append((m.lastgroup, m.group(), pos + 1))
        pos = m.end()
    return out


def _parse_terms(text: str, lineno: int, letter: str) -> list[tuple[dict, Fraction]]:
    """Parse a signed sum of coefficient-monomial terms.

    Returns (exponent map, coefficient) pairs; arity is resolved later from
    the largest variable index seen across the whole input.
    """
    tokens = _tokenize(text, lineno)
    if not tokens:
        raise IdealSyntaxError("empty generator", lineno, 1)
    terms: list[tuple[dict, Fraction]] = []
    k = 0

    def peek():
        return tokens[k] if k < len(tokens) else (None, "", len(text) + 1)

    while k < len(tokens):
        sign = 1
        kind, val, col = peek()
        while kind == "op" and val in "+-":
            if val == "-":
                sign = -sign
            k += 1
            kind, val, col = peek()
        if kind is None:
            raise IdealSyntaxError("dangling sign", lineno, col)
        coeff = Fraction(sign)
        exps: dict[int, int] = {}
        saw_factor = False
        expect_factor = True
        while True:
            kind, val, col = peek()
            if kind == "num":
                num = int(val)
                k += 1
                kind2, val2, col2 = peek()
                if kind2 == "op" and val2 == "/":
                    k += 1
                    kind3, val3, col3 = peek()
                    if kind3 != "num":
                        raise IdealSyntaxError("expected denominator", lineno, col3)
                    if int(val3) == 0:
                        raise IdealSyntaxError("zero denominator", lineno, col3)
                    coeff *= Fraction(num, int(val3))
                    k += 1
                else:
                    coeff *= num
                saw_factor = True
            elif kind == "var":
                if val[0] != letter:
                    raise IdealSyntaxError(
                        f"expected variable {letter}<k>, got {val!r}", lineno, col
                    )
                idx = int(val[1:])
                if idx < 1:
                    raise IdealSyntaxError("variable indices start at 1", lineno, col)
                k += 1
                power = 1
                kind2, val2, _ = peek()
                if kind2 == "op" and val2 == "^":
                    k += 1
                    kind3, val3, col3 = peek()
                    if kind3 != "num":
                        raise IdealSyntaxError("expected exponent", lineno, col3)
                    power = int(val3)
                    k += 1
                exps[idx - 1] = exps.get(idx - 1, 0) + power
                saw_factor = True
            elif expect_factor:
                raise IdealSyntaxError("expected coefficient or variable", lineno, col)
            else:
                break
            kind, val, col = peek()
            if kind == "op" and val == "*":
                k += 1
                expect_factor = True
            else:
                expect_factor = False
                break
        if not saw_factor:
            raise IdealSyntaxError("empty term", lineno, col)
        kind, val, col = peek()
        if kind is not None and not (kind == "op" and val in "+-"):
            raise IdealSyntaxError(f"unexpected token {val!r}", lineno, col)
        terms.append((exps, coeff))
    return terms


_EXPVEC = re.compile(r"^\s*\d+(\s+\d+)*\s*$")


def parse_generators(
    text: str, letter: str = "x", arity: int | None = None
) -> tuple[int, list[list[tuple[dict, Fraction]]]]:
    """Parse generator lines into term lists; returns (arity, generators)."""
    parsed: list[tuple[int, object]] = []
    width = None
    max_index = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if _EXPVEC.match(line) and len(line.split()) > 1:
            vec = tuple(int(tok) for tok in line.split())
            if width is None:
                width = len(vec)
            elif len(vec) != width:
                raise IdealSyntaxError(
                    f"exponent vector of length {len(vec)}, expected {width}",
                    lineno,
                    1,
                )
            parsed.append((lineno, vec))
        else:
            terms = _parse_terms(line, lineno, letter)
            for exps, _ in terms:
                if exps:
                    max_index = max(max_index, max(exps) + 1)
            parsed.append((lineno, terms))
    if not parsed:
        raise IdealSyntaxError("no generators found", 1, 1)
    n = arity if arity is not None else max(width or 0, max_index)
    if n < 1:
        raise IdealSyntaxError("could not infer arity; pass it explicitly", 1, 1)
    if width is not None and width != n:
        raise IdealSyntaxError(f"exponent vectors have length {width}, arity is {n}", 1, 1)
    gens = []
    for lineno, item in parsed:
        if isinstance(item, tuple):
            gens.append([({t: e for t, e in enumerate(item) if e}, Fraction(1))])
        else:
            for exps, _ in item:
                if exps and max(exps) >= n:
                    raise IdealSyntaxError(
                        f"variable index {max(exps) + 1} exceeds arity {n}", lineno, 1
                    )
            gens.append(item)
    return n, gens


def _to_monomial(exps: dict, n: int) -> Monomial:
    return tuple(exps.get(t, 0) for t in range(n))


def parse_ideal(text: str, arity: int | None = None):
    """Parse an ideal file; monomial when every generator is a single term
    with coefficient +1, a FormIdeal otherwise."""
    n, gens = parse_generators(text, "x", arity)
    monomial = all(len(g) == 1 and g[0][1] == 1 for g in gens)
    if monomial:
        return MonomialIdeal(n, [_to_monomial(g[0][0], n) for g in gens])
    polys = []
    for g in gens:
        acc: dict[Monomial, Fraction] = {}
        for exps, coeff in g:
            mon = _to_monomial(exps, n)
            acc[mon] = acc.get(mon, Fraction(0)) + coeff
        polys.append(acc)
    return FormIdeal(n, polys)


def parse_inline_ideal(spec: str, arity: int | None = None):
    """Comma-separated generators, e.g. "x1^3,x2^3,x3^3,x1*x2*x3"."""
    return parse_ideal(spec.replace(",", "\n"), arity)


def parse_dual_element(text: str, arity: int | None = None):
    """Parse a dual element written in y-variables; returns (arity, terms)."""
    n, gens = parse_generators(text, "y", arity)
    if len(gens) != 1:
        raise IdealSyntaxError("expected a single dual element", 1, 1)
    acc: dict[Monomial, Fraction] = {}
    for exps, coeff in gens[0]:
        mon = _to_monomial(exps, n)
        acc[mon] = acc.get(mon, Fraction(0)) + coeff
    return n, acc


def format_monomial(m: Monomial, letter: str = "x") -> str:
    """Inverse of the monomial grammar: (2,0,1) -> "x1^2*x3"."""
    parts = []
    for t, e in enumerate(m):
        if e == 1:
            parts.append(f"{letter}{t + 1}")
        elif e > 1:
            parts.append(f"{letter}{t + 1}^{e}")
    return "*".join(parts) if parts else "1"


def format_terms(items, letter: str = "x") -> str:
    """Signed-sum form of (monomial, coefficient) pairs."""
    out = []
    for mon, coeff in items:
        coeff = Fraction(coeff)
        mag = abs(coeff)
        mstr = format_monomial(mon, letter)
        if mstr == "1":
            body = str(mag)
        elif mag == 1:
            body = mstr
        else:
            body = f"{mag}*{mstr}"
        if not out:
            out.append(body if coeff > 0 else f"-{body}")
        else:
            out.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(out) if out else "0"
