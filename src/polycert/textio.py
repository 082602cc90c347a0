"""Text formats: polynomial expressions and certificate files.

Polynomial grammar (explicit '*' between factors; juxtaposition is not
allowed because multi-character variable names would make it ambiguous)::

    poly   := ['+'|'-'] term (('+'|'-') term)*
    term   := coeff ('*' factor)*  |  factor ('*' factor)*
    factor := var ('^' nat)?
    coeff  := nat | nat '/' nat

Certificate files are line-oriented UTF-8 with exact section labels::

    vars: p q x y z
    order: grlex
    N: 2
    f: <poly>
    lambda[1]: <poly>
    g[1]: <poly>
    lambda[2]: <poly>
    g[2]: <poly>

N is written in ASCII digits.  Blank lines and lines starting with '#' are
ignored.  Long polynomials may continue on following lines until the next
label.

:func:`parse_poly` reads the text left to right.  A canonical term, written
as :func:`print_poly` writes it, takes one match of a pattern compiled once
per variable set, and its exponents are looked up in C.  At the first term
that pattern does not take whole, the general scan (term head, factor, '*'
patterns) picks up and reads the rest of the text; it accepts the whole
grammar and is the only source of :class:`ParseError`, each with a
position.  Coefficients are exact at any length: digit strings and integers
beyond the interpreter's int-string digit limit are converted in pieces,
without changing the limit.

:func:`print_poly` looks each exponent's factor text up in a per-variable
table (:func:`_factor_tables`, cached per variable set and bounded like the
parser's exponent table) and joins a term's factors in C.

Reading term streams: :func:`read_sorted` rejects a zero coefficient and
hands the stream to :func:`~polycert.poly.poly_from_terms`, whose sort
makes exactly n-1 comparisons on a strictly decreasing stream and also
takes any other; :func:`read_naive` is the quadratic read-and-add baseline
kept for benchmarks.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from . import poly
from .errors import CertificateFormatError, FormatError, ParseError
from .monomial import ExponentVector, MonomialOrder, VariableSet
from .monomial import ev_make, ev_unchecked
from .poly import Coefficient, Polynomial, Term, poly_from_terms
from .verifier import Certificate

# A term is a head (sign, integer, '/' denominator; each optional), then
# factors joined by '*'.  Each pattern ends past trailing whitespace, so the
# scan position always sits on a token or at the end of the text.
_HEAD = re.compile(r"\s*([+-]?)\s*(?:([0-9]+)\s*(?:(/)\s*([0-9]*))?)?\s*")
_FACTOR = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*(?:(\^)\s*([0-9]*))?\s*")
_STAR = re.compile(r"\*\s*")
_TOKEN = re.compile(r"([0-9]+)|[A-Za-z_][A-Za-z0-9_]*|[+\-*/^()]")


def _int(digits: str) -> int:
    """int(digits) for a nonempty digit string, exact beyond the int-string
    digit limit: a string over the limit is read as two halves."""
    try:
        return int(digits)
    except ValueError:
        half = len(digits) // 2
        return _int(digits[:half]) * 10 ** (len(digits) - half) + _int(digits[half:])


def _str(n: int) -> str:
    """str(n), exact beyond the int-string digit limit: a number over the
    limit is printed as two halves."""
    try:
        return str(n)
    except ValueError:
        if n < 0:
            return "-" + _str(-n)
        half = n.bit_length() * 3 // 20  # about half of n's digits
        high, low = divmod(n, 10**half)
        return _str(high) + _str(low).zfill(half)


def format_coeff(c: Coefficient) -> str:
    """``str(c)`` for an integer or a fraction, exact at any length."""
    if c.denominator == 1:
        return _str(c.numerator)
    return f"{_str(c.numerator)}/{_str(c.denominator)}"


def _error(text: str, at: int, expected: str, got: bool = False) -> ParseError:
    """The error for the token at ``at`` where ``expected`` was wanted."""
    tok = _TOKEN.match(text, at)
    if tok is None and at < len(text):
        return ParseError(f"unexpected character {text[at]!r}", at)
    if got:
        expected += f", got {_str(_int(tok[1])) if tok[1] else repr(tok[0])}"
    return ParseError(expected, at)


@lru_cache(maxsize=64)
def _term_pattern(names: tuple[str, ...]) -> re.Pattern:
    """One canonical term over `names`, as :func:`print_poly` writes it.

    Groups: sign, numerator, denominator, then one factor group per
    variable, in variable order.  A factor is ``v`` or ``v^digits`` with no
    spaces or non-ASCII digits; a '*' comes before it exactly when a
    coefficient or another factor does, and a lookahead ends each name, so
    ``x`` does not start on ``x1``.  The term starts at a letter, digit or
    '_' and the match ends past trailing whitespace at a sign or at the end
    of the text, so it takes a term whole or not at all, and never matches
    empty.  Every name is an ASCII identifier (:class:`VariableSet`), so
    no name needs escaping."""
    factors = "".join(
        r"(?:(?:(?<=[A-Za-z0-9_])\*|(?<![A-Za-z0-9_]))"
        rf"({name}(?![A-Za-z0-9_])(?:\^[0-9]+)?))?"
        for name in names
    )
    return re.compile(
        r"\s*([+-]?)\s*(?=[A-Za-z0-9_])(?:([0-9]+)(?:/(0*[1-9][0-9]*))?)?"
        + factors
        + r"\s*(?=[+-]|\Z)"
    )


_TABLE_SIZE = 4096  # most entries kept by a factor table


class _Exponents(dict):
    """Factor text -> exponent: None -> 0, "x" -> 1, "x^12" -> 12.  A miss
    is converted and, while the table is small, kept."""

    def __missing__(self, factor: str) -> int:
        caret = factor.find("^")
        e = 1 if caret < 0 else _int(factor[caret + 1 :])
        if len(self) < _TABLE_SIZE and len(factor) < 64:
            self[factor] = e
        return e


_EXPONENTS = _Exponents({None: 0})


def parse_poly(text: str, varset: VariableSet, order: MonomialOrder) -> Polynomial:
    """Parse a polynomial expression over the given variables.

    Canonical terms take one match each; the general scan reads the text
    from the first term that is not canonical to the end."""
    if not text.strip():
        raise ParseError("empty polynomial text", 0)
    term = _term_pattern(varset.names).match
    exponent = _EXPONENTS.__getitem__
    pairs: list[tuple[ExponentVector, Coefficient]] = []
    pos, end = 0, len(text)
    while pos < end and (m := term(text, pos)):
        groups = m.groups()
        sign, num, den = groups[:3]
        coeff: Coefficient = 1 if num is None else _int(num)
        if den:
            coeff = Fraction(coeff, _int(den))
        if sign == "-":
            coeff = -coeff
        exps = tuple(map(exponent, groups[3:]))
        pairs.append((ev_unchecked(exps, sum(exps)), coeff))
        pos = m.end()
    if pos < end:
        _scan(text, pos, varset, pairs)
    return poly_from_terms(order, pairs)


def _scan(text: str, pos: int, varset: VariableSet, pairs: list) -> None:
    """The general grammar: append the terms of ``text[pos:]`` to `pairs`,
    or raise :class:`ParseError` at the first malformed token."""
    index = {name: i for i, name in enumerate(varset.names)}
    while pos < len(text):
        head = _HEAD.match(text, pos)
        sign, num, slash, den = head.groups()
        if pairs and not sign:
            raise _error(text, pos, "expected '+' or '-'", got=True)
        coeff: Coefficient = 1 if num is None else _int(num)
        if slash:
            if not den:
                raise _error(text, head.start(4), "expected a number")
            if not (d := _int(den)):
                raise ParseError("zero denominator", head.start(4))
            coeff = Fraction(coeff, d)
        if sign == "-":
            coeff = -coeff
        exps = [0] * len(index)
        pos = head.end()
        star = num is not None  # after a coefficient, each factor needs a '*'
        expected = "expected a coefficient or variable"
        while not star or (s := _STAR.match(text, pos)):
            if star:
                pos, expected = s.end(), "expected a variable"
            factor = _FACTOR.match(text, pos)
            if factor is None:
                raise _error(text, pos, expected)
            name, caret, e = factor.groups()
            if name not in index:
                raise ParseError(f"unknown variable {name!r}", pos)
            if caret and not e:
                raise _error(text, factor.start(3), "expected a number")
            exps[index[name]] += _int(e) if caret else 1
            pos, star = factor.end(), True
        pairs.append((ev_make(exps), coeff))


class _Factors(dict):
    """Exponent -> the factor text that follows a coefficient or factor:
    0 -> "", 1 -> "*x", 12 -> "*x^12".  A miss is printed and, while the
    table is small, kept."""

    def __init__(self, name: str) -> None:
        super().__init__({0: "", 1: "*" + name})
        self.name = name

    def __missing__(self, e: int) -> str:
        digits = _str(e)
        factor = f"*{self.name}^{digits}"
        if len(self) < _TABLE_SIZE and len(digits) < 64:
            self[e] = factor
        return factor


@lru_cache(maxsize=64)
def _factor_tables(names: tuple[str, ...]) -> tuple[_Factors, ...]:
    return tuple(map(_Factors, names))


def print_poly(p: Polynomial, varset: VariableSet) -> str:
    """Canonical descending text; reparses to an equal polynomial.

    Each variable's factor text is looked up, in C, in a table of that
    variable's exponents (:func:`_factor_tables`)."""
    if not p.terms:
        return "0"
    tables, factor = _factor_tables(varset.names), dict.__getitem__
    chunks = []  # one string per term, so the peak stays one object a term
    for t in p.terms:
        c = t.coeff
        mono = "".join(map(factor, tables, t.degrees.exponents))  # "*x^2*y"
        if c < 0:
            sign, c = " - ", -c
        else:
            sign = " + "
        if c != 1 or not mono:
            chunks.append(f"{sign}{format_coeff(c)}{mono}")
        else:
            chunks.append(f"{sign}{mono[1:]}")
    first = chunks[0]
    chunks[0] = f"-{first[3:]}" if first[1] == "-" else first[3:]
    return "".join(chunks)


def read_sorted(
    stream: Iterable[tuple[ExponentVector, Coefficient]], order: MonomialOrder
) -> Polynomial:
    """Build a polynomial from a term stream, in n-1 comparisons when sorted."""
    pairs = list(stream)
    if any(c == 0 for _, c in pairs):
        raise FormatError("zero coefficient in term stream")
    return poly_from_terms(order, pairs)


def read_naive(
    stream: Iterable[tuple[ExponentVector, Coefficient]], order: MonomialOrder
) -> Polynomial:
    """Read-a-term, add-it-to-the-polynomial baseline (quadratic on sorted input)."""
    acc = poly.zero(order)
    for ev, c in stream:
        if c == 0:
            raise FormatError("zero coefficient in term stream")
        acc = poly.add_unchecked(acc, Polynomial(order, (Term(ev, c),)))
    return acc


# -- certificate files -------------------------------------------------------

_LABEL = re.compile(r"^(vars|order|N|f|lambda\[(\d+)\]|g\[(\d+)\]):\s*(.*)$")


def parse_certificate(text: str) -> Certificate:
    """Parse a certificate file (see module docstring for the layout)."""
    sections: dict[str, str] = {}
    indices: dict[str, int] = {}  # lambda[i] and g[i] labels -> i
    current: str | None = None  # the polynomial section a line may continue
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _LABEL.match(line)
        if m:
            label, lam_i, g_i, rest = m.groups()
            if label in sections:
                raise CertificateFormatError(f"duplicate section {label!r}")
            sections[label] = rest
            if lam_i or g_i:
                indices[label] = _int(lam_i or g_i)
            current = None if label in ("vars", "order", "N") else label
        elif current:
            sections[current] += " " + line
        else:
            raise CertificateFormatError(f"unlabeled line {lineno}: {raw!r}")
    for required in ("vars", "order", "N", "f"):
        if required not in sections:
            raise CertificateFormatError(f"missing section {required!r}")
    varset = VariableSet(tuple(sections["vars"].split()))
    order_name = sections["order"].strip()
    try:
        order = MonomialOrder(order_name)
    except ValueError:
        raise CertificateFormatError(f"unknown order {order_name!r}") from None
    n_text = sections["N"]
    if not (n_text.isascii() and n_text.isdigit()):  # int() takes "+1" and "1_0"
        raise CertificateFormatError(f"bad N: {n_text!r}")
    n = _int(n_text)
    if n < 1:
        raise CertificateFormatError(f"N must be >= 1, got {n}")
    f = parse_poly(sections["f"], varset, order)
    pairs = []
    for i in range(1, n + 1):
        labels = (f"lambda[{i}]", f"g[{i}]")
        for label in labels:
            if label not in sections:
                raise CertificateFormatError(f"missing section {label!r}")
        pairs.append(tuple(parse_poly(sections[lb], varset, order) for lb in labels))
    for label, i in indices.items():
        if not 1 <= i <= n:
            raise CertificateFormatError(f"section {label!r} outside 1..{n}")
        if label not in (f"lambda[{i}]", f"g[{i}]"):  # lambda[01] is not lambda[1]
            raise CertificateFormatError(f"section {label!r} is never read")
    return Certificate(varset, order, f, tuple(pairs))


def format_certificate(cert: Certificate) -> str:
    lines = [
        "vars: " + " ".join(cert.varset.names),
        f"order: {cert.order.value}",
        f"N: {len(cert.pairs)}",
        "f: " + print_poly(cert.f, cert.varset),
    ]
    for i, (lam, g) in enumerate(cert.pairs, 1):
        lines.append(f"lambda[{i}]: " + print_poly(lam, cert.varset))
        lines.append(f"g[{i}]: " + print_poly(g, cert.varset))
    return "\n".join(lines) + "\n"
