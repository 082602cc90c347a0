"""Text formats: polynomial expressions and certificate files.

Polynomial grammar (explicit '*' between factors; juxtaposition is not
allowed because multi-character variable names would make it ambiguous)::

    poly   := ['-'] term (('+'|'-') term)*
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

Blank lines and lines starting with '#' are ignored.  Long polynomials may
continue on following lines until the next label.

Reading term streams: :func:`read_sorted` consumes a strictly decreasing
stream with exactly n-1 comparisons and O(1) appends, falling back to
geobucket accumulation the moment a violation is seen; :func:`read_naive`
is the quadratic read-and-add baseline kept for benchmarks.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable

from . import poly
from .errors import CertificateFormatError, DomainError, FormatError, ParseError
from .geobucket import Geobucket
from .monomial import ExponentVector, MonomialOrder, VariableSet, ev_compare, ev_make
from .poly import Coefficient, Polynomial, Term, poly_from_terms
from .verifier import Certificate

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([+\-*/^()]))")


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start() or not any(m.groups()):
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = pos + (len(text[pos:]) - len(stripped))
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        num, name, op = m.groups()
        if num is not None:
            out.append(("num", int(num), m.start(1)))
        elif name is not None:
            out.append(("name", name, m.start(2)))
        else:
            out.append(("op", op, m.start(3)))
        pos = m.end()
    return out


def parse_poly(text: str, varset: VariableSet, order: MonomialOrder) -> Polynomial:
    """Parse a polynomial expression over the given variables."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial text", 0)
    n = len(varset)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else ("end", None, len(text))

    def take():
        nonlocal pos
        t = peek()
        pos += 1
        return t

    def parse_nat() -> int:
        kind, val, at = take()
        if kind != "num":
            raise ParseError("expected a number", at)
        return val

    def parse_coeff(sign: int) -> Coefficient:
        val = parse_nat()
        if peek()[:2] == ("op", "/"):
            take()
            at = peek()[2]
            den = parse_nat()
            if den == 0:
                raise ParseError("zero denominator", at)
            return Fraction(sign * val, den)
        return sign * val

    def parse_term(sign: int) -> tuple[ExponentVector, Coefficient]:
        kind, val, at = peek()
        exps = [0] * n
        if kind == "num":
            coeff = parse_coeff(sign)
        elif kind == "name":
            coeff = sign
        else:
            raise ParseError("expected a coefficient or variable", at)
        first = kind == "name"
        while first or peek()[:2] == ("op", "*"):
            if not first:
                take()  # '*'
            first = False
            kind, name, at = take()
            if kind != "name":
                raise ParseError("expected a variable", at)
            try:
                idx = varset.index(name)
            except DomainError:
                raise ParseError(f"unknown variable {name!r}", at) from None
            e = 1
            if peek()[:2] == ("op", "^"):
                take()
                e = parse_nat()
            exps[idx] += e
        return ev_make(tuple(exps)), coeff

    pairs = []
    sign = 1
    if peek()[:2] == ("op", "-"):
        take()
        sign = -1
    elif peek()[:2] == ("op", "+"):
        take()
    pairs.append(parse_term(sign))
    while pos < len(tokens):
        kind, val, at = take()
        if (kind, val) == ("op", "+"):
            sign = 1
        elif (kind, val) == ("op", "-"):
            sign = -1
        else:
            raise ParseError(f"expected '+' or '-', got {val!r}", at)
        pairs.append(parse_term(sign))
    return poly_from_terms(order, pairs)


def print_poly(p: Polynomial, varset: VariableSet) -> str:
    """Canonical descending text; reparses to an equal polynomial."""
    if not p.terms:
        return "0"
    chunks = []
    for k, t in enumerate(p.terms):
        c = t.coeff
        neg = c < 0
        mag = -c if neg else c
        factors = []
        if mag != 1 or t.degrees.total == 0:
            if isinstance(mag, Fraction) and mag.denominator != 1:
                factors.append(f"{mag.numerator}/{mag.denominator}")
            else:
                factors.append(str(int(mag)))
        for name, e in zip(varset.names, t.degrees.exponents):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mono = "*".join(factors)
        if k == 0:
            chunks.append(f"-{mono}" if neg else mono)
        else:
            chunks.append(f"- {mono}" if neg else f"+ {mono}")
    return " ".join(chunks)


def read_sorted(
    stream: Iterable[tuple[ExponentVector, Coefficient]], order: MonomialOrder
) -> Polynomial:
    """Build a polynomial from a term stream, fast when already sorted."""
    terms: list[Term] = []
    it = iter(stream)
    fallback = None
    for ev, c in it:
        if c == 0:
            raise FormatError("zero coefficient in term stream")
        if not terms or ev_compare(order, terms[-1].degrees, ev) > 0:
            terms.append(Term(ev, c))
        else:
            # sortedness violated: finish via geobucket accumulation
            fallback = Geobucket(order)
            fallback.add(Polynomial(order, tuple(terms)))
            fallback.add(Polynomial(order, (Term(ev, c),)))
            break
    if fallback is None:
        return Polynomial(order, tuple(terms))
    for ev, c in it:
        if c == 0:
            raise FormatError("zero coefficient in term stream")
        fallback.add(Polynomial(order, (Term(ev, c),)))
    return fallback.normalize()


def read_naive(
    stream: Iterable[tuple[ExponentVector, Coefficient]], order: MonomialOrder
) -> Polynomial:
    """Read-a-term, add-it-to-the-polynomial baseline (quadratic on sorted input)."""
    acc = poly.zero(order)
    for ev, c in stream:
        if c == 0:
            raise FormatError("zero coefficient in term stream")
        acc = poly.add(acc, Polynomial(order, (Term(ev, c),)))
    return acc


# -- certificate files -------------------------------------------------------

_LABEL = re.compile(r"^(vars|order|N|f|lambda\[(\d+)\]|g\[(\d+)\]):\s*(.*)$")


def parse_certificate(text: str) -> Certificate:
    """Parse a certificate file (see module docstring for the layout)."""
    sections: dict[str, str] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _LABEL.match(line)
        if m:
            label = line.split(":", 1)[0]
            if label in sections:
                raise CertificateFormatError(f"duplicate section {label!r}")
            sections[label] = m.group(4)
            current = label
        elif current in ("f",) or (current or "").startswith(("lambda[", "g[")):
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
    try:
        n = int(sections["N"])
    except ValueError:
        raise CertificateFormatError(f"bad N: {sections['N']!r}") from None
    if n < 1:
        raise CertificateFormatError(f"N must be >= 1, got {n}")
    f = parse_poly(sections["f"], varset, order)
    pairs = []
    for i in range(1, n + 1):
        for label in (f"lambda[{i}]", f"g[{i}]"):
            if label not in sections:
                raise CertificateFormatError(f"missing section {label!r}")
        pairs.append(
            (
                parse_poly(sections[f"lambda[{i}]"], varset, order),
                parse_poly(sections[f"g[{i}]"], varset, order),
            )
        )
    for label in sections:
        m = re.match(r"(?:lambda|g)\[(\d+)\]$", label)
        if m and not 1 <= int(m.group(1)) <= n:
            raise CertificateFormatError(f"section {label!r} outside 1..{n}")
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
