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

:func:`parse_poly` reads text that is wholly canonical, or else the general
scan reads it all.  Canonical text is a run of terms as :func:`print_poly`
writes them, each one match of a pattern compiled once per variable set;
``findall`` takes them a slice at a time, and their exponent, signed
numerator and denominator (None if none) columns are built in C (each looked
up in a :class:`_Table`), so no Fraction is made.  The general scan's terms
join the same columns, so each text is one run of them, and
:func:`~polycert.poly.polys_from_runs` takes a run in order without zero
terms as it stands (a rational one as columns) and sorts any other.
:func:`parse_certificate` reads all of a certificate's sections, in section
order, as runs of one such batch, whose keys are packed wide enough for the
merge of the whole certificate.  The general scan
(term head, factor, '*' patterns) accepts the whole grammar and is the only
source of :class:`ParseError`, each with a position.  Coefficients are exact
at any length: digit strings and integers beyond the interpreter's
int-string digit limit are converted in pieces, without changing the limit.
Each distinct denominator is converted once per call, read or printed: a
long number's conversion is quadratic in its length.

:func:`print_poly` reads a polynomial's exponent and coefficient columns
(:func:`~polycert.poly.columns`), ``_ROWS`` terms at a time, so a product
held as columns prints without building a term.  It looks each exponent's
factor text up in a per-variable :class:`_Table` (:func:`_factor_tables`,
cached per variable set) and joins a term's factors in C.
"""

from __future__ import annotations

import re
from functools import cache, lru_cache
from itertools import repeat
from operator import add, attrgetter, itemgetter
from typing import Callable

from .errors import CertificateFormatError, DimensionError, ParseError
from .monomial import ExponentVector, MonomialOrder, VariableSet, ev_make
from .monomial import int_str as _str
from .poly import Certificate, Coefficient, Polynomial, check_coefficients, coefficients
from .poly import columns, polys_from_runs, term_count

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


def format_coeff(c: Coefficient) -> str:
    """``str(c)`` for an integer or a fraction, exact at any length;
    :func:`~polycert.poly.check_coefficients`' error for anything else."""
    check_coefficients([c])
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

    Groups: the whole term, sign, numerator, denominator, then one factor
    group per variable, in variable order.  A factor is ``v`` or
    ``v^digits`` with no spaces or non-ASCII digits; a '*' comes before it
    exactly when a coefficient or another factor does, and a lookahead ends
    each name, so ``x`` does not start on ``x1``.  The term starts at a
    letter, digit or '_' and the match ends past trailing whitespace at a
    sign or at the end of the text, so it takes a term whole or not at all,
    and never matches empty.  A match starts only at the start of the text
    or at a sign, where every term but the first starts, so ``findall`` on
    text that is not canonical tries few places (none inside a digit run)
    and stays linear.  Every name is an ASCII identifier
    (:class:`VariableSet`), so no name needs escaping."""
    factors = "".join(
        r"(?:(?:(?<=[A-Za-z0-9_])\*|(?<![A-Za-z0-9_]))"
        rf"({name}(?![A-Za-z0-9_])(?:\^[0-9]+)?))?"
        for name in names
    )
    return re.compile(
        r"((?:\A|(?=[+-]))\s*([+-]?)\s*(?=[A-Za-z0-9_])(?:([0-9]+)(?:/(0*[1-9][0-9]*))?)?"
        + factors
        + r"\s*(?=[+-]|\Z))"
    )


_TABLE_SIZE = 4096  # most entries kept by a conversion table
_ROWS = 2048  # term rows read or printed at a time, so few rows are alive at once
_SLICE = 8192  # least characters one findall reads of a longer text
_CUT = re.compile(r" [+-] ")  # a slice ends before the sign of a separator


class _Table(dict):
    """Text <-> number, bounded: a miss is converted by `convert` and kept
    while the table holds fewer than ``_TABLE_SIZE`` entries and its text
    (the key, or else the value) is under 64 characters; a hit stays in C."""

    def __init__(self, convert: Callable, seed: dict) -> None:
        super().__init__(seed)
        self.convert = convert

    def __missing__(self, key):
        value = self.convert(key)
        if len(self) < _TABLE_SIZE and len(key if isinstance(key, str) else value) < 64:
            self[key] = value
        return value


def _exponent(factor: str) -> int:
    """Factor text -> exponent: "x" -> 1, "x^12" -> 12."""
    caret = factor.find("^")
    return 1 if caret < 0 else _int(factor[caret + 1 :])


def _coefficient(head: str) -> int:
    """Sign and numerator text -> integer coefficient: "+12" -> 12, "-12" -> -12."""
    digits = head.lstrip("+-")
    c = _int(digits) if digits else 1
    return -c if head[0] == "-" else c


_EXPONENTS = _Table(_exponent, {"": 0})
_COEFFICIENTS = _Table(_coefficient, {"": 1, "+": 1, "-": -1})


def parse_poly(text: str, varset: VariableSet, order: MonomialOrder) -> Polynomial:
    """Parse a polynomial expression over the given variables.

    Wholly canonical text is read column by column, any other text by the
    general scan (:func:`_parse_texts`)."""
    return _parse_texts([text], varset, order)[0]


def _parse_texts(texts: list[str], varset: VariableSet, order: MonomialOrder) -> list[Polynomial]:
    """The polynomial of each of `texts` (at least one), read in order, so
    that the first fault raised is the first faulty text's.

    ``findall`` reads a text a slice at a time, each cut before the sign of
    a `` + `` or `` - `` past ``_SLICE`` characters.  Its matches never
    overlap nor match empty, so they take a slice whole exactly when their
    lengths add up to its length, and a text whose slices are all taken
    whole is canonical: they are the matches a left-to-right scan makes.
    A slice with no match at its start, where ``findall`` tries first,
    skips it.  Canonical texts' rows move into exponent and coefficient
    columns (:func:`_read_rows`) a few thousand at a time, so the term
    strings die early.  Any other text is read by the general scan alone,
    once the terms of its canonical first slices are dropped, and its terms
    join the same columns; canonical text never raises.  Each text is one
    run of the columns, and :func:`~polycert.poly.polys_from_runs` makes
    every polynomial, packing their keys at one width."""
    pattern, whole = _term_pattern(varset.names), itemgetter(0)
    exps_by_var: list[list[int]] = [[] for _ in varset.names]
    nums, dens = [], []  # signed numerators; denominators, None where a term has none
    rows: list[tuple[str, ...]] = []
    denominators = cache(lambda d: _int(d) if d else None)  # per call: they repeat
    bounds = [0]
    for text in texts:
        start = 0
        while start < len(text):  # one findall per slice, cut at a sign
            cut = _CUT.search(text, start + _SLICE)
            piece = text[start : cut.start() + 1 if cut else None]  # or text itself
            found = pattern.match(piece) and pattern.findall(piece)
            if not found or sum(map(len, map(whole, found))) != len(piece):
                break
            rows += found
            if len(rows) >= _ROWS:
                _read_rows(rows, exps_by_var, nums, dens, denominators)
            start += len(piece)
        if not text or start < len(text):  # not canonical: drop any first slices' terms
            _read_rows(rows, exps_by_var, nums, dens, denominators)
            for column in (nums, dens, *exps_by_var):
                del column[bounds[-1] :]
            if not text.strip():
                raise ParseError("empty polynomial text", 0)
            pairs = _scan(text, varset, dens)
            nums += map(itemgetter(1), pairs)
            scanned = list(map(attrgetter("exponents"), map(itemgetter(0), pairs)))
            for exps, at in zip(exps_by_var, map(itemgetter, range(len(exps_by_var)))):
                exps += map(at, scanned)
        bounds.append(len(nums) + len(rows))
    _read_rows(rows, exps_by_var, nums, dens, denominators)
    return polys_from_runs(order, exps_by_var, nums, dens, bounds)


def _read_rows(rows: list[tuple[str, ...]], exps_by_var: list[list[int]], nums: list[int],
               dens: list, denominators: Callable[[str], int | None]) -> None:
    """Move canonical term rows, as ``findall`` gives them, into the
    exponent columns, the signed numerators and the denominators, each
    denominator text read through `denominators`; `rows` is left empty."""
    if not rows:
        return
    _, signs, digits, den_texts, *factors = zip(*rows)
    rows.clear()
    for exps, column in zip(exps_by_var, factors):
        exps += map(_EXPONENTS.__getitem__, column)
    nums += map(_COEFFICIENTS.__getitem__, map(add, signs, digits))
    dens += map(denominators, den_texts) if any(den_texts) else repeat(None, len(den_texts))


def _scan(text: str, varset: VariableSet,
          dens: list | None = None) -> list[tuple[ExponentVector, Coefficient]]:
    """The general grammar: the terms of `text`, in text order, or
    :class:`ParseError` at the first malformed token.  Given `dens`, each
    term's coefficient is its signed numerator, and its denominator, or
    None, is appended to `dens`; else its value (the reference scan)."""
    index = {name: i for i, name in enumerate(varset.names)}
    pairs: list[tuple[ExponentVector, Coefficient]] = []
    scanned = [] if dens is None else dens
    pos = 0
    while pos < len(text):
        head = _HEAD.match(text, pos)
        sign, num, slash, den = head.groups()
        if pairs and not sign:
            raise _error(text, pos, "expected '+' or '-'", got=True)
        coeff, d = 1 if num is None else _int(num), None
        if slash:
            if not den:
                raise _error(text, head.start(4), "expected a number")
            if not (d := _int(den)):
                raise ParseError("zero denominator", head.start(4))
        scanned.append(d)
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
    if dens is None:
        return list(zip(map(itemgetter(0), pairs), coefficients([c for _, c in pairs], scanned)))
    return pairs


@lru_cache(maxsize=64)
def _factor_tables(names: tuple[str, ...]) -> tuple[_Table, ...]:
    """Per variable, exponent -> the factor text that follows a coefficient
    or factor: 0 -> "", 1 -> "*x", 12 -> "*x^12"."""
    return tuple(_Table(lambda e, v=v: f"*{v}^{_str(e)}", {0: "", 1: "*" + v}) for v in names)


def print_poly(p: Polynomial, varset: VariableSet) -> str:
    """Canonical descending text.  A polynomial with no zero coefficient
    reparses to an equal one; a zero term prints as ``0*…``, which the
    parser drops.

    p's exponent and coefficient columns (:func:`~polycert.poly.columns`,
    so a product held as columns builds no term) are read ``_ROWS`` terms
    at a time.  Each variable's factor text is looked up, in C, in a table
    of that variable's exponents (:func:`_factor_tables`), each term's
    factors are joined in C, and each distinct denominator is printed once.
    Before a chunk is printed, :class:`DimensionError` unless each of its
    terms has ``len(varset)`` exponents, and one pass of
    :func:`~polycert.poly.check_coefficients` (a float 1.0 must not print as
    a bare monomial)."""
    n = term_count(p)
    if not n:
        return "0"
    tables = _factor_tables(varset.names)
    denominators = cache(_str)  # for this call: denominators repeat across terms
    chunks = []  # one string per term, so the peak stays one object a term
    for start in range(0, n, _ROWS):
        exps, coeffs = columns(p, start, start + _ROWS)
        if len(exps) != len(varset):
            raise DimensionError(f"expected {len(varset)} exponents, got {len(exps)}")
        check_coefficients(coeffs)
        factors = [map(table.__getitem__, column) for table, column in zip(tables, exps)]
        for c, mono in zip(coeffs, map("".join, zip(*factors))):  # mono: "*x^2*y"
            if c < 0:
                sign, c = " - ", -c
            else:
                sign = " + "
            if c != 1 or not mono:
                num, den = _str(c.numerator), c.denominator
                if den != 1:
                    num = f"{num}/{denominators(den)}"
                chunks.append(f"{sign}{num}{mono}")
            else:
                chunks.append(f"{sign}{mono[1:]}")
    first = chunks[0]
    chunks[0] = f"-{first[3:]}" if first[1] == "-" else first[3:]
    return "".join(chunks)


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
    f, pairs = _parse_sections(sections, n, varset, order)
    for label, i in indices.items():
        if not 1 <= i <= n:
            raise CertificateFormatError(f"section {label!r} outside 1..{n}")
        if label not in (f"lambda[{i}]", f"g[{i}]"):  # lambda[01] is not lambda[1]
            raise CertificateFormatError(f"section {label!r} is never read")
    return Certificate(varset, order, f, tuple(pairs))


def _parse_sections(
    sections: dict[str, str], n: int, varset: VariableSet, order: MonomialOrder
) -> tuple[Polynomial, list[tuple[Polynomial, Polynomial]]]:
    """f and the n (lambda, g) pairs, read in that order
    (:func:`_parse_texts`): the first fault raised is a malformed section
    before the first pair with a missing label, else that missing label."""
    labels, missing = ["f"], None
    for i in range(1, n + 1):
        pair = [f"lambda[{i}]", f"g[{i}]"]
        missing = next((lb for lb in pair if lb not in sections), None)
        if missing:
            break
        labels += pair
    polys = _parse_texts([sections[lb] for lb in labels], varset, order)
    if missing:
        raise CertificateFormatError(f"missing section {missing!r}")
    return polys[0], list(zip(polys[1::2], polys[2::2]))


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
