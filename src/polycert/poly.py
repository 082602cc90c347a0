"""Distributed sparse polynomials as strictly sorted term lists.

A polynomial is a tuple of terms, strictly decreasing under its monomial
order, with no zero coefficients; the empty tuple is zero.  Coefficients are
exact: Python ints or :class:`fractions.Fraction` (both arbitrary precision,
and both nontrivial rings, so the degenerate 0=1 ring never arises).

Every kernel checks its inputs, uncounted, in :func:`checked_keys`, which
returns their packed keys: :func:`add` is the classic sorted merge on them.
Every merge step in which both inputs are nonempty costs exactly one
monomial comparison, so adding disjoint supports of sizes m and n costs at
most m+n-1 comparisons, tallied once.

:func:`poly_from_terms` sorts and combines any term sequence, as
:func:`read_sorted` does a stream without zeros (n-1 comparisons when it is
sorted; :func:`read_naive` is acceptance criterion 8's quadratic baseline).
:func:`polys_from_runs` builds many polynomials from exponent and
coefficient columns, packing each key once, at the width of a merge of all
of them, and takes a run already in order as it stands, counted as that sort
would count it; such a polynomial keeps its keys, and :func:`checked_keys`
takes them instead of packing again.  Keys always order as the monomial
order; a max-first merge negates its own copy.  :func:`poly_from_columns`
holds a product as columns, and a parsed rational run holds its numerators
and denominators: each builds its terms only when first read.
:func:`columns` reads any polynomial's columns.  A :class:`Certificate`
pairs the cofactors lambda_i with the f_i of f = sum_i lambda_i * f_i.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, pairwise, repeat, starmap
from operator import attrgetter, gt, itemgetter
from typing import Iterable, Union

from .counters import key_factory, tally
from .errors import DimensionError, DomainError, EmptyPolynomialError, FormatError
from .errors import KernelError, OrderMismatchError
from .monomial import ExponentVector, MonomialOrder, VariableSet, ev_add
from .monomial import evs_unchecked, key_packer, num_repr, pack_columns

Coefficient = Union[int, Fraction]


@dataclass(frozen=True, slots=True)
class Term:
    degrees: ExponentVector
    coeff: Coefficient

    def __repr__(self) -> str:  # the dataclass repr, digit-safe
        return f"Term(degrees={self.degrees!r}, coeff={num_repr(self.coeff)})"


_new = object.__new__
_set_degrees, _set_coeff = Term.degrees.__set__, Term.coeff.__set__


def term_unchecked(degrees: ExponentVector, coeff: Coefficient) -> Term:
    """``Term(degrees, coeff)`` without running the frozen dataclass
    ``__init__``; the object is the same frozen, hashable class."""
    t = _new(Term)
    _set_degrees(t, degrees)
    _set_coeff(t, coeff)
    return t


def terms_unchecked(degrees: list[ExponentVector], coeffs: list[Coefficient]) -> list[Term]:
    """:func:`term_unchecked` of each monomial and coefficient, in C: a
    blank object each, then each field set through its slot."""
    terms = list(map(_new, repeat(Term, len(coeffs))))
    deque(map(_set_degrees, terms, degrees), 0)  # each set returns None
    deque(map(_set_coeff, terms, coeffs), 0)
    return terms


@dataclass(frozen=True)
class Polynomial:
    """A polynomial that :func:`polys_from_runs` built as it stands also
    keeps, outside its fields, ``(shift, keys)``: its terms' keys, packed at
    `shift` for sums of two keys (:func:`checked_keys`); equality, repr and
    :func:`dataclasses.replace` ignore them.

    One that :func:`poly_from_columns` built holds, outside its fields,
    ``(exponent columns, coefficients)`` instead of its `terms`, which are
    built when first read and then kept beside them; every field reads, and
    so compares, hashes, prints, copies and pickles, as in terms form.  A
    rational run that :func:`polys_from_runs` takes as it stands holds
    ``(monomials, integer numerators, denominators)`` instead, in
    `_fractions`, and makes one Fraction a term on first read."""

    order: MonomialOrder
    terms: tuple[Term, ...]
    _keys = None  # not a field: every other polynomial keeps no keys
    _columns = None  # not a field: every other polynomial is held as terms
    _fractions = None  # not a field: nor as a parsed rational run's columns

    def __getattr__(self, name: str):
        """The missing `terms` field of a polynomial held as columns: built
        once, and a read that races the first gets the same tuple."""
        held, parsed = self._columns, self._fractions
        if name != "terms" or held is None and parsed is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        if parsed is not None:
            terms = terms_unchecked(parsed[0], coefficients(*parsed[1:]))
        else:
            exps, coeffs = held
            rows = list(zip(*exps)) if exps else [()] * len(coeffs)
            terms = terms_unchecked(evs_unchecked(rows, list(map(sum, rows))), coeffs)
        return self.__dict__.setdefault("terms", tuple(terms))

    def is_zero(self) -> bool:
        return not term_count(self)


@dataclass(frozen=True)
class Certificate:
    varset: VariableSet
    order: MonomialOrder
    f: Polynomial
    pairs: tuple[tuple[Polynomial, Polynomial], ...]  # (lambda_i, f_i)


def zero(order: MonomialOrder) -> Polynomial:
    return Polynomial(order, ())


def poly_from_terms(
    order: MonomialOrder,
    pairs: Iterable[tuple[ExponentVector, Coefficient]],
) -> Polynomial:
    """Normalize an unsorted term sequence: sort, combine duplicates, drop
    zeros; :func:`check_coefficients` first checks every coefficient given."""
    pairs = list(pairs)
    check_coefficients([c for _, c in pairs])
    combined: dict[tuple[int, ...], tuple[ExponentVector, Coefficient]] = {}
    for ev, c in pairs:
        old = combined.get(ev.exponents)
        combined[ev.exponents] = (ev, c if old is None else old[1] + c)
    entries = [(ev, c) for ev, c in combined.values() if c != 0]
    pack, wrap = key_packer(order, [ev for ev, _ in entries]), key_factory()
    entries.sort(key=lambda e: wrap(pack(e[0])), reverse=True)
    return Polynomial(order, tuple(starmap(term_unchecked, entries)))


def polys_from_runs(
    order: MonomialOrder, columns: list[list[int]], nums: list[int], dens: list, bounds: list[int]
) -> list[Polynomial]:
    """:func:`poly_from_terms` of each run of terms ``a:b`` between
    consecutive `bounds`, term i with exponents ``columns[v][i]`` (one
    column per variable, left empty once packed) and coefficient
    ``nums[i]`` over ``dens[i]`` (:func:`coefficients`).

    Every term is packed once, at the `shift` for sums of two keys of total
    degree up to any run's, so that a merge of these polynomials, and of
    others whose totals fit that shift, takes their keys as they are
    (:func:`checked_keys`).  A run whose keys strictly decrease, with no
    zero numerator, is a polynomial as it stands, which keeps
    ``(shift, keys[a:b])``, tallied as the n-1 comparisons that
    ``poly_from_terms``' sort makes on it (a reversed sort of a strictly
    decreasing list scans one ascending run), held as columns if a term has
    a denominator (see :class:`Polynomial`); any other run goes through
    ``poly_from_terms`` and keeps no keys."""
    exps = list(zip(*columns))
    totals = list(map(sum, exps))
    shift = (2 * max(totals, default=0)).bit_length()
    keys = pack_columns(order, columns, shift)
    columns.clear()
    descending = list(map(gt, keys, islice(keys, 1, None)))
    degrees = evs_unchecked(exps, totals)
    del exps, totals
    terms = terms_unchecked(degrees, nums)
    polys, comparisons = [], 0
    for a, b in pairwise(bounds):
        if all(descending[a : b - 1]) and all(nums[a:b]):
            if any(dens[a:b]):
                p = _new(Polynomial)
                p.__dict__.update(order=order, _fractions=(degrees[a:b], nums[a:b], dens[a:b]))
            else:
                p = Polynomial(order, tuple(terms[a:b]))
            object.__setattr__(p, "_keys", (shift, keys[a:b]))  # past frozen
            comparisons += b - a - 1
        else:
            p = poly_from_terms(order, zip(degrees[a:b], coefficients(nums[a:b], dens[a:b])))
        polys.append(p)
    tally(comparisons=comparisons)
    return polys


def poly_from_columns(
    order: MonomialOrder, exps: list[list[int]], coeffs: list[Coefficient]
) -> Polynomial:
    """The polynomial whose term i has exponents ``exps[v][i]`` (one column
    per variable) and coefficient ``coeffs[i]``, strictly decreasing with no
    zero coefficient, held as those columns (see :class:`Polynomial`)."""
    p = _new(Polynomial)
    p.__dict__.update(order=order, _columns=(exps, coeffs))  # past frozen
    return p


def coefficients(nums: list[int], dens: list[int | None]) -> list[Coefficient]:
    """Each of `nums` over its denominator in `dens`, or as it is where that is None."""
    return [n if d is None else Fraction(n, d) for n, d in zip(nums, dens)]


def fraction_columns(p: Polynomial) -> tuple:
    """A nonempty p's monomials, numerators and denominators: a parsed section's as held."""
    if p._fractions is None:
        return tuple(zip(*[(t.degrees, t.coeff.numerator, t.coeff.denominator) for t in p.terms]))
    degrees, nums, dens = p._fractions
    return degrees, nums, [1 if d is None else d for d in dens]


def columns(
    p: Polynomial, start: int = 0, stop: int | None = None
) -> tuple[list[list[int]], list[Coefficient]]:
    """The exponent columns, one per variable, and the coefficients of p's
    terms ``start:stop``: sliced from those p is held as, or read off its
    terms (:class:`DimensionError` if their lengths differ)."""
    held = p._columns
    if held is not None:
        exps, coeffs = held
        return [column[start:stop] for column in exps], coeffs[start:stop]
    terms = p.terms[start:stop]
    rows = [t.degrees.exponents for t in terms]
    if len(widths := set(map(len, rows))) > 1:
        raise DimensionError("exponent vectors of mixed lengths")
    at = map(itemgetter, range(max(widths, default=0)))  # zip(*rows) makes an iterator a row
    return [list(map(get, rows)) for get in at], [t.coeff for t in terms]


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
    acc = zero(order)
    for ev, c in stream:
        if c == 0:
            raise FormatError("zero coefficient in term stream")
        acc = add(acc, Polynomial(order, (Term(ev, c),)))
    return acc


def checked_keys(
    order: MonomialOrder, polys: list[Polynomial], summands: int = 1
) -> tuple[list[list[int]], bool]:
    """Each of `polys`' term keys, packed by one :func:`key_packer` for sums
    of `summands` (one or two) keys, in the monomial order, and whether any
    coefficient is a Fraction.  Raises :class:`OrderMismatchError` unless
    each is in `order`, :class:`DimensionError` unless all have one
    dimension, :class:`FormatError` unless each strictly decreases, and
    :func:`check_coefficients`' error.  Zero coefficients pass; counts
    nothing.

    The polynomials that keep keys (:func:`polys_from_runs`) at the widest
    kept shift give them as they are, and the others are packed at that
    shift, when their totals fit it; else every key is packed here.  Only a
    kept polynomial's first monomial joins the dimension check; its order,
    descent and coefficients (but a parsed section's numerators) are checked."""
    return _checked_keys(order, polys, summands)[:2]


def _checked_keys(order: MonomialOrder, polys: list[Polynomial], summands: int) -> tuple:
    """:func:`checked_keys`, and the shift the keys are packed at."""
    for p in polys:
        if p.order is not order:
            raise OrderMismatchError(f"{p.order} vs {order}")
    held = [p._keys for p in polys]
    shift = max((k[0] for k in held if k), default=None)
    kept = [k[1] if k and k[0] == shift else None for k in held]
    evs = [t.degrees for p, k in zip(polys, kept) if k is None for t in p.terms]
    if shift is not None:  # the others take the kept shift, if they fit it
        evs += [p.terms[0].degrees if p._fractions is None else p._fractions[0][0]
                for p, k in zip(polys, kept) if k is not None]
        if (summands * max(ev.total for ev in evs)).bit_length() > shift:
            shift, kept = 0, [None] * len(polys)  # too narrow: pack all
            evs = [t.degrees for p in polys for t in p.terms]
    shift = max(shift or 0, (summands * max((ev.total for ev in evs), default=0)).bit_length())
    pack = key_packer(order, evs, summands, shift)
    keys = [[pack(t.degrees) for t in p.terms] if k is None else k for p, k in zip(polys, kept)]
    if not all(all(map(gt, k, k[1:])) for k in keys):
        raise FormatError("terms not strictly decreasing")
    rational = any(map(attrgetter("_fractions"), polys))  # parsed int numerators pass
    coeffs = [t.coeff for p in polys if not rational or p._fractions is None for t in p.terms]
    return keys, check_coefficients(coeffs) or rational, shift


def check_coefficients(coeffs: list) -> bool:
    """Whether any of `coeffs` is a Fraction; :class:`DomainError` for the
    first that is neither an int nor a Fraction."""
    types = set(map(type, coeffs))
    if not all(issubclass(t, (int, Fraction)) for t in types):
        bad = next(c for c in coeffs if not isinstance(c, (int, Fraction)))
        raise DomainError(f"coefficient {bad!r} is neither an int nor a Fraction")
    return any(issubclass(t, Fraction) for t in types)


def add(p: Polynomial, q: Polynomial) -> Polynomial:
    """Merge-add two sorted polynomials on their checked keys."""
    (kp, kq), _ = checked_keys(p.order, [p, q])
    pt, qt = p.terms, q.terms
    np_, nq = len(pt), len(qt)
    i = j = adds = 0
    out: list[Term] = []
    while i < np_ and j < nq:
        a, b = kp[i], kq[j]
        if a > b:
            out.append(pt[i])
            i += 1
        elif a < b:
            out.append(qt[j])
            j += 1
        else:
            s = pt[i].coeff + qt[j].coeff
            adds += 1
            if s != 0:
                out.append(term_unchecked(pt[i].degrees, s))
            i += 1
            j += 1
    out.extend(pt[i:])
    out.extend(qt[j:])
    tally(coeff_adds=adds, comparisons=i + j - adds)
    return Polynomial(p.order, tuple(out))


def negate(p: Polynomial) -> Polynomial:
    checked_keys(p.order, [p])
    return Polynomial(p.order, tuple(Term(t.degrees, -t.coeff) for t in p.terms))


def scale(c: Coefficient, p: Polynomial) -> Polynomial:
    check_coefficients([c])
    checked_keys(p.order, [p])
    if c == 0:
        return zero(p.order)
    tally(coeff_muls=len(p.terms))
    terms = []
    for t in p.terms:
        prod = c * t.coeff
        if prod != 0:
            terms.append(term_unchecked(t.degrees, prod))
    return Polynomial(p.order, tuple(terms))


def term_mul(t: Term, p: Polynomial) -> Polynomial:
    """Multiply p by a single term (scale and shift); preserves sortedness."""
    tally(coeff_muls=len(p.terms))
    terms = []
    for s in p.terms:
        prod = t.coeff * s.coeff
        if prod != 0:
            terms.append(term_unchecked(ev_add(t.degrees, s.degrees), prod))
    return Polynomial(p.order, tuple(terms))


def mul_naive(p: Polynomial, q: Polynomial) -> Polynomial:
    """Schoolbook product: fold term-times-q through merge addition."""
    checked_keys(p.order, [p, q])
    acc = zero(p.order)
    for t in p.terms:
        acc = add(acc, term_mul(t, q))
    return acc


def leading_term(p: Polynomial) -> Term:
    checked_keys(p.order, [p])
    if not p.terms:
        raise EmptyPolynomialError("zero polynomial has no leading term")
    return p.terms[0]


def term_count(p: Polynomial) -> int:
    """How many terms p has; a polynomial held as columns builds none."""
    held = p._columns or p._fractions
    return len(p.terms if held is None else held[1])


def is_well_formed(p: Polynomial) -> bool:
    """Passes :func:`checked_keys` and has no zero coefficients."""
    try:
        checked_keys(p.order, [p])
    except KernelError:
        return False
    return all(t.coeff != 0 for t in p.terms)
