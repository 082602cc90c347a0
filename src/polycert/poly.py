"""Distributed sparse polynomials as strictly sorted term lists.

A polynomial is a tuple of terms, strictly decreasing under its monomial
order, with no zero coefficients; the empty tuple is zero.  Coefficients are
exact: Python ints or :class:`fractions.Fraction` (both arbitrary precision,
and both nontrivial rings, so the degenerate 0=1 ring never arises).

Addition is the classic sorted merge, implemented iteratively.  Every merge
step in which both inputs are nonempty costs exactly one monomial
comparison, so adding disjoint supports of sizes m and n costs at most
m+n-1 comparisons, tallied once.  :func:`add` and :func:`mul_naive` first
check their inputs (:func:`check_inputs`, uncounted); the kernel's folds of
polynomials it built skip that (:func:`add_unchecked`).

:func:`poly_from_terms` sorts and combines any term sequence;
:func:`polys_from_runs` builds many polynomials from term columns and takes
a run already in order as it stands, counted as that sort would count it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat, starmap
from typing import Iterable, Union

from .counters import key_factory, tally
from .errors import EmptyPolynomialError, FormatError, OrderMismatchError
from .monomial import ExponentVector, MonomialOrder, ev_add, ev_compare, key_packer
from .monomial import num_repr

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
    order: MonomialOrder
    terms: tuple[Term, ...]

    def is_zero(self) -> bool:
        return not self.terms


def zero(order: MonomialOrder) -> Polynomial:
    return Polynomial(order, ())


def poly_from_terms(
    order: MonomialOrder,
    pairs: Iterable[tuple[ExponentVector, Coefficient]],
) -> Polynomial:
    """Normalize an unsorted term sequence: sort, combine duplicates, drop zeros."""
    combined: dict[tuple[int, ...], tuple[ExponentVector, Coefficient]] = {}
    for ev, c in pairs:
        old = combined.get(ev.exponents)
        combined[ev.exponents] = (ev, c if old is None else old[1] + c)
    entries = [(ev, c) for ev, c in combined.values() if c != 0]
    pack, wrap = key_packer(order, [ev for ev, _ in entries]), key_factory()
    if wrap is int:  # no scope open: sort by the packed int itself
        entries.sort(key=lambda e: pack(e[0]), reverse=True)
    else:
        entries.sort(key=lambda e: wrap(pack(e[0])), reverse=True)
    return Polynomial(order, tuple(starmap(term_unchecked, entries)))


def polys_from_runs(
    order: MonomialOrder,
    degrees: list[ExponentVector],
    coeffs: list[Coefficient],
    descending: list[bool],
    bounds: list[int],
) -> list[Polynomial]:
    """:func:`poly_from_terms` of each run of terms ``a:b`` between
    consecutive `bounds`, where ``descending[i]`` says whether monomial i is
    above monomial i+1.  A run that strictly decreases with no zero
    coefficient is a polynomial as it stands, tallied as the n-1 comparisons
    that ``poly_from_terms``' sort makes on it (a reversed sort of a strictly
    decreasing list scans one ascending run); any other run goes through
    ``poly_from_terms``."""
    terms = terms_unchecked(degrees, coeffs)
    polys, comparisons = [], 0
    for a, b in zip(bounds, bounds[1:]):
        if all(descending[a : b - 1]) and all(coeffs[a:b]):
            polys.append(Polynomial(order, tuple(terms[a:b])))
            comparisons += b - a - 1
        else:
            polys.append(poly_from_terms(order, zip(degrees[a:b], coeffs[a:b])))
    tally(comparisons=comparisons)
    return polys


def check_inputs(order: MonomialOrder, *polys: Polynomial) -> None:
    """Raise unless each of `polys` is in `order` (:class:`OrderMismatchError`)
    and strictly decreasing (:class:`FormatError`); counts nothing."""
    for p in polys:
        if p.order is not order:
            raise OrderMismatchError(f"{p.order} vs {order}")
        if not _descending(p):
            raise FormatError("terms not strictly decreasing")


def add(p: Polynomial, q: Polynomial) -> Polynomial:
    """Merge-add two sorted polynomials, after checking both."""
    check_inputs(p.order, p, q)
    return add_unchecked(p, q)


def add_unchecked(p: Polynomial, q: Polynomial) -> Polynomial:
    """:func:`add` of two polynomials of one order that the caller vouches
    are strictly decreasing."""
    pt, qt = p.terms, q.terms
    np_, nq = len(pt), len(qt)
    i = j = adds = 0
    out: list[Term] = []
    while i < np_ and j < nq:
        c = ev_compare(p.order, pt[i].degrees, qt[j].degrees)
        if c > 0:
            out.append(pt[i])
            i += 1
        elif c < 0:
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
    return Polynomial(p.order, tuple(Term(t.degrees, -t.coeff) for t in p.terms))


def scale(c: Coefficient, p: Polynomial) -> Polynomial:
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
    check_inputs(p.order, p, q)
    acc = zero(p.order)
    for t in p.terms:
        acc = add_unchecked(acc, term_mul(t, q))
    return acc


def leading_term(p: Polynomial) -> Term:
    if not p.terms:
        raise EmptyPolynomialError("zero polynomial has no leading term")
    return p.terms[0]


def term_count(p: Polynomial) -> int:
    return len(p.terms)


def _descending(p: Polynomial) -> bool:
    order, degrees = p.order, [t.degrees for t in p.terms]
    return all(ev_compare(order, a, b) > 0 for a, b in zip(degrees, degrees[1:]))


def is_well_formed(p: Polynomial) -> bool:
    """Strictly decreasing term list, no zero coefficients."""
    return all(t.coeff != 0 for t in p.terms) and _descending(p)
