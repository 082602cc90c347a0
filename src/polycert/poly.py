"""Distributed sparse polynomials: sorted terms, or packed keys and coefficients.

A polynomial is a tuple of terms, strictly decreasing under its monomial
order, with no zero coefficients; the empty tuple is zero.  Coefficients are
exact: Python ints or :class:`fractions.Fraction` (both arbitrary precision,
and both nontrivial rings, so the degenerate 0=1 ring never arises).

A polynomial not built from terms is held in one form, a :class:`_Held`
record of packed keys and coefficient columns: :func:`polys_from_runs`
holds each parsed run that is in order, and :func:`poly_from_keys` each
product.  Its terms are built only when first read; :func:`term_count`,
:func:`columns` and the merge read the record, and keys are decoded on
demand (:func:`monomials`, :func:`columns`).

Every kernel checks its inputs, uncounted, in :func:`checked_keys`, which
returns their packed keys: a held polynomial's own, when the `top` of every
input fits their shift.  Keys order as the monomial order; a max-first
merge negates its own copy.  :func:`add`, :func:`negate`, :func:`scale` and
the geobucket work on terms; :func:`add` is the classic sorted merge on the
keys.  Every merge step in which both inputs are nonempty costs exactly one
monomial comparison, so adding disjoint supports of sizes m and n costs at
most m+n-1 comparisons, tallied once.

:func:`poly_from_terms` sorts and combines any term sequence, as
:func:`read_sorted` does a stream without zeros (n-1 comparisons when it is
sorted; :func:`read_naive` is acceptance criterion 8's quadratic baseline).
A :class:`Certificate` pairs the cofactors lambda_i with the f_i of
f = sum_i lambda_i * f_i.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, pairwise, repeat, starmap
from operator import gt, itemgetter
from typing import Iterable, NamedTuple, Union

from .counters import key_factory, tally
from .errors import DimensionError, DomainError, EmptyPolynomialError, FormatError
from .errors import KernelError, OrderMismatchError
from .monomial import ExponentVector, MonomialOrder, VariableSet, ev_add
from .monomial import evs_unchecked, key_packer, num_repr, pack_columns, unpack_columns

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


class _Held(NamedTuple):
    """Term i has key ``keys[i]``, packed at `shift` in `width` variables,
    and coefficient ``nums[i]`` over ``dens[i]`` (:func:`coefficients`); no
    term's total degree exceeds `top`."""

    shift: int
    keys: list[int]
    width: int
    top: int
    nums: list
    dens: list | None


@dataclass(frozen=True)
class Polynomial:
    """A held polynomial keeps, outside its fields, a :class:`_Held` record
    instead of its `terms`, which are built when first read and then kept
    beside it; every field reads, and so compares, hashes, prints, copies
    and pickles, as in terms form.  Its `_keys` read ``(shift, keys)``."""

    order: MonomialOrder
    terms: tuple[Term, ...]
    _columns = None  # not a field: every other polynomial is held as terms
    _keys = property(lambda self: self._columns and self._columns[:2])  # (shift, keys)

    def __getattr__(self, name: str):
        """The missing `terms` field of a held polynomial: built once, and a
        read that races the first gets the same tuple."""
        held = self._columns
        if name != "terms" or held is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        degrees = monomials(self.order, held.shift, held.width, held.keys)
        terms = terms_unchecked(degrees, coefficients(held.nums, held.dens))
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
    column per variable) and coefficient ``nums[i]`` over ``dens[i]``
    (:func:`coefficients`).

    Every term is packed once, at the `shift` for sums of two keys of total
    degree up to any run's, so that a merge of these polynomials takes
    their keys as they are (:func:`checked_keys`).  A run whose keys
    strictly decrease, with no zero numerator, is held as it stands
    (:func:`poly_from_keys`), tallied as the n-1 comparisons that
    ``poly_from_terms``' sort makes on it (a reversed sort of a strictly
    decreasing list scans one ascending run); any other run is sorted."""
    totals = list(map(sum, zip(*columns)))
    shift = (2 * max(totals, default=0)).bit_length()
    keys = pack_columns(order, columns, shift)
    descending = list(map(gt, keys, islice(keys, 1, None)))
    polys, comparisons = [], 0
    for a, b in pairwise(bounds):
        if all(descending[a : b - 1]) and all(nums[a:b]):
            held = dens[a:b] if any(dens[a:b]) else None
            polys.append(poly_from_keys(order, shift, keys[a:b], len(columns),
                                        max(totals[a:b], default=0), nums[a:b], held))
            comparisons += b - a - 1
        else:
            degrees = evs_unchecked(list(zip(*(c[a:b] for c in columns))), totals[a:b])
            polys.append(poly_from_terms(order, zip(degrees, coefficients(nums[a:b], dens[a:b]))))
    tally(comparisons=comparisons)
    return polys


def poly_from_keys(order: MonomialOrder, shift: int, keys: list[int], width: int, top: int,
                   nums: list, dens: list | None) -> Polynomial:
    """The polynomial held as strictly decreasing `keys` and nonzero
    coefficients `nums` over `dens` (see :class:`_Held`)."""
    p = _new(Polynomial)  # its dict is set past frozen
    p.__dict__.update(order=order, _columns=_Held(shift, keys, width, top, nums, dens))
    return p


def poly_from_columns(
    order: MonomialOrder, exps: list[list[int]], coeffs: list[Coefficient]
) -> Polynomial:
    """The polynomial whose term i has exponents ``exps[v][i]`` (one column
    per variable) and coefficient ``coeffs[i]``: :func:`polys_from_runs` of
    one run, held as its keys when in order with no zero coefficient."""
    return polys_from_runs(order, exps, coeffs, [None] * len(coeffs), [0, len(coeffs)])[0]


def coefficients(nums: list, dens: list | None) -> list[Coefficient]:
    """Each of `nums` over its denominator in `dens`; as it is where either is None."""
    if dens is None:
        return nums
    return [n if d is None else Fraction(n, d) for n, d in zip(nums, dens)]


def monomials(order: MonomialOrder, shift: int, width: int, keys: list) -> list[ExponentVector]:
    """The `width`-variable monomials whose keys at `shift` are `keys`."""
    exps = unpack_columns(order, keys, shift, width)
    rows = list(zip(*exps)) if exps else [()] * len(keys)
    return evs_unchecked(rows, list(map(sum, rows)))


def columns(
    p: Polynomial, start: int = 0, stop: int | None = None
) -> tuple[list[list[int]], list[Coefficient]]:
    """The exponent columns, one per variable, and the coefficients of p's
    terms ``start:stop``: decoded from its keys if p is held, else read off
    its terms (:class:`DimensionError` if their lengths differ)."""
    held = p._columns
    if held is not None:
        return (unpack_columns(p.order, held.keys[start:stop], held.shift, held.width),
                coefficients(held.nums[start:stop], held.dens and held.dens[start:stop]))
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
    nothing.  The keys are packed at the widest shift of a held polynomial
    when the `top` of every polynomial fits it (not a first term's total:
    in lex a product's largest can sit on its last), and the held ones at
    that shift give their own; else every key is packed here."""
    return _checked_keys(order, polys, summands)[:2]


def _checked_keys(order: MonomialOrder, polys: list[Polynomial], summands: int) -> tuple:
    """:func:`checked_keys`, the shift the keys are packed at, their one
    width (0 if no polynomial has a term), and each polynomial's `top` and
    coefficients as it holds them: values and None, or integer numerators
    and their denominators (None for a term written without one)."""
    for p in polys:
        if p.order is not order:
            raise OrderMismatchError(f"{p.order} vs {order}")
    held = [p._columns for p in polys]
    tops = [max((t.degrees.total for t in p.terms), default=0) if h is None else h.top
            for p, h in zip(polys, held)]
    shift = max([(summands * max(tops, default=0)).bit_length(), *(h.shift for h in held if h)])
    kept = [h.keys if h and h.shift == shift else None for h in held]
    evs = [t.degrees for p, k in zip(polys, kept) if k is None for t in p.terms]
    widths = {len(ev.exponents) for ev in evs} | {h.width for h, k in zip(held, kept) if k}
    if len(widths) > 1:
        raise DimensionError("exponent vectors of mixed lengths")
    pack = key_packer(order, evs, summands, shift)
    keys = [[pack(t.degrees) for t in p.terms] if k is None else k for p, k in zip(polys, kept)]
    if not all(all(map(gt, k, islice(k, 1, None))) for k in keys):
        raise FormatError("terms not strictly decreasing")
    coeffs = [([t.coeff for t in p.terms], None) if h is None else (h.nums, h.dens)
              for p, h in zip(polys, held)]
    values = [c for nums, dens in coeffs if dens is None for c in nums]  # numerators pass
    rational = check_coefficients(values) or any(dens is not None for _, dens in coeffs)
    return keys, rational, shift, max(widths, default=0), tops, coeffs


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
    """How many terms p has; a held polynomial builds none."""
    held = p._columns
    return len(p.terms if held is None else held.keys)


def is_well_formed(p: Polynomial) -> bool:
    """Passes :func:`checked_keys` and has no zero coefficients."""
    try:
        checked_keys(p.order, [p])
    except KernelError:
        return False
    return all(t.coeff != 0 for t in p.terms)
