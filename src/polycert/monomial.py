"""Exponent vectors over a fixed variable set, and monomial orders.

Variable precedence is fixed at :class:`VariableSet` construction: earlier
names are more significant (the "main" variable comes first).  A variable
name is an ASCII identifier, so the text grammar reads every name it can
print.  Exponent vectors cache their total degree so that total-degree
orders can compare totals in O(1) before falling back to a positional scan.
:func:`ev_compare` is a pure comparison and counts nothing: a kernel that
compares counts its own comparisons.

:meth:`MonomialOrder.key` writes each order as a tuple linear in the
exponents, so :func:`key_packer` packs it into one int per monomial as a
dot product of the exponents with one cached weight vector per order and
base, the packed key of each unit vector; sorts wrap that int in a counting
key only inside a counter scope.  :func:`pack_columns` packs the same keys
from exponents given column by column; :func:`unpack_columns` reads them
back.  Exponents, totals and keys are plain ints, so any degree
(x^1000000000 and friends) is fine; :func:`int_str` prints any of them past
the int-string digit limit too, as :func:`num_repr` prints the repr of a
coefficient.
:func:`ev_unchecked` builds an exponent vector without the dataclass
``__init__`` where the exponents are known to be valid, and
:func:`evs_unchecked` builds a column of them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import repeat
from operator import add, and_, mul, neg, rshift

from .errors import DimensionError, DomainError


class MonomialOrder(Enum):
    LEX = "lex"
    GRLEX = "grlex"
    GREVLEX = "grevlex"

    def key(self, ev: ExponentVector) -> tuple[int, ...]:
        """A tuple, linear in the exponents, that sorts as :func:`ev_compare`."""
        if self is MonomialOrder.LEX:
            return ev.exponents
        if self is MonomialOrder.GRLEX:
            return (ev.total, *ev.exponents)
        return (ev.total, *(-e for e in reversed(ev.exponents)))  # grevlex


def key_packer(order: MonomialOrder, evs: list[ExponentVector], summands: int = 1,
               shift: int = 0):
    """Pack :meth:`MonomialOrder.key` of any of `evs` into one int, in base
    B = 2^s above any digit of a sum of `summands` keys (no digit exceeds a
    total), or at s = `shift` when that is wider.  A key's digits after the
    first share one sign, so lower digits never outweigh a higher one: int
    ``<`` orders as the order, and int ``+`` of packed keys packs the
    monomial product.

    The key is linear in the exponents, so the packed int is their dot
    product with one weight per variable (:func:`_weights`, cached per
    order, length and base)."""
    if len({len(ev.exponents) for ev in evs}) > 1:
        raise DimensionError("exponent vectors of mixed lengths")
    shift = max(shift, (summands * max((ev.total for ev in evs), default=0)).bit_length())
    weights = _weights(order, len(evs[0].exponents) if evs else 0, shift)

    def pack(ev: ExponentVector) -> int:
        return sum(map(mul, ev.exponents, weights))

    return pack


def pack_columns(order: MonomialOrder, columns: list[list[int]], shift: int) -> list[int]:
    """:func:`key_packer`'s packed key, at `shift`, of each monomial whose
    exponents are given one column per variable: one weighted column added
    at a time, in C."""
    weights = _weights(order, len(columns), shift)
    keys = [0] * len(columns[0])
    for column, weight in zip(columns, weights):
        keys = list(map(add, keys, map(mul, column, repeat(weight))))
    return keys


def unpack_columns(order: MonomialOrder, keys: list[int], shift: int, n: int) -> list[list[int]]:
    """The exponent columns of the n-variable monomials whose keys at `shift`
    are `keys`: a shift and a mask per field, in C.  A grevlex key is its
    total's field less the exponents' fields, so the low fields of its
    negation (ints shift as two's complement) are the exponents, x_1 lowest."""
    mask, places = (1 << shift) - 1, range(n - 1, -1, -1)  # x_1 highest
    if order is MonomialOrder.GREVLEX:
        keys, places = list(map(neg, keys)), range(n)
    return [list(map(and_, map(rshift, keys, repeat(shift * p)), repeat(mask))) for p in places]


@lru_cache(maxsize=64)
def _weights(order: MonomialOrder, n: int, shift: int) -> tuple[int, ...]:
    """:func:`key_packer`'s weight per exponent: the base-2^shift reading of
    :meth:`MonomialOrder.key` of that exponent's unit vector."""
    units = (ev_unchecked(tuple(int(k == i) for k in range(n)), 1) for i in range(n))
    return tuple(reduce(lambda v, d: (v << shift) + d, order.key(u), 0) for u in units)


@dataclass(frozen=True)
class VariableSet:
    """Ordered, distinct variable names; earlier = more significant."""

    names: tuple[str, ...]

    def __post_init__(self):
        if not self.names:
            raise DomainError("variable set must be nonempty")
        if len(set(self.names)) != len(self.names):
            raise DomainError(f"duplicate variable names in {self.names}")
        for name in self.names:
            if not (isinstance(name, str) and name.isascii() and name.isidentifier()):
                raise DomainError(f"variable name {name!r} is not an ASCII identifier")

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise DomainError(f"unknown variable {name!r}") from None

    def exponent_vector(self, exponents) -> ExponentVector:
        ev = ev_make(exponents)
        if len(ev.exponents) != len(self.names):
            raise DimensionError(
                f"expected {len(self.names)} exponents, got {len(ev.exponents)}"
            )
        return ev


@dataclass(frozen=True, slots=True)
class ExponentVector:
    exponents: tuple[int, ...]
    total: int

    def __repr__(self) -> str:  # the tuple's repr, digit-safe
        exps = ", ".join(map(int_str, self.exponents))
        return f"ExponentVector({exps}{',' if len(self.exponents) == 1 else ''})"


_LONG_BITS = 5000  # about 1500 digits: str() is quadratic, so longer ints print by halves
_ten_to = lru_cache(maxsize=64)((10).__pow__)


def int_str(n: int) -> str:
    """str(n), exact beyond the int-string digit limit: a number of more
    than ``_LONG_BITS`` bits, or over the limit, is printed as two halves."""
    if n.bit_length() <= _LONG_BITS:
        try:
            return str(n)
        except ValueError:
            pass
    if n < 0:
        return "-" + int_str(-n)
    half = n.bit_length() * 3 // 20  # about half of n's digits
    high, low = divmod(n, _ten_to(half))
    return int_str(high) + int_str(low).zfill(half)


def num_repr(c) -> str:
    """repr(c), with an int or a Fraction's digits printed by :func:`int_str`."""
    if isinstance(c, Fraction):
        return f"{type(c).__name__}({int_str(c.numerator)}, {int_str(c.denominator)})"
    return int_str(c) if isinstance(c, int) else repr(c)


_new = object.__new__
_set_exponents = ExponentVector.exponents.__set__
_set_total = ExponentVector.total.__set__


def ev_unchecked(exponents: tuple[int, ...], total: int) -> ExponentVector:
    """``ExponentVector(exponents, total)`` without running the frozen
    dataclass ``__init__``: the caller vouches for a tuple of naturals and
    its sum.  The object is the same frozen, hashable class."""
    ev = _new(ExponentVector)
    _set_exponents(ev, exponents)
    _set_total(ev, total)
    return ev


def evs_unchecked(
    exponents: list[tuple[int, ...]], totals: list[int]
) -> list[ExponentVector]:
    """:func:`ev_unchecked` of each exponent tuple and its total, in C: a
    blank object each, then each field set through its slot."""
    evs = list(map(_new, repeat(ExponentVector, len(totals))))
    deque(map(_set_exponents, evs, exponents), 0)  # each set returns None
    deque(map(_set_total, evs, totals), 0)
    return evs


def ev_make(exponents) -> ExponentVector:
    """Build an exponent vector, caching the total degree."""
    exps = tuple(exponents)
    for e in exps:
        if not isinstance(e, int) or e < 0:
            raise DomainError(f"exponents must be naturals, got {e!r}")
    return ev_unchecked(exps, sum(exps))


def ev_add(a: ExponentVector, b: ExponentVector) -> ExponentVector:
    """Componentwise sum; the monomial product."""
    if len(a.exponents) != len(b.exponents):
        raise DimensionError(
            f"dimension mismatch: {len(a.exponents)} vs {len(b.exponents)}"
        )
    return ev_unchecked(tuple(map(add, a.exponents, b.exponents)), a.total + b.total)


def ev_compare(order: MonomialOrder, a: ExponentVector, b: ExponentVector) -> int:
    """Compare two monomials: returns -1 (a < b), 0 (equal) or 1 (a > b).

    Counts nothing; a kernel that compares tallies its own comparisons.
    """
    ea, eb = a.exponents, b.exponents
    if len(ea) != len(eb):
        raise DimensionError(f"dimension mismatch: {len(ea)} vs {len(eb)}")
    if order is MonomialOrder.LEX:
        if ea == eb:
            return 0
        return 1 if ea > eb else -1
    # total-degree orders: cached totals give the O(1) fast path
    if a.total != b.total:
        return 1 if a.total > b.total else -1
    if ea == eb:
        return 0
    if order is MonomialOrder.GRLEX:
        return 1 if ea > eb else -1
    # grevlex: rightmost differing exponent, smaller entry wins
    for x, y in zip(reversed(ea), reversed(eb)):
        if x != y:
            return 1 if x < y else -1
    return 0
