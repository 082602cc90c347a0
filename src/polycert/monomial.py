"""Exponent vectors over a fixed variable set, and monomial orders.

Variable precedence is fixed at :class:`VariableSet` construction: earlier
names are more significant (the "main" variable comes first).  Exponent
vectors cache their total degree so that total-degree orders can compare
totals in O(1) before falling back to a positional scan.

:meth:`MonomialOrder.key` writes each order as a tuple linear in the
exponents, so :func:`key_packer` packs it into one int per monomial as a
dot product of the exponents with one cached weight vector per order and
base; sorts wrap that int in a counting key only inside a counter scope.
Exponents, totals and keys are plain ints, so any degree (x^1000000000 and
friends) is fine.  :func:`ev_unchecked` builds an exponent vector without
the dataclass ``__init__`` where the exponents are known to be valid.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from operator import add, mul

from .counters import tick_comparison
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


def key_packer(order: MonomialOrder, evs: list[ExponentVector], summands: int = 1):
    """Pack :meth:`MonomialOrder.key` of any of `evs` into one int, in base
    B = 2^s above any digit of a sum of `summands` keys (no digit exceeds a
    total).  A key's digits after the first share one sign, so lower digits
    never outweigh a higher one: int ``<`` orders as the order, and int ``+``
    of packed keys packs the monomial product.

    The key is linear in the exponents, so the packed int is their dot
    product with one weight per variable, cached per order, length and base
    (:func:`_weights`): exponent i of n weighs B^(n-1-i) in lex,
    B^n + B^(n-1-i) in grlex (its share of the total digit plus its own
    digit) and B^n - B^i in grevlex (the total digit less its reversed,
    negated digit)."""
    if len({len(ev.exponents) for ev in evs}) > 1:
        raise DimensionError("exponent vectors of mixed lengths")
    shift = (summands * max((ev.total for ev in evs), default=0)).bit_length()
    weights = _weights(order, len(evs[0].exponents) if evs else 0, shift)

    def pack(ev: ExponentVector) -> int:
        return sum(map(mul, ev.exponents, weights))

    return pack


@lru_cache(maxsize=64)
def _weights(order: MonomialOrder, n: int, shift: int) -> tuple[int, ...]:
    """:func:`key_packer`'s weight per exponent, in base 2^shift."""
    place = [1 << (shift * i) for i in range(n + 1)]  # B^0 .. B^n
    if order is MonomialOrder.LEX:
        return tuple(place[n - 1 - i] for i in range(n))
    if order is MonomialOrder.GRLEX:
        return tuple(place[n] + place[n - 1 - i] for i in range(n))
    return tuple(place[n] - place[i] for i in range(n))  # grevlex


@dataclass(frozen=True)
class VariableSet:
    """Ordered, distinct variable names; earlier = more significant."""

    names: tuple[str, ...]

    def __post_init__(self):
        if not self.names:
            raise DomainError("variable set must be nonempty")
        if len(set(self.names)) != len(self.names):
            raise DomainError(f"duplicate variable names in {self.names}")

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

    def __repr__(self) -> str:
        return f"ExponentVector{self.exponents}"


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

    Counts as one monomial comparison in any open instrumentation scope.
    """
    ea, eb = a.exponents, b.exponents
    if len(ea) != len(eb):
        raise DimensionError(f"dimension mismatch: {len(ea)} vs {len(eb)}")
    tick_comparison()
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
