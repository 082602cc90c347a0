"""Heap-merged sparse multiplication: one stream-merge engine.

:func:`merge_products` is Johnson's (1974) merge of unevaluated products.
Given pairs (a_k, b_k) it yields the terms of sum_k a_k * b_k in scan
order.  Each term of a_k seeds one stream a_k[i] * b_k whose cursor walks
b_k's term list, so "the rest of b_k" costs nothing to represent.  One
binary heap, keyed by the monomial of each stream's next product term,
holds every stream; it never holds more than one entry per stream, and every
stream entry is extracted exactly once.  Equal monomials are extracted back
to back and their coefficients summed, so each yielded term is final and
the output is built by O(1) appends.  Min-first scans read every b_k from
its trailing end and invert the comparison.

Every product in the package is a thin consumer of the engine:
:func:`mul_heap` merges the single pair (f, g) with #f heap entries and
#f*#g extractions; the geobucket routes of :func:`mul_heap_gb` convert the
geobucket to a list first, stream each nonempty bucket as its own pair (up
to #f * #buckets heap entries), or fold small buckets into one list and
stream the large ones; the certificate verifier merges (f_i, lambda_i) for
every pair.
"""

from __future__ import annotations

import heapq
from enum import Enum
from typing import Iterable, Iterator

from . import poly
from .counters import (
    record_heap_size,
    tick_coeff_add,
    tick_coeff_mul,
    tick_heap_extraction,
)
from .errors import OrderMismatchError
from .geobucket import Geobucket
from .monomial import ExponentVector, MonomialOrder, ev_add, ev_compare
from .poly import Coefficient, Polynomial, Term


class _HeapKey:
    """Wraps an exponent vector so heapq pops the extremal monomial first."""

    __slots__ = ("ev", "order", "descending")

    def __init__(self, ev: ExponentVector, order: MonomialOrder, descending: bool):
        self.ev = ev
        self.order = order
        self.descending = descending

    def __eq__(self, other) -> bool:
        return self.ev.exponents == other.ev.exponents

    def __lt__(self, other) -> bool:
        c = ev_compare(self.order, self.ev, other.ev)
        return c > 0 if self.descending else c < 0


def merge_products(
    pairs: Iterable[tuple[Polynomial, Polynomial]],
    order: MonomialOrder,
    descending: bool = True,
) -> Iterator[tuple[ExponentVector, Coefficient]]:
    """Yield the nonzero (monomial, coeff) terms of sum a_k * b_k in scan order.

    Scan order is greatest monomial first when `descending`, else smallest
    first.  Each yielded term sums every stream entry at its monomial, and
    nothing past it is extracted until the next term is requested, so a
    consumer that stops early has extracted exactly the entries at or before
    its last term.  Ticks land in the counter scopes open at each step.
    """
    heappush, heappop = heapq.heappush, heapq.heappop
    a_terms: list[tuple[Term, ...]] = []
    b_terms: list[tuple[Term, ...]] = []
    heap: list[tuple[_HeapKey, tuple[int, int, int]]] = []
    for a, b in pairs:
        bt = b.terms if descending else b.terms[::-1]
        if not bt:
            continue
        k = len(a_terms)
        a_terms.append(a.terms)
        b_terms.append(bt)
        for i, at in enumerate(a.terms):
            key = _HeapKey(ev_add(at.degrees, bt[0].degrees), order, descending)
            heappush(heap, (key, (k, i, 0)))
    # A step pops an entry before it pushes at most that stream's successor,
    # so the heap never outgrows its seeded size: this is its peak.
    record_heap_size(len(heap))

    ev: ExponentVector | None = None  # monomial of the tie group being summed
    while heap:
        key, (k, i, j) = heappop(heap)
        tick_heap_extraction()
        at, bt = a_terms[k][i], b_terms[k]
        tick_coeff_mul()
        c = at.coeff * bt[j].coeff
        if j + 1 < len(bt):
            nxt = _HeapKey(ev_add(at.degrees, bt[j + 1].degrees), order, descending)
            heappush(heap, (nxt, (k, i, j + 1)))
        if ev is None:
            ev, coeff = key.ev, c
        else:
            tick_coeff_add()
            coeff = coeff + c
        if not heap or heap[0][0].ev.exponents != ev.exponents:
            if coeff != 0:
                yield ev, coeff
            ev = None


class GbRoute(Enum):
    CONVERT_FIRST = "convert"
    PER_BUCKET_STREAMS = "per-bucket"
    HYBRID = "hybrid"


def _collect(
    order: MonomialOrder, pairs: list[tuple[Polynomial, Polynomial]]
) -> Polynomial:
    terms = merge_products(pairs, order)
    return Polynomial(order, tuple(Term(ev, c) for ev, c in terms))


def mul_heap(f: Polynomial, g: Polynomial) -> Polynomial:
    """Johnson multiplication: f supplies the streams, g the term list."""
    if f.order is not g.order:
        raise OrderMismatchError(f"{f.order} vs {g.order}")
    return _collect(f.order, [(f, g)])


def mul_heap_gb(
    f: Polynomial,
    g: Geobucket,
    route: GbRoute = GbRoute.CONVERT_FIRST,
    hybrid_threshold: int = 16,
) -> Polynomial:
    """Multiply f by the value of a geobucket without caller-side conversion."""
    if f.order is not g.order:
        raise OrderMismatchError(f"{f.order} vs {g.order}")
    if route is GbRoute.CONVERT_FIRST:
        return mul_heap(f, g.normalize())
    if route is GbRoute.PER_BUCKET_STREAMS:
        lists = [bk for bk in g.buckets[1:] if bk.terms]
    else:  # hybrid: fold small buckets into one list, stream large ones
        small = poly.zero(g.order)
        lists = []
        for bk in g.buckets[1:]:
            if not bk.terms:
                continue
            if len(bk.terms) <= hybrid_threshold:
                small = poly.add(small, bk)
            else:
                lists.append(bk)
        if small.terms:
            lists.append(small)
    return _collect(f.order, [(f, bk) for bk in lists])
