"""Heap-merged sparse multiplication: one stream-merge engine.

:func:`merge_products` is Johnson's (1974) merge of unevaluated products.
Given pairs (a_k, b_k) it yields the terms of sum_k a_k * b_k in scan
order.  Each term of a_k seeds one stream a_k[i] * b_k whose cursor walks
b_k's term list, so "the rest of b_k" costs nothing to represent.  One
binary heap holds every stream, keyed by the summed order keys of the
factors of the stream's next product term (:meth:`MonomialOrder.key` is
linear), so no monomial is built before it is yielded.  The heap never holds
more than one entry per stream, and every stream entry is extracted exactly
once.  Equal monomials are extracted back to back and their coefficients
summed, so each yielded term is final and the output is built by O(1)
appends.  heapq pops the least key: max-first scans negate the keys,
min-first scans negate nothing and read every b_k from its trailing end.

Every product in the package is a thin consumer of the engine:
:func:`mul_heap` merges the single pair (f, g) with #f heap entries and
#f*#g extractions; the geobucket routes of :func:`mul_heap_gb` convert the
geobucket to a list first, stream each nonempty bucket as its own pair (up
to #f * #buckets heap entries), or fold small buckets into one list and
stream the large ones; the certificate verifier merges (f_i, lambda_i) for
every pair.
"""

from __future__ import annotations

from enum import Enum
from heapq import heappop, heappush
from operator import add
from typing import Iterable, Iterator

from . import poly
from .counters import (
    record_heap_size,
    tick_coeff_add,
    tick_coeff_mul,
    tick_heap_extraction,
)
from .errors import DimensionError, OrderMismatchError
from .geobucket import Geobucket
from .monomial import ExponentVector, MonomialOrder, OrderKey, ev_add
from .poly import Coefficient, Polynomial, Term


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
    def scan_keys(terms: tuple[Term, ...]) -> list[tuple[int, ...]]:
        sign = -1 if descending else 1
        return [tuple(sign * e for e in order.key(t.degrees)) for t in terms]

    sources = []  # per pair: a_k terms, b_k terms in scan order, their keys
    for a, b in pairs:
        bt = b.terms if descending else b.terms[::-1]
        if bt:
            sources.append((a.terms, bt, scan_keys(a.terms), scan_keys(bt)))
    if len({len(kt) for _, _, ka, kb in sources for kt in ka + kb}) > 1:
        raise DimensionError("exponent vectors of mixed lengths")
    heap = []
    for k, (_, _, ka, kb) in enumerate(sources):
        for i, ki in enumerate(ka):
            heappush(heap, (OrderKey(map(add, ki, kb[0])), k, i, 0))
    # A step pops an entry before it pushes at most that stream's successor,
    # so the heap never outgrows its seeded size: this is its peak.
    record_heap_size(len(heap))

    first: tuple[Term, Term] | None = None  # factors of the tie group's first entry
    while heap:
        key, k, i, j = heappop(heap)
        tick_heap_extraction()
        a_terms, bt, ka, kb = sources[k]
        at, bj = a_terms[i], bt[j]
        tick_coeff_mul()
        c = at.coeff * bj.coeff
        if j + 1 < len(bt):
            heappush(heap, (OrderKey(map(add, ka[i], kb[j + 1])), k, i, j + 1))
        if first is None:
            first, coeff = (at, bj), c
        else:
            tick_coeff_add()
            coeff = coeff + c
        if not heap or heap[0][0] != key:
            if coeff != 0:
                yield ev_add(first[0].degrees, first[1].degrees), coeff
            first = None


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
