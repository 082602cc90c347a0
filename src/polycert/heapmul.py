"""Heap-merged sparse multiplication: one stream-merge engine.

:func:`merge_products` is Johnson's (1974) merge of unevaluated products.
Given pairs (a_k, b_k) it yields the terms of sum_k a_k * b_k in scan order.
Each term of a_k seeds one stream a_k[i] * b_k whose cursor walks b_k's term
list, so "the rest of b_k" costs nothing to represent.  One binary heap
holds every stream, keyed by the sum of the packed keys (:func:`key_packer`)
of the factors of its next product term, so no monomial is built before it
is yielded.  Outside a counter scope the keys are plain ints that heapq
compares in C; inside one, counting keys with the same order and ties make
and tick the same comparisons.  Every other count (extractions, products,
sums) is kept in local ints and tallied right before each yielded term and
once at the end.  The heap never holds more than one entry per stream, and
every stream entry is extracted exactly once.  Equal monomials are extracted
back to back and their coefficients summed, so each yielded term is final
and the output is built by O(1) appends.  heapq pops the least key:
max-first scans negate the keys, min-first scans negate nothing and read
every b_k from its trailing end.

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
from typing import Iterable, Iterator

from . import poly
from .counters import key_factory, tally
from .errors import OrderMismatchError
from .geobucket import Geobucket
from .monomial import ExponentVector, MonomialOrder, ev_add, key_packer
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
    its last term.  Counts are tallied right before each yield and once at
    the end, so they land in the scopes open while their work was done.
    """
    sources = []  # per pair: a_k terms, b_k terms in scan order, their keys
    for a, b in pairs:
        bt = b.terms if descending else b.terms[::-1]
        if bt:
            sources.append([a.terms, bt])
    pack = key_packer(order, [t.degrees for s in sources for ts in s for t in ts], 2)
    sign, wrap = -1 if descending else 1, key_factory()
    for s in sources:
        s += [[sign * pack(t.degrees) for t in ts] for ts in s]
    heap = []
    for k, (_, _, ka, kb) in enumerate(sources):
        for i, ki in enumerate(ka):
            heappush(heap, (wrap(ki + kb[0]), k, i, 0))
    # A step pops an entry before it pushes at most that stream's successor,
    # so the heap never outgrows its seeded size: the peak, which the first
    # tally reports.  Each pop is one product.
    peak, pops, adds = len(heap), 0, 0

    first: tuple[Term, Term] | None = None  # factors of the tie group's first entry
    while heap:
        key, k, i, j = heappop(heap)
        pops += 1
        a_terms, bt, ka, kb = sources[k]
        at, bj = a_terms[i], bt[j]
        c = at.coeff * bj.coeff
        if j + 1 < len(bt):
            heappush(heap, (wrap(ka[i] + kb[j + 1]), k, i, j + 1))
        if first is None:
            first, coeff = (at, bj), c
        else:
            adds += 1
            coeff = coeff + c
        if not heap or heap[0][0] != key:
            if coeff != 0:
                tally(adds, pops, pops, peak)
                peak = pops = adds = 0
                yield ev_add(first[0].degrees, first[1].degrees), coeff
                if key_factory() is not wrap:  # resumed with scopes opened or closed
                    wrap = key_factory()
                    heap = [(wrap(e[0]), *e[1:]) for e in heap]
            first = None
    tally(adds, pops, pops, peak)


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
