"""Heap-merged sparse multiplication: one stream-merge engine.

:func:`merge_products` is Johnson's (1974) merge of unevaluated products on
the chained heap of Monagan & Pearce (ISSAC 2009).  Given pairs (a_k, b_k)
it yields the terms of sum_k a_k * b_k in scan order.  It is two steps:
:func:`merge_sources`, which every merge in the package passes, packs every
term's key once and checks every input on those keys (one order, one
dimension, strict descent), and :func:`merge_streams` runs the loop on them
and checks nothing.  Each term of a_k seeds one stream a_k[i] * b_k whose
cursor walks b_k's term list, so "the rest of b_k" costs nothing to
represent.  A stream entry is keyed by the sum of the packed keys
(:func:`key_packer`) of its next product's factors, so no monomial is built
before it is yielded.  The heap holds each distinct key once, as a plain
int, and a dict chains to it every entry at that key.  A step takes the
least key's whole chain and sums its products, so each yielded term is final
and the output is built by O(1) appends; each entry's successor joins the
chain at its key, and a new key takes the spent key's heap slot
(heapreplace) or is pushed.  Every stream entry is extracted exactly once.
Outside a counter scope C heapq sifts the keys; inside one,
:class:`CountedHeap`, a line-for-line port of heapq's push, pop and replace,
makes the same comparisons and counts every one in a local int.  That count and every other one (extractions, products, sums) are
tallied once at the end, and right before each yielded term only while a
scope was open at the last resume; with none open, the counts since then
belong to no scope and are dropped, so an unscoped merge makes one
:func:`tally` call.  Yielded monomials (:func:`ev_unchecked`) and
collected product terms (:func:`term_unchecked`) are built without the
frozen dataclass ``__init__``.  heapq pops the least key: max-first scans
negate the keys, min-first scans negate nothing and read every b_k from its
trailing end.

Every product in the package is a thin consumer of the engine:
:func:`mul_heap` merges the single pair (f, g) with at most #f heap keys and
#f*#g extractions; :func:`mul_heap_gb` adds the buckets of a geobucket up
to a fold threshold, which its route picks, into one list and streams that
and each larger bucket as its own pair; the certificate verifier sets up
(f_i, lambda_i) for every pair and (-1, f), then merges them.
"""

from __future__ import annotations

from enum import Enum
from heapq import heappop, heappush, heapreplace
from itertools import starmap
from math import inf
from operator import add, gt, lt
from typing import Iterable, Iterator

from . import poly
from .counters import _scopes, tally
from .errors import FormatError, OrderMismatchError
from .geobucket import Geobucket
from .monomial import ExponentVector, MonomialOrder, ev_unchecked, key_packer
from .poly import Coefficient, Polynomial, term_unchecked

_UNCOUNTED = heappop, heappush, heapreplace  # C heapq


def _sift_to_root(heap: list, pos: int) -> int:
    """heapq._siftdown(heap, 0, pos); returns its comparisons."""
    item, n = heap[pos], 0
    while pos:
        up = (pos - 1) >> 1
        parent = heap[up]
        n += 1
        if not item < parent:
            break
        heap[pos] = parent
        pos = up
    heap[pos] = item
    return n


class CountedHeap:
    """CPython's heappush / heappop / heapreplace ported line for line.

    It makes C heapq's ``<`` comparisons, leaves its heap, and counts every
    comparison: as many as counting keys would tick under C heapq.
    """

    __slots__ = ("comparisons",)

    def __init__(self) -> None:
        self.comparisons = 0

    def push(self, heap: list, item: int) -> None:
        heap.append(item)
        self.comparisons += _sift_to_root(heap, len(heap) - 1)

    def pop(self, heap: list) -> int:
        last = heap.pop()
        return self.replace(heap, last) if heap else last

    def replace(self, heap: list, item: int) -> int:
        top, end, pos, child, n = heap[0], len(heap), 0, 1, 0
        while child < end:  # heapq._siftup: move the smaller child up to a leaf
            if child + 1 < end:
                n += 1
                if not heap[child] < heap[child + 1]:
                    child += 1
            heap[pos] = heap[child]
            pos, child = child, 2 * child + 1
        heap[pos] = item
        self.comparisons += n + _sift_to_root(heap, pos)
        return top


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
    its last term.  Counts are tallied once at the end and, while a scope
    was open at the last resume, right before each yield, so they land in
    the scopes open while their work was done.  The inputs are checked and
    their keys packed at the call, and the loop starts at the first request.
    """
    return merge_streams(merge_sources(pairs, order, descending))


def merge_sources(
    pairs: Iterable[tuple[Polynomial, Polynomial]],
    order: MonomialOrder,
    descending: bool = True,
) -> list[list]:
    """The set-up of :func:`merge_products`: one source per pair with no
    empty side, ``[a_k terms, b_k terms in scan order, their signed keys]``.

    Every polynomial of every pair, empty or not, must be in `order` (else
    ``OrderMismatchError``), of one dimension (one :func:`key_packer` packs
    every term, else ``DimensionError``) and strictly decreasing (else
    ``FormatError``): a key is the packed int, negated when `descending`, so
    it rises along b_k's scan-order list, and along a_k's max-first;
    min-first, a_k's keys fall.  Counts nothing.
    """
    lists = []
    for a, b in pairs:
        if a.order is not order or b.order is not order:
            raise OrderMismatchError(f"{a.order}, {b.order} in a {order} merge")
        lists.append([a.terms, b.terms if descending else b.terms[::-1]])
    pack = key_packer(order, [t.degrees for s in lists for ts in s for t in ts], 2)
    sign, a_rises = (-1, lt) if descending else (1, gt)
    sources = []
    for s in lists:
        ka, kb = ([sign * pack(t.degrees) for t in ts] for ts in s)
        if not (all(map(lt, kb, kb[1:])) and all(map(a_rises, ka, ka[1:]))):
            raise FormatError("terms not strictly decreasing")
        if ka and kb:
            sources.append(s + [ka, kb])
    return sources


def merge_streams(sources: list[list]) -> Iterator[tuple[ExponentVector, Coefficient]]:
    """The loop of :func:`merge_products` over :func:`merge_sources`' sources."""
    port = CountedHeap()
    counted = port.pop, port.push, port.replace
    scopes = _scopes.get
    scoped = scopes()  # the scopes open at the last resume
    pop, push, replace = counted if scoped else _UNCOUNTED
    heap, chains = [], {}  # each distinct key once; key -> its (k, i, j) entries
    for k, (_, _, ka, kb) in enumerate(sources):
        for i, ki in enumerate(ka):
            chain = chains.setdefault(ki + kb[0], [])
            if not chain:
                push(heap, ki + kb[0])
            chain.append((k, i, 0))
    # Each entry taken is one product and adds at most one successor, so the
    # live entries never outnumber the seeded ones: the peak, tallied first.
    peak, pops, adds = sum(len(s[0]) for s in sources), 0, 0

    while heap:
        chain = chains.pop(heap[0])
        pops += len(chain)
        adds += len(chain) - 1
        coeff, replaced = 0, False
        for k, i, j in chain:
            a_terms, bt, ka, kb = sources[k]
            coeff += a_terms[i].coeff * bt[j].coeff
            if j + 1 < len(bt):
                key = ka[i] + kb[j + 1]
                if key in chains:
                    chains[key].append((k, i, j + 1))
                else:  # a new key: the first takes the spent top's slot
                    chains[key] = [(k, i, j + 1)]
                    (push if replaced else replace)(heap, key)
                    replaced = True
        if not replaced:
            pop(heap)
        if coeff != 0:  # the last entry taken names the chain's monomial
            if scoped:  # else the counts since the last resume belong to no scope
                tally(adds, pops, pops, peak, port.comparisons)
            peak = pops = adds = port.comparisons = 0
            da, db = a_terms[i].degrees, bt[j].degrees  # packed: equal lengths
            exps = tuple(map(add, da.exponents, db.exponents))
            yield ev_unchecked(exps, da.total + db.total), coeff
            # scopes open or close only here: sift counted while any is open
            pop, push, replace = counted if (scoped := scopes()) else _UNCOUNTED
    tally(adds, pops, pops, peak, port.comparisons)


class GbRoute(Enum):
    CONVERT_FIRST = "convert"
    PER_BUCKET_STREAMS = "per-bucket"
    HYBRID = "hybrid"


def collect(order: MonomialOrder, sources: list[list]) -> Polynomial:
    """The polynomial of the terms :func:`merge_streams` yields from `sources`."""
    return Polynomial(order, tuple(starmap(term_unchecked, merge_streams(sources))))


def mul_heap(f: Polynomial, g: Polynomial) -> Polynomial:
    """Johnson multiplication: f supplies the streams, g the term list."""
    return collect(f.order, merge_sources([(f, g)], f.order))


def mul_heap_gb(
    f: Polynomial,
    g: Geobucket,
    route: GbRoute | str = GbRoute.CONVERT_FIRST,
    hybrid_threshold: int = 16,
) -> Polynomial:
    """Multiply f by the value of a geobucket without caller-side conversion,
    by `route`, a :class:`GbRoute` or its value (any other: ValueError).  The
    buckets within the route's fold size (all for convert, none for
    per-bucket, up to `hybrid_threshold` terms for hybrid) are added into
    one list, streamed after each larger bucket."""
    fold = {GbRoute.CONVERT_FIRST: inf, GbRoute.PER_BUCKET_STREAMS: 0,
            GbRoute.HYBRID: hybrid_threshold}[GbRoute(route)]
    small, lists = poly.zero(g.order), []
    for bk in g.buckets[1:]:
        if len(bk.terms) <= fold:
            small = poly.add_unchecked(small, bk)
        else:
            lists.append(bk)
    return collect(f.order, merge_sources([(f, bk) for bk in lists + [small]], f.order))
