"""Heap-merged sparse multiplication: one stream-merge engine.

:func:`merge_products` is Johnson's (1974) merge of unevaluated products on
the chained heap of Monagan & Pearce (ISSAC 2009).  Given pairs (a_k, b_k)
it yields the terms of sum_k a_k * b_k in scan order.  It is two steps:
:func:`merge_sources`, which every merge in the package passes, takes every
term's packed key and every coefficient from the package's one input check
(:func:`~polycert.poly.checked_keys`: one order, one dimension, strict
descent, int or Fraction coefficients), which takes a held polynomial's
keys and coefficient columns as they are; :func:`merge_streams` runs the
loop on those ints and checks nothing.  Each term a_k[i] seeds one stream
a_k[i] * b_k, walked by a cursor ``[j, a_k[i]'s key, its coefficient, b_k's
keys, b_k's coefficients, len(b_k)]`` and keyed by the sum of the packed
keys of its next product's factors; no cursor holds a monomial.  The heap
holds each distinct key once, as a plain int, and a dict chains to it every
cursor at that key.  A step takes the least key's whole chain and sums its
products, so each yielded term is final, and yields that key and the sum;
each cursor steps in place and joins the chain at its next key, and a new
key takes the spent key's heap slot (heapreplace) or is pushed.  Outside a
counter scope C heapq sifts the keys; inside one, :class:`CountedHeap`
makes C heapq's comparisons and counts each one.  That count and the others
(extractions, products, sums) are tallied at the end, and before each
yielded term only while a scope was open at the last resume, so an unscoped
merge makes one :func:`tally` call.  heapq pops the least key, so max-first
scans negate their keys and min-first scans read each b_k backwards.  A key
is decoded into a monomial (:func:`~polycert.poly.monomials`) only for
:func:`merge_products`' terms and the verifier's witness.

Rationals are merged on integers, as FLINT's ``fmpq_poly`` stores a rational
polynomial over one denominator.  When any coefficient is a Fraction, the
set-up rewrites them as integer numerators over one denominator D
(:func:`_over_one_den`, from a held polynomial's numerators and
denominators), so the loop adds int products, with no gcd; past a bound on
D's length the Fractions are merged as given.  A yielded sum S reads as
``Fraction(S, D)``, and a product keeps S over D: the counts are the same,
and the results compare equal.

The certificate verifier merges (f_i, lambda_i) for every pair and (-1, f).
A product, built whole by :func:`collect` (:func:`mul_heap`,
:func:`~polycert.geobucket.mul_heap_gb`, ``combine``), is merged inside a
counter scope, with its pinned counts (for :func:`mul_heap`, at most #f heap
keys and #f*#g extractions).  Outside one, a dict sums the products by key
(Fateman, SIGSAM Bull. 37(1), 2003) unless a key could reach 2^61 - 1.
Either way the product is held as its keys and sums.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush, heapreplace
from itertools import repeat
from math import lcm
from operator import add, itemgetter, mul, neg, pos
from sys import hash_info
from typing import Callable, Iterable, Iterator

from . import poly
from .counters import _scopes, tally
from .monomial import ExponentVector, MonomialOrder
from .poly import Coefficient, Polynomial

_UNCOUNTED = heappop, heappush, heapreplace  # C heapq


class CountedHeap:
    """C heapq's heappush, heappop and heapreplace, counted: each makes C
    heapq's ``<`` comparisons in its order, leaves its heap, returns its
    object and counts every comparison, as counting keys tick under C heapq."""

    __slots__ = ("comparisons",)

    def __init__(self) -> None:
        self.comparisons = 0

    def push(self, heap: list, item: int) -> None:
        heap.append(item)
        pos, n = len(heap) - 1, 0
        while pos:  # heapq._siftdown to the root
            up = (pos - 1) >> 1
            parent = heap[up]
            n += 1
            if not item < parent:
                break
            heap[pos] = parent
            pos = up
        heap[pos] = item
        self.comparisons += n

    def pop(self, heap: list) -> int:
        last = heap.pop()
        return self.replace(heap, last) if heap else last

    def replace(self, heap: list, item: int) -> int:
        top, end, pos, child, n = heap[0], len(heap), 0, 1, 0
        while child < end:  # heapq._siftup: move the smaller child up to a leaf
            least = heap[child]
            if child + 1 < end:
                right = heap[child + 1]
                n += 1
                if not least < right:
                    child, least = child + 1, right
            heap[pos] = least
            pos, child = child, 2 * child + 1
        while pos:  # then heapq._siftdown to the root
            up = (pos - 1) >> 1
            parent = heap[up]
            n += 1
            if not item < parent:
                break
            heap[pos] = parent
            pos = up
        heap[pos] = item
        self.comparisons += n
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
    its last term, and its counts land in the scopes open while their work
    was done.  The inputs are checked and their keys packed at the call, and
    the loop starts at the first request."""
    return merged_terms(order, descending, _set_up(pairs, order, descending))


def merged_terms(
    order: MonomialOrder, descending: bool, set_up: tuple
) -> Iterator[tuple[ExponentVector, Coefficient]]:
    """The terms of the merge that :func:`_set_up` set up: each key decoded,
    each sum over the set-up's denominator."""
    sources, den, shift, width, _ = set_up
    for key, coeff in merge_streams(sources):  # a max-first merge negates its keys
        (monomial,) = poly.monomials(order, shift, width, [-key if descending else key])
        yield monomial, coeff if den is None else Fraction(coeff, den)


def merge_sources(
    pairs: Iterable[tuple[Polynomial, Polynomial]],
    order: MonomialOrder,
    descending: bool = True,
) -> tuple[list[list], int | None]:
    """The set-up of :func:`merge_products`: one source per pair with no
    empty side, ``[a_k coefficients, b_k coefficients in scan order, their
    signed keys]``, and the common denominator of their coefficients
    (:func:`_over_one_den`), or None when they are as given.  Every
    polynomial passes :func:`~polycert.poly.checked_keys`.  heapq pops the
    least key, so here alone a max-first scan negates each streamed key
    list once; then a key rises along b_k's scan-order list, and along
    a_k's max-first; min-first, a_k's keys fall.  Counts nothing."""
    return _set_up(pairs, order, descending)[:2]


def _set_up(pairs: Iterable, order: MonomialOrder, descending: bool) -> tuple:
    """:func:`merge_sources`, the shift and width of its keys, and a bound
    on its products' total degrees."""
    pairs = list(pairs)
    polys = [p for pair in pairs for p in pair]
    keys, fractions, shift, width, tops, coeffs = poly._checked_keys(order, polys, 2)
    live = [i for i in range(0, len(polys), 2) if keys[i] and keys[i + 1]]
    # a merge with a Fraction runs on integer numerators over one denominator
    over = fractions and _over_one_den([coeffs[i : i + 2] for i in live])
    values = poly.coefficients
    den, sides = over or (None, [(values(*coeffs[i]), values(*coeffs[i + 1])) for i in live])
    sources = [[ca, cb, list(map(neg, keys[i])), list(map(neg, keys[i + 1]))] if descending
               else [ca, cb[::-1], keys[i], keys[i + 1][::-1]] for (ca, cb), i in zip(sides, live)]
    return sources, den, shift, width, max((tops[i] + tops[i + 1] for i in live), default=0)


def _over_one_den(pairs: list[list[tuple]]) -> tuple[int, list] | None:
    """D and the coefficients of each pair, as held, rewritten as integer
    numerators over one denominator D (a held polynomial's make no
    Fraction); or None when D would be over twice as long, in bits, as the
    shortest denominator above 1.  Pair k's sides are scaled by the lcm of
    their own denominators, da_k and db_k, and its a-side also by
    D / (da_k * db_k), where D is the lcm of every da_k * db_k: each
    product, and so each sum, is then D times its value.  The bound keeps
    every numerator within a few times its length: without it,
    pairwise-coprime denominators make a D as long as all of them together.
    Their lcm alone can take longer than the merge, so it stops early."""
    parts = [[_num_den(*side) for side in pair] for pair in pairs]
    sides = [[set(side[1]) for side in s] for s in parts]
    dens = set().union(*(ds for s in sides for ds in s))
    limit = 2 * min((d.bit_length() for d in dens if d != 1), default=1)
    common = 1
    for d in dens:  # each divides D: stop as soon as their lcm is too long
        if (common := lcm(common, d)).bit_length() > limit:
            return None
    side_dens = [[lcm(*ds) for ds in s] for s in sides]
    den = lcm(*{da * db for da, db in side_dens})
    if den.bit_length() > limit:
        return None
    return den, [(_numerators(pa, dsa, da, den // (da * db)), _numerators(pb, dsb, db, 1))
                 for (pa, pb), (dsa, dsb), (da, db) in zip(parts, sides, side_dens)]


def _num_den(nums: list, dens: list | None) -> tuple[list[int], list[int]]:
    """Held coefficients as numerators and denominators, each at least 1."""
    if dens is None:  # values
        return [c.numerator for c in nums], [c.denominator for c in nums]
    return nums, [d or 1 for d in dens]


def _numerators(side: tuple, dens: set[int], side_den: int, scale: int) -> list[int]:
    """Each of `side`'s numerators n over its denominator d, as the int
    n * side_den / d * scale, where `dens` holds every d and side_den is a
    multiple of each; each d's factor is worked out once."""
    nums, side_dens = side
    factor = {d: side_den // d * scale for d in dens}
    return list(map(mul, nums, map(factor.__getitem__, side_dens)))


def merge_streams(sources: list[list]) -> Iterator[tuple[int, Coefficient]]:
    """The loop of :func:`merge_products` over :func:`merge_sources`' set-up,
    yielding each nonzero term as its chain's (signed) key and its sum."""
    port = CountedHeap()
    counted = port.pop, port.push, port.replace
    scopes = _scopes.get
    scoped = scopes()  # the scopes open at the last resume
    pop, push, replace = counted if scoped else _UNCOUNTED
    heap, chains = [], {}  # each distinct key once; key -> the cursors at it
    for ca, cb, ka, kb in sources:
        for c, ki in zip(ca, ka):
            chain = chains.setdefault(ki + kb[0], [])
            if not chain:
                push(heap, ki + kb[0])
            # [j, a[i]'s key and coefficient, b's keys, coefficients and length]
            chain.append([0, ki, c, kb, cb, len(kb)])
    # Each entry taken is one product and steps its cursor at most once, so
    # the live cursors never outnumber the seeded ones: the peak, tallied first.
    peak, pops, adds = sum(len(s[0]) for s in sources), 0, 0

    while heap:
        top = heap[0]
        chain = chains.pop(top)
        pops += len(chain)
        adds += len(chain) - 1
        coeff, replaced = 0, False
        for cursor in chain:
            j, ki, ca, kb, cb, n = cursor
            coeff += ca * cb[j]
            j += 1
            if j < n:  # the stream goes on: step the cursor in place
                cursor[0] = j
                key = ki + kb[j]
                tied = chains.get(key)
                if tied is not None:
                    tied.append(cursor)
                else:  # a new key: the first takes the spent top's slot
                    chains[key] = [cursor]
                    (push if replaced else replace)(heap, key)
                    replaced = True
        if not replaced:
            pop(heap)
        if coeff != 0:
            if scoped:  # else the counts since the last resume belong to no scope
                tally(adds, pops, pops, peak, port.comparisons)
            peak = pops = adds = port.comparisons = 0
            yield top, coeff
            # scopes open or close only here: sift counted while any is open
            pop, push, replace = counted if (scoped := scopes()) else _UNCOUNTED
    tally(adds, pops, pops, peak, port.comparisons)


def collect(order: MonomialOrder, set_up: Callable[[bool], tuple]) -> Polynomial:
    """sum a_k * b_k over the pairs that ``set_up(descending)`` checks and
    sets up (:func:`_set_up`), held as its keys and sums over the merge's
    denominator: summed by key in a dict outside a counter scope, when no
    key reaches ``sys.hash_info.modulus``, else merged."""
    scoped = bool(_scopes.get())
    sources, den, shift, width, top = set_up(scoped)  # max-first only for the counted heap
    largest = 0 if scoped else max((ka[0] + kb[-1] for _, _, ka, kb in sources), default=0)
    if not scoped and largest < hash_info.modulus:  # below it, distinct ints hash distinctly
        acc: dict[int, Coefficient] = {}
        get = acc.get
        for ca, cb, ka, kb in sources:
            for c, k in zip(ca, ka):  # ``mul``, as int.__mul__(Fraction) is NotImplemented
                for key, s in zip(map(add, repeat(k), kb), map(mul, repeat(c), cb)):
                    acc[key] = get(key, 0) + s
        keys = sorted(filter(acc.__getitem__, acc), reverse=True)
        sums = list(map(acc.__getitem__, keys))
        tally()  # as an unscoped merge's one tally, into no scope
    else:
        terms = list(merge_streams(sources))[:: 1 if scoped else -1]  # min-first: reversed
        keys = list(map(neg if scoped else pos, map(itemgetter(0), terms)))  # max-first: negated
        sums = list(map(itemgetter(1), terms))
    dens = [den] * len(keys) if den and keys else None  # an empty product holds no Fraction
    return poly.poly_from_keys(order, shift, keys, width if keys else 0, top, sums, dens)


def mul_heap(f: Polynomial, g: Polynomial) -> Polynomial:
    """Johnson multiplication, f giving the streams and g the term list (:func:`collect`)."""
    return collect(f.order, lambda descending: _set_up([(f, g)], f.order, descending))
