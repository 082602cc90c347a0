"""Heap-merged sparse multiplication: one stream-merge engine.

:func:`merge_products` is Johnson's (1974) merge of unevaluated products on
the chained heap of Monagan & Pearce (ISSAC 2009).  Given pairs (a_k, b_k)
it yields the terms of sum_k a_k * b_k in scan order.  It is two steps:
:func:`merge_sources`, which every merge in the package passes, takes every
term's packed key from the package's one input check
(:func:`~polycert.poly.checked_keys`: one order, one dimension, strict
descent, int or Fraction coefficients), which packs them or takes the keys
a parsed polynomial keeps, and :func:`merge_streams` runs the loop on them
and checks nothing.  Each term a_k[i] seeds one stream
a_k[i] * b_k, walked by a cursor that holds its position in b_k, a_k[i]'s
key, coefficient and monomial, and b_k's keys, coefficients and terms, so a
step looks nothing up but its next key.  A cursor is keyed by the sum of the
packed keys of its next product's factors, so no monomial is built before
its term is yielded.  The heap holds each distinct key once, as a plain int,
and a dict chains to it every cursor at that key.  A step takes the least
key's whole chain and sums its products, so each yielded term is final,
and yields it as its two factor monomials and its coefficient; each cursor
steps in place and joins the chain at its next key, and a new key
takes the spent key's heap slot (heapreplace) or is pushed.  Outside a
counter scope C heapq sifts the keys; inside one, :class:`CountedHeap` makes
C heapq's comparisons and counts each one.  That count and the others
(extractions, products, sums) are tallied at the end, and before each
yielded term only while a scope was open at the last resume, so an unscoped
merge makes one :func:`tally` call.  heapq pops the least key, so max-first
scans negate their keys and min-first scans read each b_k backwards.

Rationals are merged on integers, as FLINT's ``fmpq_poly`` stores a rational
polynomial over one denominator.  When any coefficient is a Fraction, the
set-up rewrites them as integer numerators over one denominator D
(:func:`_over_one_den`, from the numerators and denominators a parsed
section holds), so the loop adds int products, with no gcd, and makes one
``Fraction(S, D)`` per yielded term; past the bound on D's length the
Fractions are merged as given.  Either way the counts are the same and the
results compare equal (a yielded sum of int products alone, in a merge with
a Fraction, is a Fraction over 1).

The certificate verifier merges (f_i, lambda_i) for every pair and (-1, f).
A product, built whole by :func:`collect` (:func:`mul_heap`,
:func:`~polycert.geobucket.mul_heap_gb`, ``combine``), is merged inside a
counter scope, with its pinned counts (for :func:`mul_heap`, at most #f heap
keys and #f*#g extractions).  Outside one the heap's few live entries, scan
order and early stop pay nothing, so a dict sums the products by key
(Fateman, SIGSAM Bull. 37(1), 2003) unless a key could reach 2^61 - 1.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush, heapreplace
from itertools import repeat
from math import lcm
from operator import add, attrgetter, itemgetter, mul, neg
from sys import hash_info
from typing import Callable, Iterable, Iterator

from . import poly
from .counters import _scopes, tally
from .monomial import ExponentVector, MonomialOrder, ev_add, unpack_columns
from .poly import Coefficient, Polynomial, Term, terms_unchecked

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
    terms = merge_streams(*merge_sources(pairs, order, descending))
    return ((ev_add(da, db), c) for da, db, c in terms)


def merge_sources(
    pairs: Iterable[tuple[Polynomial, Polynomial]],
    order: MonomialOrder,
    descending: bool = True,
) -> tuple[list[list], int | None]:
    """The set-up of :func:`merge_products`: one source per pair with no
    empty side, ``[a_k terms, b_k terms in scan order, their signed keys]``,
    and the common denominator of their coefficients (:func:`_over_one_den`),
    or None when the coefficients are as given.

    Every polynomial of every pair, empty or not, passes
    :func:`~polycert.poly.checked_keys`, whose keys order as the monomial
    order.  heapq pops the least key, so here alone a max-first scan negates
    each streamed key list once; then a key rises along b_k's scan-order
    list, and along a_k's max-first; min-first, a_k's keys fall.  Counts
    nothing."""
    return _set_up(pairs, order, descending)[:2]


def _set_up(pairs: Iterable, order: MonomialOrder, descending: bool) -> tuple:
    """:func:`merge_sources`, and the shift of its keys and their sums."""
    pairs = list(pairs)
    polys = [p for pair in pairs for p in pair]
    keys, fractions, shift = poly._checked_keys(order, polys, 2)
    live = [(a, b, ka, kb) for (a, b), ka, kb in zip(pairs, keys[::2], keys[1::2]) if ka and kb]
    # a merge with a Fraction runs on integer numerators over one denominator
    over = fractions and _over_one_den([(a, b) for a, b, _, _ in live])
    den, sides = over or (None, [(a.terms, b.terms) for a, b, _, _ in live])
    sources = [[ta, tb, list(map(neg, ka)), list(map(neg, kb))] if descending
               else [ta, tb[::-1], ka, kb[::-1]] for (ta, tb), (_, _, ka, kb) in zip(sides, live)]
    return sources, den, shift


def _over_one_den(pairs: list[tuple[Polynomial, Polynomial]]) -> tuple[int, list] | None:
    """D and the terms of each pair, each coefficient an integer numerator
    over one denominator D, read from :func:`~polycert.poly.fraction_columns`
    (a parsed rational section makes no Fraction); or None when D would be
    over twice as long, in bits, as the shortest denominator above 1.

    Pair k's sides are scaled by the lcm of their own denominators, da_k
    and db_k, and its a-side also by D / (da_k * db_k), where D is the lcm
    of every da_k * db_k: each product, and so each sum, is then D times
    its value.  The bound keeps every numerator within a few times its
    length: without it, pairwise-coprime denominators make a D as long as
    all of them together, and so does the f of a certificate over them.
    Their lcm alone can take longer than the merge, so it stops early."""
    parts = [[poly.fraction_columns(p) for p in pair] for pair in pairs]
    sides = [[set(side[2]) for side in s] for s in parts]
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


def _numerators(side: tuple, dens: set[int], side_den: int, scale: int) -> list[Term]:
    """The terms of `side` (monomials, numerators n, denominators d), each
    coefficient the int n * side_den / d * scale, where `dens` holds every d
    and side_den is a multiple of each; each d's factor is worked out once."""
    monomials, nums, side_dens = side
    factor = {d: side_den // d * scale for d in dens}
    return terms_unchecked(monomials, list(map(mul, nums, map(factor.__getitem__, side_dens))))


def merge_streams(
    sources: list[list], den: int | None = None
) -> Iterator[tuple[ExponentVector, ExponentVector, Coefficient]]:
    """The loop of :func:`merge_products` over :func:`merge_sources`' set-up,
    yielding each nonzero term as ``(a monomial, b monomial, sum)``, the
    monomials of the last product summed, whose product is the term's: the
    sum S is ``Fraction(S, den)`` unless `den` is None."""
    port = CountedHeap()
    counted = port.pop, port.push, port.replace
    scopes = _scopes.get
    scoped = scopes()  # the scopes open at the last resume
    pop, push, replace = counted if scoped else _UNCOUNTED
    heap, chains = [], {}  # each distinct key once; key -> the cursors at it
    for a_terms, bt, ka, kb in sources:
        cb = [t.coeff for t in bt]
        for a, ki in zip(a_terms, ka):
            chain = chains.setdefault(ki + kb[0], [])
            if not chain:
                push(heap, ki + kb[0])
            # [j, a[i]'s key and coeff, b's keys, coeffs and length, a[i]'s monomial, b's terms]
            chain.append([0, ki, a.coeff, kb, cb, len(kb), a.degrees, bt])
    # Each entry taken is one product and steps its cursor at most once, so
    # the live cursors never outnumber the seeded ones: the peak, tallied first.
    peak, pops, adds = sum(len(s[0]) for s in sources), 0, 0

    while heap:
        chain = chains.pop(heap[0])
        pops += len(chain)
        adds += len(chain) - 1
        coeff, replaced = 0, False
        for cursor in chain:
            j, ki, ca, kb, cb, n, _, _ = cursor
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
        if coeff != 0:  # the last cursor taken, at j - 1, names the chain's monomial
            if scoped:  # else the counts since the last resume belong to no scope
                tally(adds, pops, pops, peak, port.comparisons)
            peak = pops = adds = port.comparisons = 0
            yield (cursor[6], cursor[7][j - 1].degrees,  # packed: equal lengths
                   coeff if den is None else Fraction(coeff, den))
            # scopes open or close only here: sift counted while any is open
            pop, push, replace = counted if (scoped := scopes()) else _UNCOUNTED
    tally(adds, pops, pops, peak, port.comparisons)


def collect(order: MonomialOrder, set_up: Callable[[bool], tuple]) -> Polynomial:
    """sum a_k * b_k over the pairs that ``set_up(descending)`` checks and
    sets up (:func:`_set_up`), held as columns.  Outside a counter scope, when
    no product's key reaches ``sys.hash_info.modulus``, a dict sums the
    products by key, and the keys unpack (:func:`~polycert.monomial.unpack_columns`);
    else the merge's terms are held, each exponent column the sum of its factors'."""
    scoped = bool(_scopes.get())
    sources, den, shift = set_up(scoped)  # max-first only for the counted heap
    largest = 0 if scoped else max((ka[0] + kb[-1] for _, _, ka, kb in sources), default=0)
    if not scoped and largest < hash_info.modulus:  # below it, distinct ints hash distinctly
        acc: dict[int, Coefficient] = {}
        get = acc.get
        for ta, tb, ka, kb in sources:
            cb = [t.coeff for t in tb]
            for a, k in zip(ta, ka):  # ``mul``, as int.__mul__(Fraction) is NotImplemented
                for key, c in zip(map(add, repeat(k), kb), map(mul, repeat(a.coeff), cb)):
                    acc[key] = get(key, 0) + c
        keys = sorted(filter(acc.__getitem__, acc), reverse=True)
        coeffs = [Fraction(acc[k], den) for k in keys] if den else list(map(acc.__getitem__, keys))
        tally()  # as an unscoped merge's one tally, into no scope
        width = len(sources[0][0][0].degrees.exponents) if keys else 0
        return poly.poly_from_columns(order, unpack_columns(order, keys, shift, width), coeffs)
    terms = list(merge_streams(sources, den))[:: 1 if scoped else -1]  # min-first: reversed
    exps = attrgetter("exponents")
    ea, eb = (list(map(exps, map(itemgetter(k), terms))) for k in (0, 1))
    width = len(ea[0]) if terms else 0  # the set-up checked one dimension
    columns = [list(map(add, map(at, ea), map(at, eb))) for at in map(itemgetter, range(width))]
    return poly.poly_from_columns(order, columns, list(map(itemgetter(2), terms)))


def mul_heap(f: Polynomial, g: Polynomial) -> Polynomial:
    """Johnson multiplication, f giving the streams and g the term list (:func:`collect`)."""
    return collect(f.order, lambda descending: _set_up([(f, g)], f.order, descending))
