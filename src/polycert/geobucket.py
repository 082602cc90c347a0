"""Geobucket accumulator.

A geobucket stores a polynomial as an unevaluated sum of buckets, bucket k
(k >= 1) holding at most c**k terms.  Adding a short polynomial repeatedly
into a long accumulated sum then costs O(total log total) comparisons
instead of the quadratic cost of folding plain merges.

Adding an l-term polynomial first merges it into bucket k with
c**(k-1) < l <= c**k; if the merged bucket exceeds c**k terms the whole
bucket cascades into bucket k+1, and so on.  The overflow check runs after
the merge.  The first merge is a checked :func:`~polycert.poly.add`, so it
checks p (:func:`~polycert.poly.checked_keys`) before any bucket changes.

:func:`mul_heap_gb` multiplies f by each bucket over its route's fold size
and f times the sum of the others, added as :meth:`Geobucket.normalize` adds.
"""

from __future__ import annotations

from enum import Enum
from math import inf

from . import poly
from .errors import DomainError
from .heapmul import _set_up, collect
from .monomial import MonomialOrder
from .poly import Polynomial


class Geobucket:
    def __init__(self, order: MonomialOrder, c: int = 4):
        if c < 2:
            raise DomainError(f"growth factor must be >= 2, got {c}")
        self.order = order
        self.c = c
        # buckets[k] for k >= 1; slot 0 unused, kept zero
        self.buckets: list[Polynomial] = [poly.zero(order), poly.zero(order)]

    def _ensure_bucket(self, k: int) -> None:
        while len(self.buckets) <= k:
            self.buckets.append(poly.zero(self.order))

    def _target_bucket(self, nterms: int) -> int:
        k = 1
        cap = self.c
        while nterms > cap:
            k += 1
            cap *= self.c
        return k

    def add(self, p: Polynomial) -> None:
        """Merge p into its target bucket k, cascading up while the result
        exceeds c**k terms."""
        k = self._target_bucket(len(p.terms))
        empty = poly.zero(self.order)
        p = poly.add(self.buckets[k] if k < len(self.buckets) else empty, p)
        self._ensure_bucket(k)
        while len(p.terms) > self.c**k:
            self.buckets[k] = empty
            k += 1
            self._ensure_bucket(k)
            p = poly.add(self.buckets[k], p)
        self.buckets[k] = p

    def normalize(self) -> Polynomial:
        """Collapse to a plain polynomial, adding buckets small to large."""
        return self._fold()[0]

    def _fold(self, size: float = inf) -> tuple[Polynomial, list[Polynomial]]:
        """The sum of the buckets of at most `size` terms, and the larger ones."""
        small, large = poly.zero(self.order), []
        for bk in self.buckets[1:]:
            if len(bk.terms) <= size:
                small = poly.add(small, bk)
            else:
                large.append(bk)
        return small, large

    def check_invariants(self) -> bool:
        for k in range(1, len(self.buckets)):
            bk = self.buckets[k]
            if len(bk.terms) > self.c**k:
                return False
            if not poly.is_well_formed(bk):
                return False
        return True


def gb_new(order: MonomialOrder, c: int = 4) -> Geobucket:
    return Geobucket(order, c)


class GbRoute(Enum):
    CONVERT_FIRST = "convert"
    PER_BUCKET_STREAMS = "per-bucket"
    HYBRID = "hybrid"


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
    size = {GbRoute.CONVERT_FIRST: inf, GbRoute.PER_BUCKET_STREAMS: 0,
            GbRoute.HYBRID: hybrid_threshold}[GbRoute(route)]
    small, large = g._fold(size)
    pairs = [(f, bk) for bk in large + [small]]
    return collect(f.order, lambda descending: _set_up(pairs, f.order, descending))
