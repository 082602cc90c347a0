"""Geobucket accumulator.

A geobucket stores a polynomial as an unevaluated sum of buckets, bucket k
(k >= 1) holding at most c**k terms.  Adding a short polynomial repeatedly
into a long accumulated sum then costs O(total log total) comparisons
instead of the quadratic cost of folding plain merges.

Adding an l-term polynomial first merges it into bucket k with
c**(k-1) < l <= c**k; if the merged bucket exceeds c**k terms the whole
bucket cascades into bucket k+1, and so on.  The overflow check runs after
the merge.

Two leading-term strategies are supported.  ``scan_all`` scans every
bucket's head; ``largest_bucket`` first re-merges any bucket whose head is
not below the top bucket's head into the top bucket, restoring the
invariant that the value's leading monomial lives in the highest nonempty
bucket.  Both return identical answers; only maintenance cost differs.  A
strategy is an :class:`LcStrategy` or its value.  :meth:`Geobucket.add`
checks what it is given (:func:`~polycert.poly.checked_keys`) before it
touches a bucket; a head scan tallies its comparisons once.
"""

from __future__ import annotations

from enum import Enum

from . import poly
from .counters import tally
from .errors import DomainError
from .monomial import MonomialOrder, ev_compare
from .poly import Polynomial, Term


class LcStrategy(Enum):
    SCAN_ALL = "scan_all"
    LARGEST_BUCKET = "largest_bucket"


class Geobucket:
    def __init__(
        self,
        order: MonomialOrder,
        c: int = 4,
        lc_strategy: LcStrategy | str = LcStrategy.SCAN_ALL,
    ):
        if c < 2:
            raise DomainError(f"growth factor must be >= 2, got {c}")
        self.order = order
        self.c = c
        self.lc_strategy = LcStrategy(lc_strategy)  # any other value: ValueError
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
        poly.checked_keys(self.order, [p])
        if not p.terms:
            return
        self._merge_into(self._target_bucket(len(p.terms)), p)

    def _merge_into(self, k: int, p: Polynomial) -> None:
        """Merge p into bucket k, cascading up while the result exceeds c**k terms."""
        self._ensure_bucket(k)
        p = poly.add(self.buckets[k], p)
        while len(p.terms) > self.c**k:
            self.buckets[k] = poly.zero(self.order)
            k += 1
            self._ensure_bucket(k)
            p = poly.add(self.buckets[k], p)
        self.buckets[k] = p

    def _top_index(self) -> int:
        for k in range(len(self.buckets) - 1, 0, -1):
            if self.buckets[k].terms:
                return k
        return 0

    def _maintain_largest_bucket(self) -> None:
        # re-merge any bucket whose head is not below the top bucket's head
        comparisons = 0
        while top := self._top_index():
            head = self.buckets[top].terms[0].degrees
            for k in range(1, top):
                bk = self.buckets[k]
                if bk.terms:
                    comparisons += 1
                    if ev_compare(self.order, bk.terms[0].degrees, head) >= 0:
                        self.buckets[k] = poly.zero(self.order)
                        self._merge_into(top, bk)
                        break
            else:
                break
        tally(comparisons=comparisons)

    def leading_term(self) -> Term | None:
        """Fully combined leading term of the value, or None if the value is 0.

        Hidden zeros (heads cancelling across buckets) are removed from the
        buckets as they are discovered, so repeated calls make progress.
        """
        if self.lc_strategy is LcStrategy.LARGEST_BUCKET:
            self._maintain_largest_bucket()
        comparisons, lt = 0, None
        while True:
            best = None
            holders: list[int] = []
            for k in range(1, len(self.buckets)):
                bk = self.buckets[k]
                if not bk.terms:
                    continue
                head = bk.terms[0].degrees
                if best is None:
                    best, holders = head, [k]
                else:
                    comparisons += 1
                    c = ev_compare(self.order, head, best)
                    if c > 0:
                        best, holders = head, [k]
                    elif c == 0:
                        holders.append(k)
            if best is None:
                break
            total = sum(self.buckets[k].terms[0].coeff for k in holders)
            if total != 0:
                lt = Term(best, total)
                break
            # hidden zero: strip the cancelled head from every holder
            for k in holders:
                bk = self.buckets[k]
                self.buckets[k] = Polynomial(self.order, bk.terms[1:])
        tally(comparisons=comparisons)
        return lt

    def extract_leading(self) -> Term | None:
        """Remove and return the leading term of the value."""
        lt = self.leading_term()
        if lt is None:
            return None
        for k in range(1, len(self.buckets)):
            bk = self.buckets[k]
            if bk.terms and bk.terms[0].degrees == lt.degrees:
                self.buckets[k] = Polynomial(self.order, bk.terms[1:])
        return lt

    def normalize(self) -> Polynomial:
        """Collapse to a plain polynomial, adding buckets small to large."""
        acc = poly.zero(self.order)
        for bk in self.buckets[1:]:
            acc = poly.add(acc, bk)
        return acc

    def check_invariants(self) -> bool:
        for k in range(1, len(self.buckets)):
            bk = self.buckets[k]
            if len(bk.terms) > self.c**k:
                return False
            if not poly.is_well_formed(bk):
                return False
        return True


def gb_new(
    order: MonomialOrder,
    c: int = 4,
    lc_strategy: LcStrategy | str = LcStrategy.SCAN_ALL,
) -> Geobucket:
    return Geobucket(order, c, lc_strategy)
