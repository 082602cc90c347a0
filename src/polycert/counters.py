"""Scoped operation counters.

Callers open an instrumentation scope with :func:`count_ops`; kernel work run
inside it adds monomial comparisons, coefficient additions/multiplications
and heap extractions to it, and raises the largest merge heap it saw.
Scopes nest: a count lands in every currently open scope, so an outer scope
sees the totals (and the peak) of everything run inside it.

A comparison ticks where it is made (:class:`CountingKey` ``<``,
``ev_compare``), since heapq and sorts make it in C.  Every other count is
kept in local ints by its kernel and handed over by :func:`tally`: a merge
right before each term it yields and once at its end, any other kernel once.
Scopes open or close only between a merge's yields, so each count lands in
the scopes open while its work was done.

Open scopes live in a :class:`contextvars.ContextVar`, private to each
thread and asyncio task.  With none open, :func:`key_factory` leaves packed
monomial keys plain ints, which heapq and sorts compare in C.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass


@dataclass
class OpCounters:
    comparisons: int = 0
    coeff_adds: int = 0
    coeff_muls: int = 0
    heap_extractions: int = 0
    heap_peak: int = 0  # largest merge heap in the scope: a max, not a sum


_scopes: ContextVar[tuple[OpCounters, ...]] = ContextVar("polycert_scopes", default=())


@contextmanager
def count_ops():
    """Open an instrumentation scope and yield its counter."""
    c = OpCounters()
    token = _scopes.set(_scopes.get() + (c,))
    try:
        yield c
    finally:
        _scopes.reset(token)


class CountingKey(int):
    """A packed key whose ``<`` (not ``==``) ticks; heapq and sorts order by ``<``."""

    __slots__ = ()

    def __lt__(self, other) -> bool:
        tick_comparison()
        return int.__lt__(self, other)


def key_factory() -> type[int]:
    """The key wrapper: :class:`CountingKey` while a scope is open, else ``int``."""
    return CountingKey if _scopes.get() else int


def tick_comparison() -> None:
    for c in _scopes.get():
        c.comparisons += 1


def tally(
    coeff_adds: int = 0, coeff_muls: int = 0, extractions: int = 0, heap: int = 0
) -> None:
    """Add locally kept counts to every open scope; `heap` raises heap_peak."""
    for c in _scopes.get():
        c.coeff_adds += coeff_adds
        c.coeff_muls += coeff_muls
        c.heap_extractions += extractions
        if heap > c.heap_peak:
            c.heap_peak = heap
