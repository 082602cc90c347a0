"""Scoped operation counters.

Callers open an instrumentation scope with :func:`count_ops`; kernel work run
inside it adds monomial comparisons, coefficient additions/multiplications and
heap extractions to it, and raises the most live merge stream entries it saw.
Scopes nest: a count lands in every currently open scope, so an outer scope
sees the totals (and the peak) of everything run inside it.

A comparison made in C by a sort ticks where it is made
(:class:`CountingKey` ``<``), the only count made one at a time.  Every
other count is kept in local ints by its kernel and handed over by
:func:`tally`: a merge, whose heap port counts every comparison it makes,
once at its end and, only while a scope is open, right before each term it
yields; any other kernel (a merge-add, a geobucket's head scan) once.
Scopes open or close only between a merge's yields, so each count lands in
the scopes open while its work was done, and a merge run with none open
pays one :func:`tally` call, not one per term.

Open scopes live in a :class:`contextvars.ContextVar`, private to each
thread and asyncio task.  With none open, :func:`key_factory` leaves sort
keys plain ints, and merges sift with C heapq.
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
    heap_peak: int = 0  # most live merge stream entries: a max, not a sum


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
        for c in _scopes.get():
            c.comparisons += 1
        return int.__lt__(self, other)


def key_factory() -> type[int]:
    """The sort key wrapper: :class:`CountingKey` while a scope is open, else ``int``."""
    return CountingKey if _scopes.get() else int


def tally(
    coeff_adds: int = 0,
    coeff_muls: int = 0,
    extractions: int = 0,
    heap: int = 0,
    comparisons: int = 0,
) -> None:
    """Add locally kept counts to every open scope; `heap` raises heap_peak."""
    for c in _scopes.get():
        c.comparisons += comparisons
        c.coeff_adds += coeff_adds
        c.coeff_muls += coeff_muls
        c.heap_extractions += extractions
        if heap > c.heap_peak:
            c.heap_peak = heap
