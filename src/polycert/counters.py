"""Scoped operation counters.

Callers open an instrumentation scope with :func:`count_ops`; every kernel
operation executed inside the scope accumulates monomial comparisons,
coefficient additions/multiplications and heap extractions into it, and
records the largest merge heap it saw.  Scopes nest: an increment lands in
every currently open scope, so an outer scope sees the totals (and the peak)
of everything run inside it.

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


def tick_comparison(n: int = 1) -> None:
    for c in _scopes.get():
        c.comparisons += n


def tick_coeff_add(n: int = 1) -> None:
    for c in _scopes.get():
        c.coeff_adds += n


def tick_coeff_mul(n: int = 1) -> None:
    for c in _scopes.get():
        c.coeff_muls += n


def tick_heap_extraction(n: int = 1) -> None:
    for c in _scopes.get():
        c.heap_extractions += n


def record_heap_size(n: int) -> None:
    for c in _scopes.get():
        if n > c.heap_peak:
            c.heap_peak = n
