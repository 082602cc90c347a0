"""Scoped operation counters.

Callers open an instrumentation scope with :func:`count_ops`; every kernel
operation executed inside the scope accumulates monomial comparisons,
coefficient additions/multiplications and heap extractions into it, and
records the largest merge heap it saw.  Scopes nest: an increment lands in
every currently open scope, so an outer scope sees the totals (and the peak)
of everything run inside it.

Counters are per-scope and single-owner; the scope stack is module-local and
must not be shared across threads.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class OpCounters:
    comparisons: int = 0
    coeff_adds: int = 0
    coeff_muls: int = 0
    heap_extractions: int = 0
    heap_peak: int = 0  # largest merge heap in the scope: a max, not a sum


_active: list[OpCounters] = []


@contextmanager
def count_ops():
    """Open an instrumentation scope and yield its counter."""
    c = OpCounters()
    _active.append(c)
    try:
        yield c
    finally:
        _active.pop()


def tick_comparison(n: int = 1) -> None:
    for c in _active:
        c.comparisons += n


def tick_coeff_add(n: int = 1) -> None:
    for c in _active:
        c.coeff_adds += n


def tick_coeff_mul(n: int = 1) -> None:
    for c in _active:
        c.coeff_muls += n


def tick_heap_extraction(n: int = 1) -> None:
    for c in _active:
        c.heap_extractions += n


def record_heap_size(n: int) -> None:
    for c in _active:
        if n > c.heap_peak:
            c.heap_peak = n
