"""The machine's speed during a run, from four fixed jobs in benchmark code.

The 2-core VM the benchmark was built on runs the same code up to 20%
faster or slower from one half-minute to the next, as other tenants come
and go, so two runs of identical work differ by as much.  The jobs below are
timed now and then during a run; none of them calls polycert, and their
inputs do not depend on the seed, so a change to polycert cannot move them.
Each stresses a different part of the machine (interpreted integer
arithmetic, dict hashing, a heap of tuples, big-integer arithmetic and
decimal conversion), and the geometric mean of their slowdowns tracks the
slowdown of polycert's ops: in 150-second traces on that VM, scaling
each op by the timings nearest it took the coefficient of variation of
45-second windows' percentiles and throughput from 4-17% to 2-3%.  The
big-integer job is there for the set-up, which spends half its time on
the bigcoeff generator's big numbers: without it, the scaled mul set-up
read 22% longer when the machine was fast than when it was slow; with it,
14%.
"""

from __future__ import annotations

import gc
import heapq
import math
import random
import statistics
from time import perf_counter

import gen
from oracle import dmul

# Median seconds of each job on the VM the benchmark's bounds were set on.
NOMINAL_S = {"loop": 0.0023, "dict": 0.011, "heap": 0.009, "bigint": 0.0028}


def _loop() -> int:
    s = 0
    for i in range(30000):
        s += i * i % 7
    return s


def _bigint(a: int, b: int, c: int) -> None:
    """Big-integer product, decimal text and gcd, as the bigcoeff generator does."""
    for _ in range(6):
        str(a * b)
        math.gcd(a, c)


def _heap_product(a: dict, b: dict) -> list:
    """Johnson's heap-merged product on plain tuples, greatest term first."""
    at, bt = sorted(a.items(), reverse=True), sorted(b.items(), reverse=True)

    def key(i, j):
        return tuple([-x - y for x, y in zip(at[i][0], bt[j][0])])

    heap = [(key(i, 0), i, 0) for i in range(len(at))]
    heapq.heapify(heap)
    out = []
    while heap:
        k, i, j = heapq.heappop(heap)
        out.append((k, at[i][1] * bt[j][1]))
        if j + 1 < len(bt):
            heapq.heappush(heap, (key(i, j + 1), i, j + 1))
    return out


class SpeedReference:
    def __init__(self):
        rng = random.Random("speed reference")
        a100, b100, a60, b60 = (gen.rpoly(rng, n, 3, 30, gen.small(rng))
                                for n in (100, 100, 60, 60))
        big = [gen.digits(rng, 2000) for _ in range(3)]
        self.jobs = {"loop": _loop,
                     "dict": lambda: dmul(a100, b100),
                     "heap": lambda: _heap_product(a60, b60),
                     "bigint": lambda: _bigint(*big)}
        self.times: dict[str, list[float]] = {name: [] for name in self.jobs}

    def tick(self) -> None:
        # with the collector off, the jobs time the machine, not the number
        # of objects the run holds at that moment
        gc.disable()
        try:
            for name, job in self.jobs.items():
                t0 = perf_counter()
                job()
                self.times[name].append(perf_counter() - t0)
        finally:
            gc.enable()

    @property
    def ticks(self) -> int:
        return len(self.times["loop"])

    def scale(self, start: int = 0, stop: int | None = None) -> float:
        """Nominal over measured job time, geometric mean over the jobs, from
        ticks ``start:stop``.  Multiply a time measured while those ticks
        were taken by it to get the time at nominal speed.
        """
        return math.prod(NOMINAL_S[name] / statistics.median(ts[start:stop])
                         for name, ts in self.times.items()) ** (1 / len(self.jobs))
