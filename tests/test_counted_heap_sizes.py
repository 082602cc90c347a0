"""The counted heap port at every small heap size.

For each heap size from 1 to 130, which covers every shape up to seven
levels (a last parent with a lone left child, and every full 2^k - 1 tree),
push, pop and replace run with the least key, the greatest and one equal to
a middle key.  The port must leave the heap C heapq leaves, return the same
object, and count the comparisons that ``CountingKey`` ticks under C heapq.
"""

import random
from heapq import heapify, heappop, heappush, heapreplace

import pytest

from polycert import count_ops
from polycert.counters import CountingKey
from polycert.heapmul import CountedHeap

# offset past the small-int cache, so each key is its own object
BIG = 2**70


def start(n):
    keys = [BIG + 2 * v for v in range(n)]
    random.Random(n).shuffle(keys)
    heapify(keys)
    return keys


def probes(heap):
    """The least key, the greatest, and a new object equal to a middle key."""
    ranked = sorted(heap)
    middle = ranked[len(ranked) // 2] + 0
    assert middle is not ranked[len(ranked) // 2]
    return ranked[0] - 1, ranked[-1] + 1, middle


@pytest.mark.parametrize("op", ["push", "pop", "replace"])
def test_every_size_matches_heapq(op):
    for n in range(1, 131):
        heap = start(n)
        for key in probes(heap)[: 1 if op == "pop" else 3]:
            port, ported, plain = CountedHeap(), list(heap), list(heap)
            counting = list(map(CountingKey, heap))
            with count_ops() as ticks:
                if op == "push":
                    port.push(ported, key)
                    heappush(plain, key)
                    heappush(counting, CountingKey(key))
                elif op == "pop":
                    assert port.pop(ported) is heappop(plain)
                    heappop(counting)
                else:
                    assert port.replace(ported, key) is heapreplace(plain, key)
                    heapreplace(counting, CountingKey(key))
            assert all(a is b for a, b in zip(ported, plain))
            assert len(ported) == len(plain) == len(counting)
            assert counting == plain
            assert port.comparisons == ticks.comparisons, (n, key - BIG)
