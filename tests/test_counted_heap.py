"""The counted heap port against C heapq.

Inside a counter scope the merge sifts its int keys with
:class:`polycert.heapmul.CountedHeap`, CPython's heappush / heappop /
heapreplace ported line for line.  On any push/pop/replace sequence it must
leave the heap array C heapq leaves, return the same objects, and count
exactly the comparisons that ``CountingKey`` ticks when C heapq runs the same
sequence on counting keys: every one.
"""

from heapq import heappop, heappush, heapreplace

from hypothesis import given, settings
from hypothesis import strategies as st

from polycert import count_ops
from polycert.counters import CountingKey
from polycert.heapmul import CountedHeap

# mostly small keys, so equal keys are common; offset past the small-int cache
# so every drawn key is its own object and `is` tells equal keys apart
BIG = 2**70
small = st.integers(-3, 3)
keys = st.one_of(small, small, st.integers(-BIG, BIG)).map(BIG.__add__)
ops = st.lists(st.tuples(st.sampled_from(["push", "push", "pop", "replace"]), keys),
               max_size=100)


@given(ops=ops)
@settings(max_examples=400, deadline=None)
def test_counted_heap_matches_heapq(ops):
    port, ported, plain, counting = CountedHeap(), [], [], []
    with count_ops() as ticks:
        for op, key in ops:
            if op == "push":
                port.push(ported, key)
                heappush(plain, key)
                heappush(counting, CountingKey(key))
            elif plain and op == "pop":
                assert port.pop(ported) is heappop(plain)
                heappop(counting)
            elif plain:
                assert port.replace(ported, key) is heapreplace(plain, key)
                heapreplace(counting, CountingKey(key))
            assert len(ported) == len(plain)
            assert all(a is b for a, b in zip(ported, plain))
    assert counting == plain
    assert port.comparisons == ticks.comparisons
