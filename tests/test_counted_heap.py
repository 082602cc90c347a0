"""The counted heap port against C heapq.

Inside a counter scope the merge sifts with :class:`polycert.heapmul.CountedHeap`,
CPython's heappush / heappop ported line for line.  On any push/pop sequence
it must leave the heap array C heapq leaves, pop the same items, and count
exactly the comparisons that ``CountingKey`` ticks when C heapq runs the same
sequence on counting keys: those whose keys differ, not tuple ties.
"""

from heapq import heappop, heappush

from hypothesis import given, settings
from hypothesis import strategies as st

from polycert import count_ops
from polycert.counters import CountingKey
from polycert.heapmul import CountedHeap

# a push of a (key, k, i, j) entry or a pop (None), pushes twice as likely;
# few values, so equal keys and equal whole entries are common
small = st.integers(-2, 2)
entries = st.tuples(st.one_of(small, st.integers(-(2**70), 2**70)), small, small, small)
ops = st.lists(st.one_of(st.none(), entries, entries), max_size=100)


@given(ops=ops)
@settings(max_examples=400, deadline=None)
def test_counted_heap_matches_heapq(ops):
    port, ported, plain, counting = CountedHeap(), [], [], []
    with count_ops() as ticks:
        for op in ops:
            if op is not None:
                port.push(ported, op)
                heappush(plain, op)
                heappush(counting, (CountingKey(op[0]), *op[1:]))
            elif plain:
                got, want = port.pop(ported), heappop(plain)
                assert got is want
                heappop(counting)
            assert len(ported) == len(plain)
            assert all(a is b for a, b in zip(ported, plain))
    assert counting == plain
    assert port.comparisons == ticks.comparisons

