"""Packed monomial keys: order, linearity, the counting wrapper and its scope.

Sorts and the merge heap order monomials by one int per monomial
(:func:`polycert.monomial.key_packer`).  Outside a ``count_ops`` scope every
key is a plain int.  Inside one only sort keys are ``CountingKey``s that tick
on ``<``; the merge sifts plain ints through its counting heap port.  The
open scopes are per thread and per asyncio task.
"""

import asyncio
import itertools
import random
import sys
import threading
from contextlib import nullcontext
from dataclasses import astuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycert import count_ops, ev_add, ev_make, mul_heap, poly_from_terms
from polycert.counters import CountingKey, key_factory, tally
from polycert.errors import DimensionError
from polycert.heapmul import merge_products
from polycert.monomial import ev_compare, key_packer

from conftest import ORDERS, random_poly

LEX, GRLEX, GREVLEX = ORDERS

# exponents 0..3 make equal totals common; up to 10**40 makes bases wide
exponent = st.one_of(st.integers(0, 3), st.integers(0, 10**40))
evs = st.one_of(
    st.tuples(*[st.integers(0, 3)] * 3), st.tuples(*[exponent] * 3)
).map(ev_make)


def sign_of(x, y):
    return (x > y) - (x < y)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("sign", [1, -1])
@given(a=evs, b=evs)
@settings(max_examples=200, deadline=None)
def test_packed_key_orders_as_ev_compare(order, sign, a, b):
    pack = key_packer(order, [a, b])
    assert sign_of(sign * pack(a), sign * pack(b)) == sign * ev_compare(order, a, b)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("sign", [1, -1])
@given(a=evs, b=evs, c=evs, d=evs)
@settings(max_examples=200, deadline=None)
def test_packed_keys_add_as_monomials_multiply(order, sign, a, b, c, d):
    # the merge heap keys a product term by the sum of its factors' keys
    pack = key_packer(order, [a, b, c, d], summands=2)
    assert pack(ev_add(a, b)) == pack(a) + pack(b)
    ab, cd = sign * (pack(a) + pack(b)), sign * (pack(c) + pack(d))
    assert sign_of(ab, cd) == sign * ev_compare(order, ev_add(a, b), ev_add(c, d))


@pytest.mark.parametrize("order", ORDERS)
def test_packed_sums_order_exhaustively(order):
    # every product of two monomials of total degree <= 2: the base must exceed
    # the products' digits (up to 4, as in z^2 * z^2), not just the factors'
    grid = [ev_make(e) for e in itertools.product(range(3), repeat=3) if sum(e) <= 2]
    pack = key_packer(order, grid, summands=2)
    sums = [(ev_add(a, b), pack(a) + pack(b)) for a in grid for b in grid]
    for m, km in sums:
        for n, kn in sums:
            assert sign_of(km, kn) == ev_compare(order, m, n)


def test_packer_rejects_mixed_dimensions():
    with pytest.raises(DimensionError):
        key_packer(GRLEX, [ev_make((1, 2)), ev_make((1, 2, 3))])


pairs_st = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 10**6)),
    min_size=1,
    max_size=4,
)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("descending", [True, False])
@given(seeds=pairs_st)
@settings(max_examples=60, deadline=None)
def test_merge_same_terms_inside_and_outside_a_scope(order, descending, seeds):
    pairs = []
    for na, nb, seed in seeds:
        rng = random.Random(seed)
        max_exp = rng.choice([1, 3, 30, 10**30])
        pairs.append((random_poly(rng, order, na, max_exp=max_exp),
                      random_poly(rng, order, nb, max_exp=max_exp)))
    outside = list(merge_products(pairs, order, descending))
    with count_ops() as c:
        inside = list(merge_products(pairs, order, descending))
    assert inside == outside
    assert c.heap_extractions == sum(len(a.terms) * len(b.terms) for a, b in pairs)


def fixed_halves(order):
    rng = random.Random(5)
    terms = [(ev_make(tuple(rng.randrange(7) for _ in range(3))),
              rng.choice([-2, -1, 1, 2])) for _ in range(80)]
    return terms[:40], terms[40:]


# comparisons of poly_from_terms on both halves, recorded while keys were still
# tuples, and of their mul_heap product on the chained heap; 40 and 36 terms,
# 813 in the product
COMPARISONS = {LEX: (296, 5278), GRLEX: (302, 5237), GREVLEX: (304, 5206)}


def boom(self, other):
    raise AssertionError("a counting key was compared")


@pytest.mark.parametrize("order", ORDERS)
def test_unscoped_kernels_compare_plain_ints(order, monkeypatch):
    ta, tb = fixed_halves(order)
    with count_ops() as sort:
        f, g = poly_from_terms(order, ta), poly_from_terms(order, tb)
    with count_ops() as mul:
        h = mul_heap(f, g)
    assert (sort.comparisons, mul.comparisons) == COMPARISONS[order]
    monkeypatch.setattr(CountingKey, "__lt__", boom)
    assert key_factory() is int
    assert poly_from_terms(order, ta) == f and poly_from_terms(order, tb) == g
    assert mul_heap(f, g) == h
    with count_ops() as scoped:  # inside a scope the merge counts in its own sift
        assert key_factory() is CountingKey
        assert mul_heap(f, g) == h
    assert scoped.comparisons == COMPARISONS[order][1]


@pytest.mark.parametrize("descending", [True, False])
def test_scope_opened_or_closed_between_terms(descending, monkeypatch):
    f, g = (poly_from_terms(GREVLEX, half) for half in fixed_halves(GREVLEX))
    with count_ops() as whole:
        it = merge_products([(f, g)], GREVLEX, descending)
        head = next(it)
        before = whole.comparisons
        tail = list(it)
    # started outside a scope, finished inside one: the rest is counted
    it = merge_products([(f, g)], GREVLEX, descending)
    assert next(it) == head
    with count_ops() as c:
        assert list(it) == tail
    assert c.comparisons == whole.comparisons - before > 0
    # started inside, finished outside: the rest compares plain ints
    with count_ops():
        it = merge_products([(f, g)], GREVLEX, descending)
        assert next(it) == head
    monkeypatch.setattr(CountingKey, "__lt__", boom)
    assert list(it) == tail


def test_scope_in_one_thread_does_not_count_another():
    rng = random.Random(8)
    f, g = random_poly(rng, GRLEX, 50), random_poly(rng, GRLEX, 50)
    with count_ops() as alone:
        product = mul_heap(f, g)
    seen = {}
    all_running = threading.Barrier(3, timeout=60)

    def scoped():
        with count_ops() as c:
            all_running.wait()
            seen["scoped"] = mul_heap(f, g)
        seen["counters"] = c

    def unscoped(name):
        all_running.wait()
        seen[name] = key_factory(), [mul_heap(f, g) for _ in range(3)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often
    try:
        threads = [threading.Thread(target=scoped)] + [
            threading.Thread(target=unscoped, args=(name,)) for name in ("u1", "u2")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert seen["scoped"] == product
    assert seen["u1"] == seen["u2"] == (int, [product] * 3)
    assert astuple(seen["counters"]) == astuple(alone)


@pytest.mark.parametrize("descending", [True, False])
def test_scope_in_one_task_does_not_count_another(descending):
    rng = random.Random(9)
    f, g = random_poly(rng, GRLEX, 30), random_poly(rng, GRLEX, 30)
    with count_ops() as alone:
        terms = list(merge_products([(f, g)], GRLEX, descending))

    async def consume(scope):
        with scope as c:
            got = []
            for term in merge_products([(f, g)], GRLEX, descending):
                got.append(term)
                await asyncio.sleep(0)  # let the other task run a step
        return got, c

    async def both():
        return await asyncio.gather(consume(count_ops()), consume(nullcontext()))

    (scoped, counters), (unscoped, _) = asyncio.run(both())
    assert scoped == unscoped == terms
    assert astuple(counters) == astuple(alone)


@pytest.mark.parametrize("order", ORDERS)
@given(batch=st.lists(evs, min_size=1, max_size=4), summands=st.integers(1, 3))
@settings(max_examples=200, deadline=None)
def test_packed_key_is_the_base_b_reading_of_the_order_key(order, batch, summands):
    # the dot product gives exactly the ints of reading the key's digits in
    # base B one by one, so sorts, heap steps and counts cannot move
    pack = key_packer(order, batch, summands)
    shift = (summands * max(ev.total for ev in batch)).bit_length()
    for ev in batch:
        k = 0
        for digit in order.key(ev):
            k = (k << shift) + digit
        assert pack(ev) == k


def test_merge_tallies_per_yield_only_inside_a_scope(monkeypatch):
    from polycert import heapmul

    f, g = (poly_from_terms(GREVLEX, half) for half in fixed_halves(GREVLEX))
    calls = []

    def counted_tally(*counts):
        calls.append(counts)
        return tally(*counts)

    monkeypatch.setattr(heapmul, "tally", counted_tally)
    product = mul_heap(f, g)
    assert len(calls) == 1  # the final tally, into no scope
    calls.clear()
    with count_ops() as c:
        assert mul_heap(f, g) == product
    assert len(calls) == len(product.terms) + 1
    assert c.heap_extractions == sum(counts[2] for counts in calls)
