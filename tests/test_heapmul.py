import pytest

from polycert import (
    GbRoute,
    MonomialOrder,
    count_ops,
    ev_make,
    gb_new,
    mul_heap,
    mul_heap_gb,
    mul_naive,
    poly_from_terms,
    term_count,
    zero,
)
from polycert.errors import DimensionError, OrderMismatchError
from polycert.heapmul import merge_products
from polycert.monomial import ev_compare
from polycert.poly import is_well_formed

from conftest import ORDERS, random_poly

GRLEX = MonomialOrder.GRLEX


def up(pairs, order=GRLEX):
    return poly_from_terms(order, [(ev_make((e,)), c) for e, c in pairs])


def test_single_stream():
    f = up([(2, 3)])
    g = up([(5, 1), (3, -2), (0, 4)])
    with count_ops() as c:
        h = mul_heap(f, g)
    assert h == mul_naive(f, g)
    assert c.heap_extractions == term_count(g)


def test_zero_factor():
    g = up([(1, 1)])
    with count_ops() as c:
        assert mul_heap(zero(GRLEX), g).is_zero()
        assert mul_heap(g, zero(GRLEX)).is_zero()
    assert c.heap_extractions == 0


def test_order_mismatch():
    with pytest.raises(OrderMismatchError):
        mul_heap(zero(GRLEX), zero(MonomialOrder.LEX))


@pytest.mark.parametrize("order", ORDERS)
def test_merge_rejects_mixed_dimensions(order):
    # two pairs that are each consistent, but of different dimensions
    one = poly_from_terms(order, [(ev_make((1,)), 1)])
    two = poly_from_terms(order, [(ev_make((1, 0)), 1)])
    with pytest.raises(DimensionError):
        list(merge_products([(one, one), (two, two)], order))


def test_mid_merge_cancellation():
    # (x+1)(x-1): the x*(-1) and 1*x streams meet at monomial x and cancel
    h = mul_heap(up([(1, 1), (0, 1)]), up([(1, 1), (0, -1)]))
    assert {t.degrees.exponents: t.coeff for t in h.terms} == {(2,): 1, (0,): -1}


def test_extraction_count_8x12(rng):
    f = random_poly(rng, GRLEX, 8, max_exp=30)
    g = random_poly(rng, GRLEX, 12, max_exp=30)
    assert term_count(f) == 8 and term_count(g) == 12
    with count_ops() as c:
        h = mul_heap(f, g)
    assert h == mul_naive(f, g)
    assert c.heap_extractions == 96


def test_matches_naive_randomized(rng):
    for _ in range(200):
        order = rng.choice(ORDERS)
        f = random_poly(rng, order, rng.randrange(0, 12), rational=rng.random() < 0.3)
        g = random_poly(rng, order, rng.randrange(0, 12), rational=rng.random() < 0.3)
        with count_ops() as c:
            h = mul_heap(f, g)
        assert h == mul_naive(f, g)
        assert c.heap_extractions == term_count(f) * term_count(g)
        assert is_well_formed(h)


def test_output_strictly_decreasing(rng):
    f = random_poly(rng, GRLEX, 10)
    g = random_poly(rng, GRLEX, 10)
    h = mul_heap(f, g)
    for a, b in zip(h.terms, h.terms[1:]):
        assert ev_compare(GRLEX, a.degrees, b.degrees) > 0


def _random_gb(rng, order, n_adds):
    gb = gb_new(order, 4)
    for _ in range(n_adds):
        gb.add(random_poly(rng, order, rng.randrange(0, 6)))
    return gb


@pytest.mark.parametrize("route", list(GbRoute))
def test_gb_routes_match_naive(rng, route):
    for _ in range(40):
        order = rng.choice(ORDERS)
        f = random_poly(rng, order, rng.randrange(0, 8))
        gb = _random_gb(rng, order, rng.randrange(0, 8))
        expect = mul_naive(f, gb.normalize())
        assert mul_heap_gb(f, gb, route, hybrid_threshold=8) == expect


@pytest.mark.parametrize("route", list(GbRoute))
def test_gb_empty(route):
    assert mul_heap_gb(up([(1, 1)]), gb_new(GRLEX), route).is_zero()


def test_route2_heap_bound(rng):
    f = random_poly(rng, GRLEX, 6, max_exp=20)
    gb = _random_gb(rng, GRLEX, 10)
    nonempty = sum(1 for b in gb.buckets[1:] if b.terms)
    # the heap bound is checked by test_gb_route_heap_peak_bound
    assert mul_heap_gb(f, gb, GbRoute.PER_BUCKET_STREAMS) == mul_naive(
        f, gb.normalize()
    )
    assert nonempty >= 1


def test_comparison_scaling_band(rng):
    # comparisons ~ #f #g log2(#f) within a wide constant band
    import math

    for n in (16, 32, 64):
        f = random_poly(rng, GRLEX, n, max_exp=10 * n)
        g = random_poly(rng, GRLEX, n, max_exp=10 * n)
        assert term_count(f) == n and term_count(g) == n
        with count_ops() as c:
            mul_heap(f, g)
        ratio = c.comparisons / (n * n * math.log2(n))
        assert 0.2 <= ratio <= 5.0


import random  # noqa: E402


def test_heap_peak_bound_on_criterion_4_instances():
    # the instances of acceptance criterion 4, which relies on this bound
    rng = random.Random(3)
    for i in range(1000):
        order = ORDERS[i % 3]
        f = random_poly(rng, order, rng.randrange(0, 33), rational=i % 2 == 0)
        g = random_poly(rng, order, rng.randrange(0, 33), rational=i % 5 == 0)
        with count_ops() as c:
            mul_heap(f, g)
        assert c.heap_peak <= term_count(f)


@pytest.mark.parametrize("route", [GbRoute.PER_BUCKET_STREAMS, GbRoute.HYBRID])
def test_gb_route_heap_peak_bound(rng, route):
    threshold = 8
    multi_list_runs = 0
    for _ in range(60):
        order = rng.choice(ORDERS)
        f = random_poly(rng, order, rng.randrange(0, 8))
        gb = _random_gb(rng, order, rng.randrange(0, 12))
        sizes = [len(b.terms) for b in gb.buckets[1:] if b.terms]
        if route is GbRoute.HYBRID:
            small = any(s <= threshold for s in sizes)
            n_lists = sum(s > threshold for s in sizes) + small
        else:
            n_lists = len(sizes)
        with count_ops() as c:
            h = mul_heap_gb(f, gb, route, hybrid_threshold=threshold)
        assert h == mul_naive(f, gb.normalize())
        assert c.heap_peak <= term_count(f) * n_lists
        multi_list_runs += c.heap_peak > term_count(f)
    assert multi_list_runs > 0


from functools import cmp_to_key  # noqa: E402
from itertools import islice  # noqa: E402

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from polycert import ev_add, negate  # noqa: E402

small_terms = st.lists(
    st.tuples(st.tuples(*[st.integers(0, 2)] * 2), st.sampled_from([-2, -1, 1, 2])),
    max_size=4,
)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("descending", [True, False])
@given(raw=st.lists(st.tuples(small_terms, small_terms), min_size=1, max_size=4),
       cancel=st.booleans(), k=st.integers(1, 30))
@settings(max_examples=60, deadline=None)
def test_partly_consumed_merge_counts_only_its_work(order, descending, raw, cancel, k):
    def as_poly(terms):
        return poly_from_terms(order, [(ev_make(e), c) for e, c in terms])

    pairs = [(as_poly(a), as_poly(b)) for a, b in raw]
    if cancel:  # every product meets its negation: nothing is ever yielded
        pairs += [(a, negate(b)) for a, b in pairs]
    # oracle, outside any scope: every product monomial, then the terms in scan order
    sign = 1 if descending else -1
    products, sums = [], {}
    for a, b in pairs:
        for s in a.terms:
            for t in b.terms:
                ev = ev_add(s.degrees, t.degrees)
                products.append(ev)
                sums[ev] = sums.get(ev, 0) + s.coeff * t.coeff
    scan = sorted(sums, key=cmp_to_key(lambda u, v: -sign * ev_compare(order, u, v)))
    terms = [(ev, sums[ev]) for ev in scan if sums[ev] != 0]
    if k <= len(terms):  # stopped at the k-th term: entries at or before it
        last = terms[k - 1][0]
        products = [ev for ev in products if sign * ev_compare(order, ev, last) >= 0]

    with count_ops() as c:
        it = merge_products(pairs, order, descending)
        got = list(islice(it, k))
    it.close()  # abandoned
    assert got == terms[:k]
    assert c.heap_extractions == c.coeff_muls == len(products)
    assert c.coeff_adds == len(products) - len(set(products))
    assert c.heap_peak == sum(len(a.terms) for a, b in pairs if b.terms)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("descending", [True, False])
def test_tied_stream_entries_cost_no_comparisons(order, descending):
    # r copies of one pair tie at every key: they share its chain, not the heap
    rng = random.Random(13)
    f, g = random_poly(rng, order, 20), random_poly(rng, order, 20)
    runs = {}
    for r in (1, 3):
        with count_ops() as c:
            runs[r] = list(merge_products([(f, g)] * r, order, descending)), c
    (once, c1), (thrice, c3) = runs[1], runs[3]
    assert thrice == [(ev, 3 * coeff) for ev, coeff in once]
    assert c3.comparisons == c1.comparisons > 0
    assert c3.heap_extractions == c3.coeff_muls == 3 * c1.heap_extractions
    assert c1.coeff_muls == c1.heap_extractions == len(f.terms) * len(g.terms)


# The set-up checks every factor it merges: one order, strictly decreasing terms
from polycert import Polynomial  # noqa: E402
from polycert.errors import FormatError  # noqa: E402


def test_mul_heap_rejects_an_unsorted_factor():
    rng = random.Random(4)
    for _ in range(200):
        f = random_poly(rng, GRLEX, 4, nvars=2, max_exp=4)
        g = random_poly(rng, GRLEX, 4, nvars=2, max_exp=4)
        if len(g.terms) < 2:
            continue
        for bad in (Polynomial(GRLEX, g.terms[::-1]), Polynomial(GRLEX, g.terms[:1] * 2)):
            with pytest.raises(FormatError, match="strictly decreasing"):
                mul_heap(f, bad)
            with pytest.raises(FormatError, match="strictly decreasing"):
                mul_heap(bad, f)


@pytest.mark.parametrize("order", ORDERS)
def test_min_first_merge_rejects_an_unsorted_list(order):
    f, g = up([(3, 1), (1, 2)], order), up([(2, 1), (0, -1)], order)
    for a, b in [(f, g), (g, f)]:
        bad = Polynomial(order, b.terms[::-1])
        for pair in [(a, bad), (bad, a)]:
            with pytest.raises(FormatError):
                merge_products([pair], order, descending=False)
    assert list(merge_products([(f, g)], order, descending=False))  # sorted: fine


def test_pairs_of_different_orders_rejected():
    lex = MonomialOrder.LEX
    f, g = up([(1, 1), (0, 1)]), up([(2, 1), (0, 3)], lex)
    with pytest.raises(OrderMismatchError):
        mul_heap(f, g)
    with pytest.raises(OrderMismatchError):
        mul_heap(g, f)
    with pytest.raises(OrderMismatchError):  # each pair is of one order
        merge_products([(f, f), (g, g)], GRLEX)


@pytest.mark.parametrize("route", list(GbRoute))
def test_mul_heap_gb_empty_geobucket_of_another_order(route):
    with pytest.raises(OrderMismatchError):
        mul_heap_gb(up([(1, 1)]), gb_new(MonomialOrder.LEX), route)


def test_mul_heap_gb_takes_a_route_by_its_value():
    f = up([(e, 1) for e in range(0, 40, 5)])
    gb = gb_new(GRLEX)
    for size, start in [(3, 1), (10, 4), (18, 14)]:  # buckets of 3, 10 and 18 terms
        gb.add(up([(start + 50 * k, 1) for k in range(size)]))
    assert sorted(len(bk.terms) for bk in gb.buckets if bk.terms) == [3, 10, 18]
    counts = {}
    for route in GbRoute:
        for given in (route, route.value):
            with count_ops() as c:
                h = mul_heap_gb(f, gb, given)
            assert h == mul_naive(f, gb.normalize())
            counts[given] = c.comparisons, c.heap_extractions
        assert counts[route] == counts[route.value]
    assert counts[GbRoute.PER_BUCKET_STREAMS] != counts[GbRoute.HYBRID]
    with pytest.raises(ValueError):
        mul_heap_gb(f, gb, "bogus")


# -- the three routes share one loop; each makes its old branch's product and counts

from polycert import Term, add  # noqa: E402


def _old_route(f, gb, route, hybrid_threshold):
    """mul_heap_gb's three branches as they were written before they shared a loop."""
    if route is GbRoute.CONVERT_FIRST:
        return mul_heap(f, gb.normalize())
    if route is GbRoute.PER_BUCKET_STREAMS:
        lists = [bk for bk in gb.buckets[1:] if bk.terms]
    else:
        small, lists = zero(f.order), []
        for bk in gb.buckets[1:]:
            if not bk.terms:
                continue
            if len(bk.terms) <= hybrid_threshold:
                small = add(small, bk)
            else:
                lists.append(bk)
        if small.terms:
            lists.append(small)
    terms = merge_products([(f, bk) for bk in lists], f.order)
    return Polynomial(f.order, tuple(Term(ev, c) for ev, c in terms))


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("route", list(GbRoute))
def test_each_route_makes_its_old_branch_product_and_counts(order, route):
    rng = random.Random(29)
    for trial in range(12):
        f = random_poly(rng, order, rng.randrange(0, 8), max_exp=8)
        if trial % 2:
            gb = _random_gb(rng, order, rng.randrange(0, 10))
        else:  # c = 2: buckets of at most 2, 4, 8, 16 terms; the 4-term one empty
            gb = gb_new(order, 2)
            gb.buckets = [zero(order)] + [
                random_poly(rng, order, n, max_exp=8) for n in (2, 0, 8, 16)
            ]
            assert gb.check_invariants()
            assert gb.buckets[1].terms and not gb.buckets[2].terms and gb.buckets[3].terms
        for threshold in (0, 2, 8, 100):
            with count_ops() as new:
                got = mul_heap_gb(f, gb, route, threshold)
            with count_ops() as old:
                want = _old_route(f, gb, route, threshold)
            assert got == want
            assert new == old


# -- what the merge yields -------------------------------------------------------

from polycert import Certificate, ExponentVector, VariableSet, find_witness  # noqa: E402


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("rational", [False, True])
def test_products_are_built_of_terms_and_merges_yield_pairs(order, rational):
    rng = random.Random(31)
    for _ in range(10):
        f = random_poly(rng, order, rng.randrange(1, 8), rational=rational)
        g = random_poly(rng, order, rng.randrange(1, 8))
        gb = _random_gb(rng, order, rng.randrange(1, 6))
        products = [mul_heap(f, g)] + [mul_heap_gb(f, gb, route, 2) for route in GbRoute]
        for h in products:
            assert all(type(t) is Term and type(t.degrees) is ExponentVector for t in h.terms)
        for descending in (True, False):
            merged = list(merge_products([(f, g)], order, descending))
            assert all(type(m) is tuple and len(m) == 2 for m in merged)
            assert all(type(ev) is ExponentVector for ev, _ in merged)
            terms = products[0].terms[:: 1 if descending else -1]
            assert merged == [(t.degrees, t.coeff) for t in terms]


@pytest.mark.parametrize("order", ORDERS)
def test_find_witness_returns_a_pair_or_none(order):
    rng = random.Random(37)
    xy = VariableSet(("x", "y"))
    for _ in range(10):
        lam, g = (random_poly(rng, order, rng.randrange(1, 6), nvars=2) for _ in "lg")
        f = mul_naive(lam, g)
        assert find_witness(Certificate(xy, order, f, ((lam, g),))) is None
        extra = poly_from_terms(order, [(ev_make((20, 20)), 5)])  # above every term of f
        witness = find_witness(Certificate(xy, order, add(f, extra), ((lam, g),)))
        assert type(witness) is tuple and len(witness) == 2
        assert type(witness[0]) is ExponentVector and witness == (ev_make((20, 20)), -5)
