import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycert import (
    MonomialOrder,
    add,
    count_ops,
    ev_add,
    ev_make,
    leading_term,
    mul_naive,
    negate,
    poly_from_terms,
    scale,
    term_count,
    zero,
)
from polycert.errors import DimensionError, EmptyPolynomialError, OrderMismatchError
from polycert.poly import is_well_formed

from conftest import ORDERS, disjoint_interleaved, random_poly

GRLEX = MonomialOrder.GRLEX


def up(pairs, order=GRLEX):
    return poly_from_terms(order, [(ev_make((e,)), c) for e, c in pairs])


def as_map(p):
    return {t.degrees.exponents: t.coeff for t in p.terms}


def test_from_terms_examples():
    p = up([(2, 1), (0, 2)])
    assert term_count(p) == 2
    assert as_map(p) == {(2,): 1, (0,): 2}
    assert up([(1, 1), (1, -1)]).is_zero()
    q = up([(1, 2), (2, 1), (1, 1)])
    assert as_map(q) == {(2,): 1, (1,): 3}
    assert [t.degrees.exponents for t in q.terms] == [(2,), (1,)]


@pytest.mark.parametrize("order", ORDERS)
def test_from_terms_rejects_mixed_dimensions(order):
    with pytest.raises(DimensionError):
        poly_from_terms(order, [(ev_make((1,)), 1), (ev_make((1, 2)), 1)])


def test_add_examples():
    q = up([(2, 1), (0, 2)])
    assert add(zero(GRLEX), q) == q
    assert as_map(add(q, up([(1, 2)]))) == {(2,): 1, (1,): 2, (0,): 2}
    p = up([(1, 1), (0, 1)])
    assert add(p, negate(p)).is_zero()


def test_add_order_mismatch():
    with pytest.raises(OrderMismatchError):
        add(zero(MonomialOrder.LEX), zero(GRLEX))


def test_merge_cost_worst_case():
    p = up([(5, 1), (3, 1), (1, 1)])
    q = up([(6, 1), (4, 1), (2, 1), (0, 1)])
    with count_ops() as c:
        r = add(p, q)
    assert c.comparisons == 6  # m + n - 1
    assert term_count(r) == 7


def test_merge_cost_never_exceeds_bound(rng):
    for _ in range(200):
        m, n = rng.randrange(0, 20), rng.randrange(0, 20)
        p = random_poly(rng, GRLEX, m, nvars=2)
        q = random_poly(rng, GRLEX, n, nvars=2)
        with count_ops() as c:
            add(p, q)
        bound = max(term_count(p) + term_count(q) - 1, 0)
        assert c.comparisons <= bound


@pytest.mark.parametrize("lmn", [(10, 3, 3), (50, 5, 5), (100, 4, 4)])
def test_addition_cost_not_associative(lmn):
    l, m, n = lmn
    p, q, r = disjoint_interleaved(GRLEX, l, m, n)
    with count_ops() as c1:
        add(p, add(q, r))
    with count_ops() as c2:
        add(add(p, q), r)
    assert c1.comparisons == l + 2 * (m + n) - 2
    assert c2.comparisons == 2 * (l + m) + n - 2


def test_scale_and_negate():
    assert negate(zero(GRLEX)).is_zero()
    p = up([(1, 1), (0, 1)])
    assert scale(0, p).is_zero()
    assert as_map(scale(2, p)) == {(1,): 2, (0,): 2}
    assert as_map(scale(Fraction(1, 2), p)) == {(1,): Fraction(1, 2), (0,): Fraction(1, 2)}


def test_mul_examples():
    one = up([(0, 1)])
    q = up([(3, 2), (1, -1)])
    assert mul_naive(one, q) == q
    prod = mul_naive(up([(1, 1), (0, 1)]), up([(1, 1), (0, -1)]))
    assert as_map(prod) == {(2,): 1, (0,): -1}


def schoolbook(p, q):
    acc = {}
    for s in p.terms:
        for t in q.terms:
            key = ev_add(s.degrees, t.degrees)
            acc[key.exponents] = acc.get(key.exponents, 0) + s.coeff * t.coeff
    return {k: v for k, v in acc.items() if v != 0}


def test_mul_against_schoolbook(rng):
    for _ in range(100):
        order = rng.choice(ORDERS)
        p = random_poly(rng, order, rng.randrange(0, 8))
        q = random_poly(rng, order, rng.randrange(0, 8), rational=rng.random() < 0.5)
        prod = mul_naive(p, q)
        assert is_well_formed(prod)
        assert as_map(prod) == schoolbook(p, q)


def test_leading_term_and_count():
    p = up([(2, 1), (0, 2)])
    lt = leading_term(p)
    assert lt.degrees.exponents == (2,) and lt.coeff == 1
    assert term_count(zero(GRLEX)) == 0
    with pytest.raises(EmptyPolynomialError):
        leading_term(zero(GRLEX))


small_polys = st.lists(
    st.tuples(
        st.lists(st.integers(0, 4), min_size=2, max_size=2),
        st.integers(-4, 4).filter(lambda c: c != 0),
    ),
    max_size=6,
).map(lambda ps: poly_from_terms(GRLEX, [(ev_make(tuple(e)), c) for e, c in ps]))


@given(p=small_polys, q=small_polys)
@settings(max_examples=150, deadline=None)
def test_add_commutes_and_well_formed(p, q):
    s = add(p, q)
    assert s == add(q, p)
    assert is_well_formed(s)
    assert add(p, zero(GRLEX)) == p


@given(p=small_polys, q=small_polys, r=small_polys)
@settings(max_examples=100, deadline=None)
def test_add_associative_in_value(p, q, r):
    assert add(p, add(q, r)) == add(add(p, q), r)


@given(p=small_polys, q=small_polys, r=small_polys)
@settings(max_examples=60, deadline=None)
def test_mul_distributes_over_add(p, q, r):
    assert mul_naive(p, add(q, r)) == add(mul_naive(p, q), mul_naive(p, r))


def evaluate(p, point):
    total = 0
    for t in p.terms:
        v = t.coeff
        for x, e in zip(point, t.degrees.exponents):
            v *= x**e
        total += v
    return total


def test_value_semantics_at_random_points(rng):
    for _ in range(50):
        p = random_poly(rng, GRLEX, 6)
        q = random_poly(rng, GRLEX, 6)
        point = tuple(rng.randrange(-3, 4) for _ in range(3))
        assert evaluate(add(p, q), point) == evaluate(p, point) + evaluate(q, point)
        assert evaluate(mul_naive(p, q), point) == evaluate(p, point) * evaluate(q, point)


def test_unchecked_term_is_the_frozen_class():
    from dataclasses import FrozenInstanceError

    from polycert.poly import Term, term_unchecked

    for exps, c in [((0, 0), 1), ((2, 5), -7), ((1, 0), Fraction(-3, 4))]:
        ev = ev_make(exps)
        built, fast = Term(ev, c), term_unchecked(ev, c)
        assert type(fast) is Term
        assert fast == built and hash(fast) == hash(built) and repr(fast) == repr(built)
        for field in ("degrees", "coeff"):
            with pytest.raises(FrozenInstanceError):
                setattr(fast, field, getattr(built, field))
        assert fast == built


# -- merge-add tallies its own steps; add and mul_naive check their inputs

from polycert import OpCounters, Polynomial  # noqa: E402
from polycert.errors import FormatError  # noqa: E402


def two_pointer_steps(p, q):
    """Steps of a two-pointer merge of p's and q's terms, on the order's keys."""
    ka = [p.order.key(t.degrees) for t in p.terms]
    kb = [q.order.key(t.degrees) for t in q.terms]
    i = j = steps = 0
    while i < len(ka) and j < len(kb):
        i, j, steps = i + (ka[i] >= kb[j]), j + (ka[i] <= kb[j]), steps + 1
    return steps


term_lists = st.lists(
    st.tuples(st.tuples(*[st.integers(0, 3)] * 3), st.integers(-3, 3).filter(bool)),
    max_size=8,
)


@given(order=st.sampled_from(ORDERS), a=term_lists, b=term_lists)
@settings(max_examples=200, deadline=None)
def test_add_counts_the_steps_of_a_two_pointer_merge(order, a, b):
    p, q = (poly_from_terms(order, [(ev_make(e), c) for e, c in ts]) for ts in (a, b))
    with count_ops() as c:
        s = add(p, q)
    assert c.comparisons == two_pointer_steps(p, q)
    common = {t.degrees for t in p.terms} & {t.degrees for t in q.terms}
    assert c.coeff_adds == len(common)
    assert s == poly_from_terms(order, [(t.degrees, t.coeff) for t in p.terms + q.terms])


@pytest.mark.parametrize("order", ORDERS)
def test_add_and_mul_naive_reject_an_input_not_strictly_decreasing(order):
    good = poly_from_terms(order, [(ev_make((e, 0)), 1) for e in (2, 1, 0)])  # x^2 + x + 1
    for bad in (Polynomial(order, good.terms[::-1]), Polynomial(order, good.terms[:1] * 2)):
        for args in ((bad, good), (good, bad)):
            with count_ops() as c:
                with pytest.raises(FormatError, match="strictly decreasing"):
                    add(*args)
                with pytest.raises(FormatError, match="strictly decreasing"):
                    mul_naive(*args)
            assert c == OpCounters()  # checked before any counted work
