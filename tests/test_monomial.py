import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycert import MonomialOrder, VariableSet, ev_add, ev_compare, ev_make
from polycert.errors import DimensionError, DomainError

from conftest import ORDERS

evs = st.lists(st.integers(min_value=0, max_value=30), min_size=3, max_size=3).map(
    lambda xs: ev_make(tuple(xs))
)
# small exponents make equal totals, where the orders differ, common
small_evs = st.tuples(*[st.integers(min_value=0, max_value=3)] * 3).map(ev_make)


def test_ev_make_totals():
    assert ev_make((1, 0, 0)).total == 1
    assert ev_make((0, 0, 0)).total == 0
    # p^12 x^2 style exponent vector
    assert ev_make((12, 2, 0)).total == 14


def test_ev_make_rejects_negatives():
    with pytest.raises(DomainError):
        ev_make((1, -1))


def test_ev_add():
    assert ev_add(ev_make((1, 0)), ev_make((0, 1))) == ev_make((1, 1))
    a = ev_make((3, 1, 4))
    assert ev_add(a, ev_make((0, 0, 0))) == a
    s = ev_add(ev_make((2, 3)), ev_make((5, 7)))
    assert s.exponents == (7, 10) and s.total == 17


def test_ev_add_dimension_mismatch():
    with pytest.raises(DimensionError):
        ev_add(ev_make((1,)), ev_make((1, 2)))
    with pytest.raises(DimensionError):
        ev_compare(MonomialOrder.LEX, ev_make((1,)), ev_make((1, 2)))


def test_compare_examples():
    # grlex, x before y: x^1 vs y^1 ties on total, lex breaks toward x
    assert ev_compare(MonomialOrder.GRLEX, ev_make((1, 0)), ev_make((0, 1))) == 1
    assert ev_compare(MonomialOrder.LEX, ev_make((0, 1)), ev_make((1, 0))) == -1
    for o in ORDERS:
        assert ev_compare(o, ev_make((2, 1)), ev_make((2, 1))) == 0


def test_lex_brute_force():
    # lex agrees with tuple comparison by construction; spot-check a grid
    vals = [(a, b) for a in range(4) for b in range(4)]
    for x in vals:
        for y in vals:
            got = ev_compare(MonomialOrder.LEX, ev_make(x), ev_make(y))
            assert got == (x > y) - (x < y)


def test_grevlex_vs_grlex_differ():
    # separating example: x*y*z^2 vs y^3*z under (x, y, z), equal totals
    a, b = ev_make((1, 1, 2)), ev_make((0, 3, 1))
    assert ev_compare(MonomialOrder.GRLEX, a, b) == 1
    assert ev_compare(MonomialOrder.GREVLEX, a, b) == -1


@pytest.mark.parametrize("order", ORDERS)
@given(a=evs, b=evs)
@settings(max_examples=200, deadline=None)
def test_totality_antisymmetry(order, a, b):
    ab = ev_compare(order, a, b)
    ba = ev_compare(order, b, a)
    assert ab == -ba
    assert (ab == 0) == (a.exponents == b.exponents)


@pytest.mark.parametrize("order", ORDERS)
@given(a=evs, b=evs, k=evs)
@settings(max_examples=200, deadline=None)
def test_compatible_with_multiplication(order, a, b, k):
    if ev_compare(order, a, b) == -1:
        assert ev_compare(order, ev_add(a, k), ev_add(b, k)) == -1


@pytest.mark.parametrize("order", ORDERS)
@given(a=evs)
@settings(max_examples=100, deadline=None)
def test_zero_vector_is_minimum(order, a):
    z = ev_make((0, 0, 0))
    assert ev_compare(order, a, z) >= 0


@pytest.mark.parametrize("order", ORDERS)
@given(a=st.one_of(evs, small_evs), b=st.one_of(evs, small_evs))
@settings(max_examples=200, deadline=None)
def test_key_orders_as_ev_compare(order, a, b):
    ka, kb = order.key(a), order.key(b)
    assert (ka > kb) - (ka < kb) == ev_compare(order, a, b)


@pytest.mark.parametrize("order", ORDERS)
@given(a=evs, b=evs)
@settings(max_examples=200, deadline=None)
def test_key_is_linear(order, a, b):
    # the merge heap keys a product term by the sum of its factors' keys
    summed = tuple(x + y for x, y in zip(order.key(a), order.key(b), strict=True))
    assert order.key(ev_add(a, b)) == summed


@given(chain=st.lists(evs, min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_cached_total_survives_addition(chain):
    acc = chain[0]
    for ev in chain[1:]:
        acc = ev_add(acc, ev)
    assert acc.total == sum(acc.exponents)


def test_variable_set_invariants():
    with pytest.raises(DomainError):
        VariableSet(())
    with pytest.raises(DomainError):
        VariableSet(("x", "x"))
    vs = VariableSet(("x", "y"))
    assert vs.index("y") == 1
    with pytest.raises(DomainError):
        vs.index("w")
    with pytest.raises(DimensionError):
        vs.exponent_vector((1, 2, 3))


def test_unchecked_exponent_vector_is_the_frozen_class():
    from dataclasses import FrozenInstanceError

    from polycert.monomial import ExponentVector, ev_unchecked

    for exps in [(), (0,), (3, 0, 2), (10**40, 1, 0)]:
        built, fast = ExponentVector(exps, sum(exps)), ev_unchecked(exps, sum(exps))
        assert type(fast) is ExponentVector
        assert fast == built and hash(fast) == hash(built) and repr(fast) == repr(built)
        assert {built: 1}[fast] == 1
        for field in ("exponents", "total"):
            with pytest.raises(FrozenInstanceError):
                setattr(fast, field, getattr(built, field))
        assert fast == built


from polycert import OpCounters, count_ops  # noqa: E402


@given(order=st.sampled_from(ORDERS), a=small_evs, b=small_evs)
@settings(max_examples=100, deadline=None)
def test_ev_compare_counts_nothing(order, a, b):
    with count_ops() as c:
        ev_compare(order, a, b)
    assert c == OpCounters()


@pytest.mark.parametrize(
    "names", [("1x", "y"), ("x*y", "z"), ("x", " y"), ("x", "é"), ("x", 1)]
)
def test_variable_set_rejects_a_name_the_grammar_cannot_read(names):
    with pytest.raises(DomainError):
        VariableSet(names)
