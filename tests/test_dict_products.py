"""Outside a counter scope a product is summed by key in a dict; inside one
the heap merges it, with its counts.

``mul_heap``, the three ``mul_heap_gb`` routes and ``combine`` take the dict
when no scope is open and no product's packed key reaches
``sys.hash_info.modulus`` (2^61 - 1); else the heap merges.  Each test forces
the heap by opening ``count_ops()`` and checks that the two give the same
terms, coefficient types and columns, in the three orders: int coefficients,
Fractions over one short denominator and past its bound, 4400-digit
coefficients, 5000-digit exponents (which take the heap), sums that cancel
and an empty factor.  A spy on ``heapmul.merge_streams`` shows which ran.
"""

import random
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycert import (
    Certificate,
    GbRoute,
    MonomialOrder,
    Polynomial,
    VariableSet,
    combine,
    count_ops,
    ev_make,
    format_certificate,
    gb_new,
    mul_heap,
    mul_heap_gb,
    parse_certificate,
    parse_poly,
    poly_from_terms,
    print_poly,
    term_count,
    zero,
)
from polycert import heapmul, poly
from polycert.heapmul import merge_sources
from polycert.monomial import pack_columns, unpack_columns
from polycert.verifier import _checked_sources

from conftest import ORDERS, random_poly

VARS = VariableSet(("x", "y", "z"))
KINDS = ["mul_heap", *(route.value for route in GbRoute), "combine"]
MODULUS = 2**61 - 1  # sys.hash_info.modulus on a 64-bit build

nonzero = st.integers(-9, 9).filter(bool)
COEFFICIENTS = {
    "int": nonzero,
    # denominators 1 and 7: the merge runs over D = 49, within its bound
    "shared": st.builds(Fraction, nonzero, st.sampled_from([1, 7])),
    # pairwise coprime denominators: past the bound, Fractions merge as given
    "coprime": st.builds(Fraction, nonzero, st.sampled_from([1, 3, 5, 11, 13])),
    "long": nonzero.map(lambda k: k * 10**4399 + k),  # 4400 digits
}


def polys(order, coeff):
    terms = st.lists(st.tuples(st.tuples(*[st.integers(0, 6)] * 3), coeff), max_size=7)
    return terms.map(lambda ts: poly_from_terms(order, [(ev_make(e), c) for e, c in ts]))


def product(kind, pairs):
    """sum p * q over `pairs` by `kind`; all but ``combine`` take one pair."""
    order = pairs[0][0].order
    if kind == "combine":
        return combine(Certificate(VARS, order, zero(order), tuple(pairs)))
    ((p, q),) = pairs
    if kind == "mul_heap":
        return mul_heap(p, q)
    gb = gb_new(order)
    for k in range(3):
        gb.add(Polynomial(order, q.terms[k::3]))
    return mul_heap_gb(p, gb, kind, hybrid_threshold=2)


def both_paths(kind, pairs):
    """`kind`'s product unscoped and inside ``count_ops()``, and whether the
    unscoped one merged; each as its columns and its terms with their types."""
    with patch.object(heapmul, "merge_streams", wraps=heapmul.merge_streams) as spy:
        plain = product(kind, pairs)
    with count_ops():
        heap = product(kind, pairs)
    assert "terms" not in vars(plain)  # held as columns
    shapes = [(poly.columns(p), [(t.degrees, t.coeff, type(t.coeff)) for t in p.terms])
              for p in (plain, heap)]
    return shapes[0], shapes[1], spy.called


def parsed(p):
    return parse_poly(print_poly(p, VARS), VARS, p.order)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.value)
@pytest.mark.parametrize("case", COEFFICIENTS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_the_dict_gives_the_heaps_product(case, order, kind, data):
    factor = polys(order, COEFFICIENTS[case])
    count = data.draw(st.integers(1, 3)) if kind == "combine" else 1
    pairs = [(data.draw(factor), data.draw(factor)) for _ in range(count)]
    if case != "long" and data.draw(st.booleans()):  # parsed: each keeps its own keys
        pairs = [(parsed(p), parsed(q)) for p, q in pairs]
    plain, heap, merged = both_paths(kind, pairs)
    assert plain == heap and not merged


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.value)
def test_the_one_denominator_bound_holds_in_both_cases(kind, order):
    # the strategies above reach both sides of the set-up's bound
    rng = random.Random(str(order))
    ints, coprime = random_poly(rng, order, 8), random_poly(rng, order, 8, rational=True)
    sevenths = poly_from_terms(order, [(t.degrees, Fraction(t.coeff, 7)) for t in ints.terms])
    assert merge_sources([(sevenths, sevenths)], order)[1] == 49
    assert merge_sources([(coprime, coprime)], order)[1] is None  # denominators 2, 3, 5
    for pair in ((sevenths, sevenths), (coprime, coprime), (sevenths, coprime)):
        plain, heap, merged = both_paths(kind, [pair])
        assert plain == heap and not merged


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.value)
def test_a_5000_digit_exponent_takes_the_heap(kind, order):
    rng = random.Random(5)
    p, q = random_poly(rng, order, 9), random_poly(rng, order, 7)
    p = poly_from_terms(order, [(t.degrees, t.coeff) for t in p.terms]
                        + [(ev_make((10**4999 + 3, 0, 1)), -2)])
    plain, heap, merged = both_paths(kind, [(p, q)])
    assert plain == heap and merged


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.value)
def test_cancelled_and_empty_products(kind, order):
    x, y = (poly_from_terms(order, [(ev_make(e), 1)]) for e in ((1, 0, 0), (0, 1, 0)))
    plus = poly_from_terms(order, [(ev_make((1, 0, 0)), 1), (ev_make((0, 1, 0)), 1)])
    minus = poly_from_terms(order, [(ev_make((1, 0, 0)), 1), (ev_make((0, 1, 0)), -1)])
    cases = [[(plus, minus)], [(plus, zero(order))], [(zero(order), minus)]]
    if kind == "combine":  # x*y - y*x: every term cancels
        cases.append([(x, y), (poly_from_terms(order, [(ev_make((0, 1, 0)), -1)]), x)])
    for pairs in cases:
        plain, heap, merged = both_paths(kind, pairs)
        assert plain == heap and not merged
    assert [t.degrees.exponents for t in mul_heap(plus, minus).terms] == [(2, 0, 0), (0, 2, 0)]
    if kind == "combine":
        assert plain == (([], []), [])  # no columns, as the heap holds a zero product


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.value)
def test_combine_unpacks_at_the_certificates_kept_width(order):
    # f's cancelling x^60*y terms widen the shift its parser packs lambda and g at
    rng = random.Random(9)
    lam, g = random_poly(rng, order, 6), random_poly(rng, order, 5)
    text = format_certificate(Certificate(VARS, order, mul_heap(lam, g), ((lam, g),)))
    cert = parse_certificate("\n".join(line + " + x^60*y - x^60*y" if line.startswith("f: ")
                                       else line for line in text.splitlines()))
    assert _checked_sources(cert, False, False)[2] > heapmul._set_up([(g, lam)], order, False)[2]
    with count_ops():
        heap = combine(cert)
    assert combine(cert) == heap == mul_heap(lam, g) == cert.f


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.value)
def test_an_unscoped_product_prints_and_counts_without_terms(kind, order):
    rng = random.Random(13)
    p, q = random_poly(rng, order, 12), random_poly(rng, order, 9)
    prod = product(kind, [(p, q)])
    text = print_poly(prod, VARS)
    assert term_count(prod) == text.count(" + ") + text.count(" - ") + 1
    assert "terms" not in vars(prod)  # print_poly built no Term
    with count_ops():
        assert text == print_poly(product(kind, [(p, q)]), VARS)


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.value)
@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(*[st.integers(0, 40)] * 3), min_size=1, max_size=8),
       wider=st.integers(0, 3))
def test_unpack_columns_reads_back_pack_columns(order, rows, wider):
    columns = [list(column) for column in zip(*rows)]
    shift = (2 * max(map(sum, rows))).bit_length() + wider
    assert unpack_columns(order, pack_columns(order, columns, shift), shift, 3) == columns


def univariate(*terms):
    """A one-variable lex polynomial of (exponent, coefficient) terms."""
    return poly_from_terms(MonomialOrder.LEX, [(ev_make((e,)), c) for e, c in terms])


@pytest.mark.parametrize("top, merged", [
    (MODULUS - 1, False),  # 2^61 - 2: distinct ints up to here hash distinctly
    (MODULUS, True),
    (MODULUS + 1, True),
    (10**30, True),
])
def test_a_key_that_could_reach_the_hash_modulus_takes_the_heap(top, merged):
    # one variable, lex: a key is its exponent, and the largest sum is top
    p, q = univariate((top - 1, 3), (5, -1), (0, 2)), univariate((1, 1), (0, 7))
    plain, heap, took_heap = both_paths("mul_heap", [(p, q)])
    assert plain == heap and took_heap is merged
    assert plain[1][0][0].exponents == (top,)


def test_crafted_exponents_sharing_a_hash_give_the_exact_product():
    # every multiple of 2^61 - 1 hashes alike: the heap, not a dict, sums them
    p = univariate(*((k * MODULUS, k) for k in range(200, 0, -1)))
    q = univariate((1, 1), (0, -1))
    plain, heap, merged = both_paths("mul_heap", [(p, q)])
    assert plain == heap and merged
    # (sum_k k x^(kM)) (x - 1) = sum_k k x^(kM + 1) - k x^(kM)
    expected = sorted([(k * MODULUS + 1, k) for k in range(1, 201)]
                      + [(k * MODULUS, -k) for k in range(1, 201)], reverse=True)
    assert [(t[0].exponents[0], t[1]) for t in plain[1]] == expected
