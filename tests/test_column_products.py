"""Products are held as columns, and read as the terms they stand for.

``mul_heap``, the three ``mul_heap_gb`` routes and ``combine`` return a
polynomial held as exponent and coefficient columns, whose ``terms`` are
built when first read.  Against a copy built term by term, in the three
orders, with int, Fraction, 4400-digit coefficients, a 5000-digit exponent
and a zero product, each: compares, hashes, reprs, replaces, astuples,
copies and pickles alike in both directions; prints the same bytes and
raises the same print errors; gives the same results and counters as a
kernel input; reads one ``terms`` tuple however often, and however many
threads race on the first read; and prints, counts its terms and tells
whether it is zero without building any term.
"""

import copy
import pickle
import random
import sys
import threading
from dataclasses import astuple, replace
from fractions import Fraction

import pytest

from polycert import (
    Certificate,
    GbRoute,
    Polynomial,
    ScanDirection,
    Term,
    VariableSet,
    add,
    combine,
    count_ops,
    ev_make,
    find_witness,
    gb_new,
    mul_heap,
    mul_heap_gb,
    parse_poly,
    poly_from_terms,
    print_poly,
    term_count,
    verify,
    zero,
)
from polycert import poly
from polycert.errors import DimensionError, DomainError
from polycert.textio import _ROWS

from conftest import ORDERS, random_poly

VARS = VariableSet(("x", "y", "z"))
CASES = ["int", "fraction", "long_coeff", "long_exponent", "zero"]
KINDS = ["mul_heap", *(route.value for route in GbRoute), "combine"]


def factors(case, order):
    """Two 3-variable factors for `case`."""
    rng = random.Random(f"{case}:{order.value}")
    p = random_poly(rng, order, 12, rational=case == "fraction")
    q = random_poly(rng, order, 9, rational=case == "fraction")
    if case == "long_coeff":  # past the int-string digit limit
        p = poly_from_terms(order, [(t.degrees, t.coeff) for t in p.terms]
                            + [(ev_make((6, 0, 1)), 10**4399 + 12345)])
    elif case == "long_exponent":
        p = poly_from_terms(order, [(t.degrees, t.coeff) for t in p.terms]
                            + [(ev_make((10**4999 + 3, 0, 1)), -2)])
    elif case == "zero":
        q = zero(order)
    return p, q


def product(kind, p, q):
    """p * q by `kind`: ``mul_heap``, a ``mul_heap_gb`` route or ``combine``."""
    order = p.order
    if kind == "mul_heap":
        return mul_heap(p, q)
    if kind == "combine":
        return combine(Certificate(VARS, order, zero(order), ((p, q),)))
    gb = gb_new(order)
    for k in range(3):
        gb.add(Polynomial(order, q.terms[k::3]))
    return mul_heap_gb(p, gb, kind, hybrid_threshold=2)


def by_hand(p):
    """`p` rebuilt term by term: a polynomial held as terms."""
    return Polynomial(p.order, tuple(Term(ev_make(t.degrees.exponents), t.coeff)
                                     for t in p.terms))


def unbuilt(p):
    """Whether `p` is held as columns and has built no term."""
    return "terms" not in vars(p) and term_count(p) == len(poly.columns(p)[1])


def outcome(call, *args):
    """What `call` returns, or the type and message of what it raises."""
    try:
        return "returned", call(*args)
    except Exception as exc:
        return type(exc), str(exc)


def counted(call, *args):
    """`call`'s result in plain form, and its counters."""
    with count_ops() as counters:
        out = call(*args)
    if isinstance(out, Polynomial):
        out = [(t.degrees.exponents, t.coeff) for t in out.terms]
    else:  # a VerifyResult
        out = (out.valid, out.witness, out.stats.peak_terms)
    return out, astuple(counters)


@pytest.fixture(params=ORDERS, ids=lambda o: o.value)
def order(request):
    return request.param


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("kind", KINDS)
def test_a_product_is_held_as_columns_and_reads_as_its_copy(kind, case, order):
    p, q = factors(case, order)
    fresh = lambda: product(kind, p, q)  # noqa: E731
    copied = by_hand(fresh())
    assert unbuilt(fresh())
    assert (fresh() == copied) and (copied == fresh()) and not (fresh() != copied)
    assert hash(fresh()) == hash(copied)
    assert repr(fresh()) == repr(copied)
    assert replace(fresh()) == copied and replace(copied) == fresh()
    assert replace(fresh(), order=order) == replace(copied, order=order)
    assert astuple(fresh()) == astuple(copied)
    for clone in (copy.copy, copy.deepcopy):
        assert clone(fresh()) == copied and clone(copied) == fresh()
        assert repr(clone(fresh())) == repr(copied)
    back = pickle.loads(pickle.dumps(fresh()))
    assert back == copied and repr(back) == repr(copied) and hash(back) == hash(copied)
    assert pickle.loads(pickle.dumps(copied)) == fresh()
    assert type(back) is Polynomial and back.order is order
    if copied.terms:  # and no other polynomial compares equal
        other = Polynomial(order, copied.terms[:-1])
        assert fresh() != other and other != fresh()
    assert fresh().is_zero() == (case == "zero") == copied.is_zero()


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("kind", KINDS)
def test_a_product_prints_as_its_copy(kind, case, order):
    p, q = factors(case, order)
    prod, copied = product(kind, p, q), by_hand(product(kind, p, q))
    assert print_poly(prod, VARS) == print_poly(copied, VARS)
    assert unbuilt(prod)
    narrow = VariableSet(("x", "y"))
    assert outcome(print_poly, prod, narrow) == outcome(print_poly, copied, narrow)
    if case != "zero":
        assert outcome(print_poly, prod, narrow)[0] is DimensionError
        exps, coeffs = poly.columns(prod)
        coeffs[-1] = 1.5  # neither an int nor a Fraction
        bad = poly.poly_from_columns(order, exps, coeffs)
        bad_copy = Polynomial(order, copied.terms[:-1] + (Term(copied.terms[-1].degrees, 1.5),))
        assert outcome(print_poly, bad, VARS)[0] is DomainError
        assert outcome(print_poly, bad, VARS) == outcome(print_poly, bad_copy, VARS)


def test_a_product_longer_than_a_print_chunk_prints_as_its_copy(order):
    rng = random.Random(7)
    p, q = (random_poly(rng, order, 80, max_exp=12) for _ in range(2))
    prod = mul_heap(p, q)
    assert term_count(prod) > 2 * _ROWS  # three chunks or more
    copied = by_hand(mul_heap(p, q))
    text = print_poly(prod, VARS)
    assert text == print_poly(copied, VARS) and parse_poly(text, VARS, order) == copied
    exps, coeffs = poly.columns(prod)
    coeffs[_ROWS + 1] = Fraction(1, 2)  # a Fraction in the second chunk prints too
    coeffs[-1] = "7"  # and a str in the last is refused
    terms = list(copied.terms)
    terms[_ROWS + 1] = Term(terms[_ROWS + 1].degrees, Fraction(1, 2))
    terms[-1] = Term(terms[-1].degrees, "7")
    bad, bad_copy = poly.poly_from_columns(order, exps, coeffs), Polynomial(order, tuple(terms))
    assert outcome(print_poly, bad, VARS)[0] is DomainError
    assert outcome(print_poly, bad, VARS) == outcome(print_poly, bad_copy, VARS)
    assert unbuilt(prod)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("kind", KINDS)
def test_a_product_as_a_kernel_input_gives_its_copys_results_and_counts(kind, case, order):
    p, q = factors(case, order)
    fresh = lambda: product(kind, p, q)  # noqa: E731
    copied = by_hand(fresh())
    r = random_poly(random.Random(3), order, 6)
    for kernel in (lambda x: add(x, r), lambda x: add(r, x), lambda x: mul_heap(x, r),
                   lambda x: mul_heap(r, x)):
        assert counted(kernel, fresh()) == counted(kernel, copied)
    f = by_hand(mul_heap(copied, r))
    for direction in ScanDirection:
        # the product as f, and as a cofactor: both certificates hold
        for cert_of in (lambda x: Certificate(VARS, order, x, ((p, q),)),
                        lambda x: Certificate(VARS, order, f, ((x, r),))):
            result = counted(verify, cert_of(fresh()), direction)
            assert result == counted(verify, cert_of(copied), direction)
            assert result[0][0] and find_witness(cert_of(fresh()), direction) is None
        wrong = Certificate(VARS, order, fresh(), ((p, add(q, r)),))
        wrong_copy = Certificate(VARS, order, copied, ((p, add(q, r)),))
        assert counted(verify, wrong, direction) == counted(verify, wrong_copy, direction)


@pytest.mark.parametrize("kind", KINDS)
def test_terms_are_built_once_however_many_threads_race(kind, order):
    rng = random.Random(11)
    p, q = (random_poly(rng, order, 40, max_exp=9) for _ in range(2))
    prod = product(kind, p, q)
    first = prod.terms
    assert prod.terms is first and first == by_hand(prod).terms
    prod, start, got = product(kind, p, q), threading.Barrier(8, timeout=30), []

    def read():
        start.wait()
        got.append(prod.terms)

    threads = [threading.Thread(target=read) for _ in range(8)]  # more than the cores
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside the first build
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 8 and all(terms is prod.terms for terms in got)
    assert prod.terms == first


@pytest.mark.parametrize("kind", KINDS)
def test_printing_counting_and_testing_a_product_build_no_term(kind, order):
    p, q = factors("int", order)
    prod = product(kind, p, q)
    text = print_poly(prod, VARS)
    assert term_count(prod) > 0 and not prod.is_zero()
    assert unbuilt(prod)
    assert text == print_poly(by_hand(prod), VARS)
    empty = product(kind, p, zero(order))
    assert print_poly(empty, VARS) == "0" and empty.is_zero() and term_count(empty) == 0
    assert unbuilt(empty) and empty.terms == ()


def test_a_product_of_no_variables_has_its_terms():
    one, lex = ev_make(()), ORDERS[0]
    prod = mul_heap(Polynomial(lex, (Term(one, 3),)), Polynomial(lex, (Term(one, -5),)))
    assert unbuilt(prod) and prod.terms == (Term(one, -15),)


def test_a_polynomial_of_mixed_dimensions_is_not_printed():
    # each chunk's terms are read a column at a time, so every term must fit the columns
    lex = ORDERS[0]
    for degrees in ([(3, 0, 0, 1), (1, 0, 0)], [(3, 0, 0), (1, 0, 0, 3)]):
        p = Polynomial(lex, tuple(Term(ev_make(d), 1) for d in degrees))
        with pytest.raises(DimensionError, match="mixed lengths"):
            print_poly(p, VARS)
