"""Every kernel entry point takes its inputs through one check
(:func:`polycert.poly.checked_keys`): a coefficient that is neither an int
nor a Fraction is rejected before any counted work, and the counts of the
kernels whose inputs it checks stay as they were."""

import random
import re
from dataclasses import astuple
from decimal import Decimal

import pytest

from polycert import (
    Const,
    GbRoute,
    Geobucket,
    MonomialOrder,
    OpCounters,
    Polynomial,
    VariableSet,
    add,
    count_ops,
    ev_make,
    leading_term,
    mul_heap_gb,
    mul_naive,
    negate,
    poly_from_terms,
    read_sorted,
    scale,
    to_distributed,
)
from polycert.errors import DomainError, FormatError
from polycert.poly import Term, is_well_formed

from conftest import ORDERS, random_poly


@pytest.mark.parametrize("bad", [0.5, Decimal("1.5")], ids=["float", "Decimal"])
@pytest.mark.parametrize("order", ORDERS)
def test_a_coefficient_outside_the_domain_is_rejected_before_any_work(order, bad):
    good = poly_from_terms(order, [(ev_make((e, 1)), e + 1) for e in (3, 1, 0)])
    p = Polynomial(order, (Term(ev_make((2, 0)), 1), Term(ev_make((0, 0)), bad)))
    message = re.escape(f"coefficient {bad!r} is neither an int nor a Fraction")
    gb = Geobucket(order, c=2)
    gb.add(good)
    buckets = list(gb.buckets)
    with count_ops() as c:
        for kernel in (add, mul_naive):
            for args in ((p, good), (good, p)):
                with pytest.raises(DomainError, match=message):
                    kernel(*args)
        with pytest.raises(DomainError, match=message):
            gb.add(p)
    assert c == OpCounters()  # checked before any counted work
    assert gb.buckets == buckets
    assert not is_well_formed(p)


@pytest.mark.parametrize("bad", [0.5, 0.0, Decimal("1.5")], ids=["float", "zero", "Decimal"])
def test_scale_rejects_a_coefficient_outside_the_domain(bad):
    p = poly_from_terms(MonomialOrder.GRLEX, [(ev_make((e, 1)), e + 1) for e in (3, 1, 0)])
    message = re.escape(f"coefficient {bad!r} is neither an int nor a Fraction")
    with count_ops() as c, pytest.raises(DomainError, match=message):
        scale(bad, p)
    assert c == OpCounters()


GRLEX = MonomialOrder.GRLEX
HALF = Polynomial(GRLEX, (Term(ev_make((1, 0)), 1), Term(ev_make((0, 0)), 0.5)))
UNSORTED = Polynomial(GRLEX, (Term(ev_make((0, 0)), 1), Term(ev_make((1, 0)), 2)))


def test_scale_checks_the_polynomial_after_the_scalar():
    for c in (2, 0):
        with count_ops() as counts, pytest.raises(DomainError, match="0.5"):
            scale(c, HALF)
        assert counts == OpCounters()
    with pytest.raises(DomainError, match="1.5"):
        scale(1.5, HALF)
    with pytest.raises(FormatError, match="not strictly decreasing"):
        scale(2, UNSORTED)


def test_negate_checks_its_input():
    with pytest.raises(DomainError, match="0.5"):
        negate(HALF)
    with pytest.raises(FormatError, match="not strictly decreasing"):
        negate(UNSORTED)


def test_leading_term_checks_its_input():
    with pytest.raises(FormatError, match="not strictly decreasing"):
        leading_term(UNSORTED)
    with pytest.raises(DomainError, match="0.5"):
        leading_term(HALF)


@pytest.mark.parametrize("bad", [0.5, 0.0, -1.0, Decimal("1.5")])
def test_poly_from_terms_rejects_a_coefficient_outside_the_domain(bad):
    # -1.0 combines with the 1 into a float 0.0, which the sum would drop
    pairs = [(ev_make((1, 0)), 1), (ev_make((1, 0)), bad), (ev_make((0, 0)), 2)]
    message = re.escape(f"coefficient {bad!r} is neither an int nor a Fraction")
    with count_ops() as c:
        with pytest.raises(DomainError, match=message):
            poly_from_terms(GRLEX, pairs)
        if bad != 0:
            with pytest.raises(DomainError, match=message):
                read_sorted(pairs[1:], GRLEX)
        with pytest.raises(DomainError, match=message):
            to_distributed(Const(bad), VariableSet(("x", "y")), GRLEX)
    assert c == OpCounters()


# Every OpCounters field (comparisons, coeff_adds, coeff_muls,
# heap_extractions, heap_peak) of the kernels that fold merge-adds, on fixed
# seeded inputs, as the term-by-term comparison of monomials counted them.
PINNED = {
    "lex": {
        "add": (74, 3, 0, 0, 0),
        "mul_naive": (2203, 77, 253, 0, 0),
        "geobucket": (225, 32, 0, 0, 0),
        "mul_heap_gb convert": (2507, 897, 1357, 1357, 23),
        "mul_heap_gb per-bucket": (3391, 1392, 1886, 1886, 92),
        "mul_heap_gb hybrid": (3167, 1392, 1886, 1886, 69),
    },
    "grlex": {
        "add": (72, 3, 0, 0, 0),
        "mul_naive": (2207, 77, 253, 0, 0),
        "geobucket": (229, 32, 0, 0, 0),
        "mul_heap_gb convert": (2590, 897, 1357, 1357, 23),
        "mul_heap_gb per-bucket": (3304, 1392, 1886, 1886, 92),
        "mul_heap_gb hybrid": (3067, 1392, 1886, 1886, 69),
    },
    "grevlex": {
        "add": (72, 3, 0, 0, 0),
        "mul_naive": (2201, 77, 253, 0, 0),
        "geobucket": (228, 32, 0, 0, 0),
        "mul_heap_gb convert": (2567, 897, 1357, 1357, 23),
        "mul_heap_gb per-bucket": (3323, 1392, 1886, 1886, 92),
        "mul_heap_gb hybrid": (3083, 1392, 1886, 1886, 69),
    },
}


def _counts(order):
    rng = random.Random(17)
    p, q = (random_poly(rng, order, 25, max_exp=4) for _ in range(2))
    r = random_poly(rng, order, 12, max_exp=3, rational=True)
    parts = [random_poly(rng, order, rng.randrange(1, 20), max_exp=4) for _ in range(12)]
    got = {}
    with count_ops() as c:
        add(p, q)
        add(q, r)
    got["add"] = astuple(c)
    with count_ops() as c:
        mul_naive(p, r)
    got["mul_naive"] = astuple(c)
    gb = Geobucket(order, c=2)
    with count_ops() as c:
        for part in parts:
            gb.add(part)
        gb.normalize()
    got["geobucket"] = astuple(c)
    for route in GbRoute:
        with count_ops() as c:
            mul_heap_gb(q, gb, route)  # hybrid folds 8 and 14 terms
        got[f"mul_heap_gb {route.value}"] = astuple(c)
    return got


@pytest.mark.parametrize("order", ORDERS)
def test_fold_counters_pinned(order):
    assert _counts(order) == PINNED[order.value]
