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
    GbRoute,
    Geobucket,
    MonomialOrder,
    OpCounters,
    Polynomial,
    add,
    count_ops,
    ev_make,
    mul_heap_gb,
    mul_naive,
    poly_from_terms,
    scale,
)
from polycert.errors import DomainError
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
