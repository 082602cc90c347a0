import pytest

from polycert import (
    MonomialOrder,
    OpCounters,
    Polynomial,
    Term,
    add,
    count_ops,
    ev_make,
    gb_new,
    poly_from_terms,
    zero,
)
from polycert.errors import DomainError, FormatError, OrderMismatchError
from polycert.poly import is_well_formed

from conftest import ORDERS, random_poly

GRLEX = MonomialOrder.GRLEX


def up(pairs, order=GRLEX):
    return poly_from_terms(order, [(ev_make((e,)), c) for e, c in pairs])


def test_new():
    gb = gb_new(GRLEX, 4)
    assert gb.normalize().is_zero()
    assert gb_new(MonomialOrder.LEX, 2).normalize().is_zero()
    with pytest.raises(DomainError):
        gb_new(GRLEX, 1)


def test_add_order_mismatch():
    gb = gb_new(GRLEX)
    with pytest.raises(OrderMismatchError):
        gb.add(zero(MonomialOrder.LEX))


def test_target_bucket_rule():
    gb = gb_new(GRLEX, 4)
    assert gb._target_bucket(1) == 1
    assert gb._target_bucket(4) == 1
    assert gb._target_bucket(5) == 2  # 4 < 5 <= 16
    assert gb._target_bucket(16) == 2
    assert gb._target_bucket(17) == 3


def test_add_zero_is_noop():
    gb = gb_new(GRLEX)
    gb.add(up([(3, 1)]))
    before = gb.normalize()
    gb.add(zero(GRLEX))
    assert gb.normalize() == before


def test_cascade_on_disjoint_four_term_blocks():
    # five disjoint 4-term polynomials, c=4: bucket 1 overflows into bucket 2
    gb = gb_new(GRLEX, 4)
    for b in range(5):
        gb.add(up([(20 * b + k, 1) for k in range(4)]))
    assert gb.check_invariants()
    assert len(gb.buckets[1].terms) <= 4
    assert len(gb.buckets[2].terms) <= 16
    assert len(gb.normalize().terms) == 20


def test_normalize_examples(rng):
    gb = gb_new(GRLEX)
    assert gb.normalize().is_zero()
    p = up([(3, 1), (1, 2)])
    gb.add(p)
    assert gb.normalize() == p
    # random fill vs fold of plain add
    gb2 = gb_new(GRLEX)
    acc = zero(GRLEX)
    for _ in range(50):
        q = random_poly(rng, GRLEX, rng.randrange(0, 5), nvars=2)
        gb2.add(q)
        acc = add(acc, q)
        assert gb2.check_invariants()
    norm = gb2.normalize()
    assert norm == acc
    assert is_well_formed(norm)


def test_amortized_win_over_left_fold(rng):
    # geobucket accumulation beats the left fold from some size on; check the
    # comparison-count ratio grows with n
    ratios = []
    for exp in range(4, 11):
        n = 2**exp
        polys = [
            poly_from_terms(
                GRLEX,
                [(ev_make((rng.randrange(10 * n),)), 1) for _ in range(3)],
            )
            for _ in range(n)
        ]
        with count_ops() as fold_c:
            acc = zero(GRLEX)
            for p in polys:
                acc = add(acc, p)
        with count_ops() as gb_c:
            gb = gb_new(GRLEX)
            for p in polys:
                gb.add(p)
            norm = gb.normalize()
        assert norm == acc
        ratios.append(fold_c.comparisons / gb_c.comparisons)
    assert all(r > 1 for r in ratios[2:])  # strict win from n=64 on
    assert ratios[-1] > ratios[0]  # quadratic vs n log n trend


@pytest.mark.parametrize(
    "c, sizes, comparisons, coeff_adds",
    [
        (2, [2, 4, 6, 0, 0, 0, 78, 155], 2279, 128),
        (4, [2, 6, 46, 166], 2416, 147),
    ],
)
def test_cascade_layout_and_counts_pinned(c, sizes, comparisons, coeff_adds):
    # Bucket sizes and counters after 60 seeded adds, recorded at 84bd6ed.
    import random

    rng = random.Random(11)
    gb = gb_new(GRLEX, c)
    with count_ops() as ops:
        for _ in range(60):
            gb.add(random_poly(rng, GRLEX, rng.randrange(1, 12), nvars=2, max_exp=15))
    assert [len(b.terms) for b in gb.buckets[1:]] == sizes
    assert (ops.comparisons, ops.coeff_adds) == (comparisons, coeff_adds)
    assert gb.check_invariants()


@pytest.mark.parametrize("order", ORDERS)
def test_add_rejects_a_polynomial_not_strictly_decreasing(order):
    good = poly_from_terms(order, [(ev_make((e, 1)), 1) for e in (2, 1, 0)])
    for bad in (Polynomial(order, good.terms[::-1]), Polynomial(order, good.terms[:1] * 2)):
        gb = gb_new(order)
        gb.add(good)
        with count_ops() as ops, pytest.raises(FormatError, match="strictly decreasing"):
            gb.add(bad)
        assert ops == OpCounters()
        assert gb.normalize() == good


@pytest.mark.parametrize("fault", ["order", "descent", "coefficient"])
@pytest.mark.parametrize("order", ORDERS)
def test_a_rejected_add_leaves_the_buckets_and_counters_as_they_were(order, fault):
    # each p has 5 > c terms, so its target bucket 3 lies past the last one
    other = next(o for o in ORDERS if o is not order)
    exps = [(e, 1) for e in range(4, -1, -1)]
    good = poly_from_terms(order, [(ev_make(e), 1) for e in exps])
    error, bad = {
        "order": (OrderMismatchError, poly_from_terms(other, [(ev_make(e), 1) for e in exps])),
        "descent": (FormatError, Polynomial(order, good.terms[::-1])),
        "coefficient": (
            DomainError,
            Polynomial(order, good.terms[:-1] + (Term(ev_make((0, 1)), 0.5),)),
        ),
    }[fault]
    gb = gb_new(order, 2)
    gb.add(poly_from_terms(order, [(ev_make((1, 0)), 1)]))
    before = list(gb.buckets)
    with count_ops() as ops, pytest.raises(error):
        gb.add(bad)
    assert ops == OpCounters()
    assert len(gb.buckets) == len(before) == 2
    assert gb.buckets == before


@pytest.mark.parametrize("c", [2, 4])
def test_terms_that_cancel_across_buckets_normalize_to_zero(c):
    # p fills a higher bucket, -p arrives in pieces small enough for bucket 1
    p = up([(e, e + 1) for e in range(9, -1, -1)])
    gb = gb_new(GRLEX, c)
    gb.add(p)
    assert len(gb.buckets) > 2 and gb.buckets[1].is_zero()
    for t in p.terms:
        gb.add(poly_from_terms(GRLEX, [(t.degrees, -t.coeff)]))
    assert gb.check_invariants()
    assert gb.normalize().is_zero()
