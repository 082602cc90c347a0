import pytest

from polycert import (
    LcStrategy,
    MonomialOrder,
    add,
    count_ops,
    ev_make,
    gb_new,
    poly_from_terms,
    zero,
)
from polycert.errors import DomainError, OrderMismatchError
from polycert.poly import is_well_formed

from conftest import random_poly

GRLEX = MonomialOrder.GRLEX


def up(pairs, order=GRLEX):
    return poly_from_terms(order, [(ev_make((e,)), c) for e, c in pairs])


def test_new():
    gb = gb_new(GRLEX, 4, LcStrategy.SCAN_ALL)
    assert gb.normalize().is_zero()
    assert gb_new(MonomialOrder.LEX, 2, LcStrategy.LARGEST_BUCKET).normalize().is_zero()
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


@pytest.mark.parametrize("strategy", list(LcStrategy))
def test_leading_term_examples(strategy):
    gb = gb_new(GRLEX, 4, strategy)
    assert gb.leading_term() is None
    gb.add(up([(1, 1)]))
    gb.add(up([(2, 1), (0, 1)]))
    lt = gb.leading_term()
    assert lt.degrees.exponents == (2,) and lt.coeff == 1
    # hidden zero across buckets
    gb2 = gb_new(GRLEX, 4, strategy)
    gb2.add(up([(1, 1)]))
    gb2.add(up([(1, -1)]))
    assert gb2.leading_term() is None


@pytest.mark.parametrize("strategy", list(LcStrategy))
def test_extract_leading(strategy):
    gb = gb_new(GRLEX, 4, strategy)
    gb.add(up([(2, 1), (0, 2)]))
    t = gb.extract_leading()
    assert t.degrees.exponents == (2,) and t.coeff == 1
    assert gb.normalize() == up([(0, 2)])
    empty = gb_new(GRLEX, 4, strategy)
    assert empty.extract_leading() is None


@pytest.mark.parametrize("strategy", list(LcStrategy))
def test_repeated_extraction_matches_normalize(rng, strategy):
    gb = gb_new(GRLEX, 3, strategy)
    shadow = gb_new(GRLEX, 3, strategy)
    for _ in range(30):
        p = random_poly(rng, GRLEX, rng.randrange(1, 4), nvars=2)
        gb.add(p)
        shadow.add(p)
    expect = list(shadow.normalize().terms)
    got = []
    while True:
        t = gb.extract_leading()
        if t is None:
            break
        got.append(t)
        assert gb.check_invariants()
    assert got == expect


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


@pytest.mark.parametrize("strategy", list(LcStrategy))
def test_strategies_agree(rng, strategy):
    for _ in range(30):
        a = gb_new(GRLEX, 4, LcStrategy.SCAN_ALL)
        b = gb_new(GRLEX, 4, LcStrategy.LARGEST_BUCKET)
        for _ in range(rng.randrange(1, 12)):
            p = random_poly(rng, GRLEX, rng.randrange(0, 5), nvars=2, max_exp=3)
            a.add(p)
            b.add(p)
        assert a.leading_term() == b.leading_term()
        assert a.normalize() == b.normalize()


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
    "strategy, c, sizes, comparisons, coeff_adds",
    [
        (LcStrategy.SCAN_ALL, 2, [2, 4, 6, 0, 0, 0, 77, 150], 2292, 126),
        (LcStrategy.SCAN_ALL, 4, [2, 6, 45, 161], 2415, 145),
        (LcStrategy.LARGEST_BUCKET, 2, [2, 0, 6, 0, 27, 0, 0, 165], 2578, 157),
        (LcStrategy.LARGEST_BUCKET, 4, [2, 6, 21, 167], 2529, 159),
    ],
)
def test_cascade_layout_and_counts_pinned(strategy, c, sizes, comparisons, coeff_adds):
    # Bucket sizes and counters after seeded adds with extractions between
    # them; recorded before the two overflow cascades became one method.
    import random

    rng = random.Random(11)
    gb = gb_new(GRLEX, c, strategy)
    with count_ops() as ops:
        for k in range(60):
            gb.add(random_poly(rng, GRLEX, rng.randrange(1, 12), nvars=2, max_exp=15))
            if k % 7 == 6:
                gb.extract_leading()
    assert [len(b.terms) for b in gb.buckets[1:]] == sizes
    assert (ops.comparisons, ops.coeff_adds) == (comparisons, coeff_adds)
    assert gb.check_invariants()
