"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import math
import random

from polycert import (
    Certificate,
    MonomialOrder,
    Polynomial,
    RecursionMode,
    ScanDirection,
    Term,
    VariableSet,
    add,
    count_ops,
    ev_make,
    format_recursive,
    gb_new,
    mul_heap,
    mul_naive,
    negate,
    parse_poly,
    poly_from_terms,
    read_naive,
    read_sorted,
    term_count,
    to_distributed,
    to_recursive,
    univ_divide,
    univ_pseudo_divide,
    verify,
    verify_naive,
    zero,
)
from polycert.recursive import Const, univariate

from conftest import (
    BIG_COFACTOR_TEXT,
    BIG_COFACTOR_VARS,
    ORDERS,
    disjoint_interleaved,
    random_poly,
)

GRLEX = MonomialOrder.GRLEX


def report(num, ok, detail=""):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def up(exps):
    return poly_from_terms(GRLEX, [(ev_make((e,)), 1) for e in exps])


def test_criterion_1_merge_addition_cost():
    # worst-case interleaving at m=3, n=4: exactly m+n-1 comparisons
    p = up([5, 3, 1])
    q = up([6, 4, 2, 0])
    with count_ops() as c:
        add(p, q)
    exact = c.comparisons
    rng = random.Random(1)
    ok = exact == 6
    for _ in range(400):
        m, n = rng.randrange(1, 65), rng.randrange(1, 65)
        a = random_poly(rng, GRLEX, m, nvars=2, max_exp=12)
        b = random_poly(rng, GRLEX, n, nvars=2, max_exp=12)
        with count_ops() as c:
            add(a, b)
        if c.comparisons > term_count(a) + term_count(b) - 1:
            ok = False
            break
    report(1, ok, f"(m=3,n=4 -> {exact} comparisons)")


def test_criterion_2_associativity_cost_asymmetry():
    ok = True
    details = []
    for l, m, n in [(10, 3, 3), (50, 5, 5), (100, 4, 4)]:
        p, q, r = disjoint_interleaved(GRLEX, l, m, n)
        with count_ops() as c1:
            add(p, add(q, r))
        with count_ops() as c2:
            add(add(p, q), r)
        ok &= c1.comparisons == l + 2 * (m + n) - 2
        ok &= c2.comparisons == 2 * (l + m) + n - 2
        details.append(f"({l},{m},{n}):{c1.comparisons}/{c2.comparisons}")
    report(2, ok, " ".join(details))


def test_criterion_3_geobucket_bound():
    rng = random.Random(2)
    gb = gb_new(GRLEX, 4)
    acc = zero(GRLEX)
    ok = True
    for _ in range(10_000):
        p = random_poly(rng, GRLEX, rng.randrange(0, 4), nvars=3, max_exp=4)
        gb.add(p)
        acc = add(acc, p)
    for k in range(1, len(gb.buckets)):
        if len(gb.buckets[k].terms) > 4**k:
            ok = False
    ok &= gb.check_invariants()
    ok &= gb.normalize() == acc
    report(3, ok, f"({sum(len(b.terms) for b in gb.buckets)} live terms)")


def test_criterion_4_johnson_multiplication():
    rng = random.Random(3)
    ok = True
    for i in range(1000):
        order = ORDERS[i % 3]
        f = random_poly(rng, order, rng.randrange(0, 33), rational=i % 2 == 0)
        g = random_poly(rng, order, rng.randrange(0, 33), rational=i % 5 == 0)
        with count_ops() as c:
            h = mul_heap(f, g)  # heap bound: test_heap_peak_bound_on_criterion_4_instances
        if h != mul_naive(f, g) or c.heap_extractions != term_count(f) * term_count(g):
            ok = False
            break
    report(4, ok, "(1000 instances, 3 orders, int+rational)")


def test_criterion_5_scaling_trend():
    rng = random.Random(4)
    ratios = []
    for n in (16, 32, 64, 128):
        f = random_poly(rng, GRLEX, n, max_exp=40 * n)
        g = random_poly(rng, GRLEX, n, max_exp=40 * n)
        assert term_count(f) == n and term_count(g) == n
        with count_ops() as c:
            mul_heap(f, g)
        ratios.append(c.comparisons / (n * n * math.log2(n)))
    ok = all(0.2 <= r <= 5.0 for r in ratios)
    report(5, ok, f"(ratios {['%.2f' % r for r in ratios]})")


def _random_cert(rng):
    order = rng.choice(ORDERS)
    vs = VariableSet(("x", "y", "z"))
    pairs = tuple(
        (
            random_poly(rng, order, rng.randrange(1, 5)),
            random_poly(rng, order, rng.randrange(1, 5)),
        )
        for _ in range(rng.randrange(1, 9))
    )
    f = zero(order)
    for lam, g in pairs:
        f = add(f, mul_naive(lam, g))
    return Certificate(vs, order, f, pairs)


def test_criterion_6_verifier_correctness():
    rng = random.Random(5)
    ok = True
    for _ in range(1000):
        cert = _random_cert(rng)
        if not (
            verify(cert).valid
            and verify(cert, ScanDirection.MIN_FIRST).valid
            and verify_naive(cert).valid
        ):
            ok = False
            break
        # perturb one coefficient of f
        if cert.f.terms:
            k = rng.randrange(len(cert.f.terms))
            terms = list(cert.f.terms)
            terms[k] = Term(terms[k].degrees, terms[k].coeff + 1)
            bad_f = Polynomial(cert.order, tuple(terms))
        else:
            bad_f = poly_from_terms(
                cert.order, [(ev_make((rng.randrange(3),) * 3), 1)]
            )
        bad = Certificate(cert.varset, cert.order, bad_f, cert.pairs)
        residual = add(cert.f, negate(bad_f))  # = sum lambda_i f_i - bad_f
        res_max = verify(bad)
        res_min = verify(bad, ScanDirection.MIN_FIRST)
        if res_max.valid or res_min.valid or verify_naive(bad).valid:
            ok = False
            break
        if res_max.witness != (residual.terms[0].degrees, residual.terms[0].coeff):
            ok = False
            break
        if res_min.witness != (residual.terms[-1].degrees, residual.terms[-1].coeff):
            ok = False
            break
    report(6, ok, "(1000 certificates, both directions, naive cross-check)")


def test_criterion_7_no_materialization():
    rng = random.Random(6)
    vs = VariableSet(("x", "y", "z"))

    def wide(n):
        pairs = {}
        while len(pairs) < n:
            ev = ev_make(tuple(rng.randrange(1 << 20) for _ in range(3)))
            pairs[ev.exponents] = (ev, rng.choice([-2, -1, 1, 2]))
        return poly_from_terms(GRLEX, pairs.values())

    lam1, g1, lam2, g2 = wide(64), wide(64), wide(64), wide(64)
    pairs = ((lam1, g1), (negate(lam1), g1), (lam2, g2), (negate(lam2), g2))
    cert = Certificate(vs, GRLEX, zero(GRLEX), pairs)
    prod = mul_heap(lam1, g1)
    res = verify(cert)
    inputs = 0 + sum(len(l.terms) + len(g.terms) for l, g in pairs)
    bound = 2 * (0 + inputs + len(pairs) + 1)
    ok = (
        res.valid
        and term_count(prod) > 3500
        and res.stats.peak_terms < bound
        and res.stats.peak_terms < term_count(prod)
    )
    report(
        7,
        ok,
        f"(peak {res.stats.peak_terms} < bound {bound}, product {term_count(prod)} terms)",
    )


def test_criterion_8_sorted_input():
    big = parse_poly(BIG_COFACTOR_TEXT, BIG_COFACTOR_VARS, GRLEX)
    stream = [(t.degrees, t.coeff) for t in big.terms]
    with count_ops() as c:
        rebuilt = read_sorted(stream, GRLEX)
    ok = term_count(big) == 13 and rebuilt == big and c.comparisons == 12
    counts = {}
    for n in (256, 512):
        adversarial = [(ev_make((10 * (n - k),)), 1) for k in range(n)]
        with count_ops() as cn:
            read_naive(adversarial, GRLEX)
        counts[n] = cn.comparisons
    ratio = counts[512] / counts[256]
    ok &= 3.5 <= ratio <= 4.5
    report(8, ok, f"(13 terms, 12 comparisons; naive ratio {ratio:.3f})")


def test_criterion_9_representation_round_trips():
    rng = random.Random(7)
    vs = VariableSet(("z", "y", "x"))
    ok = True
    for i in range(1000):
        order = ORDERS[i % 3]
        p = random_poly(rng, order, rng.randrange(0, 10))
        for mode in RecursionMode:
            if to_distributed(to_recursive(p, vs, mode), vs, order) != p:
                ok = False
    p1 = parse_poly("z^2*y^2 + 2*z^2 + 3*y + 4", VariableSet(("z", "y")), GRLEX)
    r1 = to_recursive(p1, VariableSet(("z", "y")), RecursionMode.SPARSE_IN_VARIABLES)
    ok &= format_recursive(r1) == "(z,(2,(y,(2,1),(0,2))),(0,(y,(1,3),(0,4))))"
    p2 = parse_poly("z^2*y^2 + 2*z^2 + 3*x + 4", vs, GRLEX)
    ok &= (
        format_recursive(to_recursive(p2, vs, RecursionMode.SPARSE_IN_VARIABLES))
        == "(z,(2,(y,(2,1),(0,2))),(0,(x,(1,3),(0,4))))"
    )
    ok &= (
        format_recursive(to_recursive(p2, vs, RecursionMode.DENSE_IN_VARIABLES))
        == "(z,(2,(y,(2,(x,(0,1))),(0,(x,(0,2))))),(0,(y,(0,(x,(1,3),(0,4))))))"
    )
    report(9, ok, "(1000 round trips, printed nestings exact)")


def test_criterion_10_pseudo_division():
    rng = random.Random(8)
    ok = True
    for _ in range(1000):
        df, dg = rng.randrange(0, 9), rng.randrange(0, 6)
        monic = rng.random() < 0.3
        f = univariate(
            "x", ({e: rng.randrange(-6, 7) for e in range(df)} | {df: rng.choice([-3, -2, -1, 1, 2, 3])}).items()
        )
        gl = 1 if monic else rng.choice([-3, -2, -1, 1, 2, 3])
        g = univariate(
            "x", ({e: rng.randrange(-6, 7) for e in range(dg)} | {dg: gl}).items()
        )
        q, r, d = univ_pseudo_divide(f, g)

        def dist(u):
            return to_distributed(u, VariableSet(("x",)), GRLEX)

        def deg(u):
            if isinstance(u, Const):
                return -1 if u.value == 0 else 0
            return max(e for e, _ in u.pairs)

        lhs = mul_naive(dist(Const(gl**d)), dist(f))
        rhs = add(mul_naive(dist(q), dist(g)), dist(r))
        if lhs != rhs or not (deg(r) < deg(g) or isinstance(r, Const) and r.value == 0):
            ok = False
            break
        if monic:
            qf, rf = univ_divide(f, g)
            if dist(q) != dist(qf) or dist(r) != dist(rf):
                ok = False
                break
    report(10, ok, "(1000 pairs, monic cross-check)")
