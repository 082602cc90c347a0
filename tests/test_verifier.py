import pytest

from polycert import (
    Certificate,
    MonomialOrder,
    Polynomial,
    ScanDirection,
    Term,
    VariableSet,
    add,
    combine,
    ev_make,
    mul_naive,
    negate,
    parse_poly,
    poly_from_terms,
    verify,
    verify_naive,
    zero,
)
from polycert.errors import CertificateFormatError

from conftest import ORDERS, random_poly

GRLEX = MonomialOrder.GRLEX
XY = VariableSet(("x", "y"))


def make_cert(varset, order, pairs, f=None):
    if f is None:
        f = zero(order)
        for lam, g in pairs:
            f = add(f, mul_naive(lam, g))
    return Certificate(varset, order, f, tuple(pairs))


def naive_sum(cert):
    acc = zero(cert.order)
    for lam, g in cert.pairs:
        acc = add(acc, mul_naive(lam, g))
    return acc


def random_cert(rng, n_max=8, size=5):
    order = rng.choice(ORDERS)
    vs = VariableSet(("x", "y", "z"))
    pairs = [
        (
            random_poly(rng, order, rng.randrange(1, size + 1)),
            random_poly(rng, order, rng.randrange(1, size + 1)),
        )
        for _ in range(rng.randrange(1, n_max + 1))
    ]
    return make_cert(vs, order, pairs)


def perturb(rng, cert):
    """Flip one coefficient of f (or add a term if f = 0)."""
    f = cert.f
    if f.terms:
        k = rng.randrange(len(f.terms))
        terms = list(f.terms)
        terms[k] = Term(terms[k].degrees, terms[k].coeff + 1)
        bad_f = poly_from_terms(cert.order, [(t.degrees, t.coeff) for t in terms])
    else:
        bad_f = poly_from_terms(
            cert.order, [(ev_make(tuple(rng.randrange(4) for _ in range(3))), 1)]
        )
    return Certificate(cert.varset, cert.order, bad_f, cert.pairs)


def test_identity_certificate():
    g = parse_poly("x^2 + y - 1", XY, GRLEX)
    one = parse_poly("1", XY, GRLEX)
    cert = Certificate(XY, GRLEX, g, ((one, g),))
    assert verify(cert).valid
    assert verify(cert, ScanDirection.MIN_FIRST).valid
    assert verify_naive(cert).valid


def test_simple_invalid_with_witness():
    one = parse_poly("1", XY, GRLEX)
    f1 = parse_poly("x + 1", XY, GRLEX)
    cert = Certificate(XY, GRLEX, parse_poly("x", XY, GRLEX), ((one, f1),))
    for direction in ScanDirection:
        res = verify(cert, direction)
        assert not res.valid
        ev, coeff = res.witness
        assert ev.exponents == (0, 0) and coeff == 1
    assert verify_naive(cert).witness == res.witness


def test_malformed_certificates():
    g = parse_poly("x", XY, GRLEX)
    with pytest.raises(CertificateFormatError):
        verify(Certificate(XY, GRLEX, g, ()))
    mixed = Certificate(XY, GRLEX, g, ((g, zero(MonomialOrder.LEX)),))
    with pytest.raises(CertificateFormatError):
        verify(mixed)
    wrong_dim = Certificate(
        XY, GRLEX, g, ((g, poly_from_terms(GRLEX, [(ev_make((1, 2, 3)), 1)])),)
    )
    with pytest.raises(CertificateFormatError):
        verify(wrong_dim)


def test_random_certificates_valid_and_perturbed(rng):
    for _ in range(150):
        cert = random_cert(rng, n_max=4, size=4)
        assert verify(cert).valid
        assert verify(cert, ScanDirection.MIN_FIRST).valid
        assert verify_naive(cert).valid
        bad = perturb(rng, cert)
        residual = add(naive_sum(bad), negate(bad.f))
        assert residual.terms
        res_max = verify(bad)
        res_min = verify(bad, ScanDirection.MIN_FIRST)
        assert not res_max.valid and not res_min.valid
        assert not verify_naive(bad).valid
        assert res_max.witness == (residual.terms[0].degrees, residual.terms[0].coeff)
        assert res_min.witness == (residual.terms[-1].degrees, residual.terms[-1].coeff)


def test_extraction_count_contract(rng):
    for _ in range(30):
        cert = random_cert(rng, n_max=5, size=5)
        res = verify(cert)
        expect = len(cert.f.terms) + sum(
            len(lam.terms) * len(g.terms) for lam, g in cert.pairs
        )
        assert res.stats.counters.heap_extractions == expect


def test_verdicts_cross_checked_three_ways(rng):
    for _ in range(60):
        cert = random_cert(rng, n_max=3, size=3)
        if rng.random() < 0.5:
            cert = perturb(rng, cert)
        v1 = verify(cert).valid
        v2 = verify_naive(cert).valid
        v3 = combine(cert) == cert.f
        assert v1 == v2 == v3


def test_combine_examples(rng):
    g = parse_poly("x^2 - y", XY, GRLEX)
    one = parse_poly("1", XY, GRLEX)
    assert combine(Certificate(XY, GRLEX, zero(GRLEX), ((one, g),))) == g
    lam = parse_poly("x + 2", XY, GRLEX)
    pairs = ((lam, g), (negate(lam), g))
    assert combine(Certificate(XY, GRLEX, zero(GRLEX), pairs)).is_zero()
    for _ in range(20):
        cert = random_cert(rng, n_max=5, size=4)
        assert combine(cert) == naive_sum(cert)


def test_combine_output_sorted(rng):
    from polycert.poly import is_well_formed

    for _ in range(20):
        cert = random_cert(rng)
        assert is_well_formed(combine(cert))


def test_empty_f_empty_combination():
    g = parse_poly("x", XY, GRLEX)
    cert = Certificate(XY, GRLEX, zero(GRLEX), ((zero(GRLEX), g),))
    assert verify(cert).valid
    assert verify_naive(cert).valid


def test_no_materialization_bound(rng):
    # products far larger than inputs; cancellation keeps f small
    vs = VariableSet(("x", "y", "z"))
    lam1 = random_poly(rng, GRLEX, 24, max_exp=10**6)
    g1 = random_poly(rng, GRLEX, 24, max_exp=10**6)
    pairs = ((lam1, g1), (negate(lam1), g1))
    cert = Certificate(vs, GRLEX, zero(GRLEX), pairs)
    prod_size = len(mul_naive(lam1, g1).terms)
    assert prod_size > 500  # product much larger than inputs
    res = verify(cert)
    assert res.valid
    inputs = sum(len(l.terms) + len(g.terms) for l, g in pairs)
    assert res.stats.peak_terms <= 2 * (0 + inputs + len(pairs) + 1)
    assert res.stats.peak_terms < prod_size


def test_min_first_finds_trailing_error_sooner(rng):
    # unique discrepancy at the minimal monomial
    vs = VariableSet(("x", "y"))
    lam = random_poly(rng, GRLEX, 12, nvars=2, max_exp=8)
    g = random_poly(rng, GRLEX, 12, nvars=2, max_exp=8)
    f = mul_naive(lam, g)
    trailing = f.terms[-1]
    bad_f = Polynomial(GRLEX, f.terms[:-1] + (Term(trailing.degrees, trailing.coeff + 1),))
    cert = Certificate(vs, GRLEX, bad_f, ((lam, g),))
    res_min = verify(cert, ScanDirection.MIN_FIRST)
    res_max = verify(cert, ScanDirection.MAX_FIRST)
    assert not res_min.valid and not res_max.valid
    assert (
        res_min.stats.counters.heap_extractions
        < res_max.stats.counters.heap_extractions
    )


from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from polycert import ev_add  # noqa: E402
from polycert.monomial import ev_compare  # noqa: E402


def entries_up_to(cert, witness, direction):
    """Stream entries of the residual at or before `witness` in scan order."""
    sign = 1 if direction is ScanDirection.MAX_FIRST else -1

    def reached(ev):
        return sign * ev_compare(cert.order, ev, witness) >= 0

    n = sum(reached(t.degrees) for t in cert.f.terms)
    for lam, g in cert.pairs:
        products = (ev_add(a.degrees, b.degrees) for a in lam.terms for b in g.terms)
        n += sum(reached(ev) for ev in products)
    return n


@pytest.mark.parametrize("direction", list(ScanDirection))
def test_early_exit_extracts_entries_up_to_witness(rng, direction):
    for _ in range(60):
        bad = perturb(rng, random_cert(rng, n_max=5, size=5))
        res = verify(bad, direction)
        assert not res.valid
        expect = entries_up_to(bad, res.witness[0], direction)
        assert res.stats.counters.heap_extractions == expect


term_lists = st.lists(
    st.tuples(st.tuples(*[st.integers(0, 3)] * 3), st.integers(-3, 3)), max_size=4
)


@pytest.mark.parametrize("order", ORDERS)
@given(pairs=st.lists(st.tuples(term_lists, term_lists), min_size=1, max_size=4),
       noise=term_lists)
@settings(max_examples=100, deadline=None)
def test_verify_and_combine_match_naive(order, pairs, noise):
    def as_poly(terms):
        return poly_from_terms(order, [(ev_make(e), c) for e, c in terms])

    vs = VariableSet(("x", "y", "z"))
    pairs = tuple((as_poly(lam), as_poly(g)) for lam, g in pairs)
    total = naive_sum(make_cert(vs, order, pairs))
    cert = make_cert(vs, order, pairs, f=add(total, as_poly(noise)))
    assert combine(cert) == total
    residual = add(total, negate(cert.f))
    naive = verify_naive(cert)
    assert naive.valid == (not residual.terms)
    ends = {ScanDirection.MAX_FIRST: 0, ScanDirection.MIN_FIRST: -1}
    for direction, end in ends.items():
        res = verify(cert, direction)
        assert res.valid == naive.valid
        if residual.terms:
            lead = residual.terms[end]
            assert res.witness == (lead.degrees, lead.coeff)


import random  # noqa: E402
from dataclasses import astuple  # noqa: E402

from polycert import count_ops, mul_heap  # noqa: E402

# Every OpCounters field (comparisons, coeff_adds, coeff_muls,
# heap_extractions, heap_peak) on fixed seeded inputs.  Sorting and heap
# merging must count one comparison per monomial `<`, exactly as the
# three-way ev_compare does, so these figures must not move when the way a
# kernel reaches the monomial order changes.
PINNED_COUNTERS = {
    MonomialOrder.LEX: {
        "poly_from_terms": (332, 0, 0, 0, 0),
        "mul_heap": (2166, 384, 812, 812, 28),
        "verify max": (1094, 233, 437, 437, 31),
        "verify max invalid": (437, 69, 133, 133, 31),
        "verify min": (1132, 233, 437, 437, 31),
        "verify min invalid": (873, 165, 306, 306, 31),
    },
    MonomialOrder.GRLEX: {
        "poly_from_terms": (333, 0, 0, 0, 0),
        "mul_heap": (2213, 384, 812, 812, 28),
        "verify max": (1100, 233, 437, 437, 31),
        "verify max invalid": (414, 69, 133, 133, 31),
        "verify min": (1100, 233, 437, 437, 31),
        "verify min invalid": (841, 165, 306, 306, 31),
    },
    MonomialOrder.GREVLEX: {
        "poly_from_terms": (333, 0, 0, 0, 0),
        "mul_heap": (2136, 384, 812, 812, 28),
        "verify max": (1116, 233, 437, 437, 31),
        "verify max invalid": (438, 69, 133, 133, 31),
        "verify min": (1087, 233, 437, 437, 31),
        "verify min invalid": (836, 165, 306, 306, 31),
    },
}


@pytest.mark.parametrize("order", ORDERS)
def test_counters_pinned(order):
    rng = random.Random(11)
    with count_ops() as sort:  # random_poly normalizes through poly_from_terms
        f = random_poly(rng, order, 30, max_exp=4)
        g = random_poly(rng, order, 30, max_exp=4)
        pairs = [(random_poly(rng, order, 8), random_poly(rng, order, 6))
                 for _ in range(5)]
    with count_ops() as mul:
        mul_heap(f, g)
    cert = make_cert(VariableSet(("x", "y", "z")), order, pairs)
    bad = perturb(rng, cert)
    got = {"poly_from_terms": astuple(sort), "mul_heap": astuple(mul)}
    for d in ScanDirection:
        got[f"verify {d.value}"] = astuple(verify(cert, d).stats.counters)
        got[f"verify {d.value} invalid"] = astuple(verify(bad, d).stats.counters)
    assert got == PINNED_COUNTERS[order]


from functools import partial  # noqa: E402


def test_unsorted_terms_rejected_at_the_boundary():
    x = VariableSet(("x",))
    lam, g = parse_poly("x + 1", x, GRLEX), parse_poly("x - 1", x, GRLEX)
    f = parse_poly("x^2 - 1", x, GRLEX)  # = lam * g
    unsorted = [
        Certificate(x, GRLEX, Polynomial(GRLEX, f.terms[::-1]), ((lam, g),)),
        Certificate(x, GRLEX, f, ((Polynomial(GRLEX, lam.terms[::-1]), g),)),
        Certificate(x, GRLEX, f, ((lam, Polynomial(GRLEX, g.terms[:1] * 2)),)),
        # lambda_i = 0 streams nothing, so f_i is checked beside the merge
        Certificate(x, GRLEX, f, ((lam, g), (zero(GRLEX), Polynomial(GRLEX, g.terms[::-1])))),
        Certificate(x, GRLEX, f, ((lam, g), (zero(GRLEX), Polynomial(GRLEX, g.terms[:1] * 2)))),
        Certificate(XY, GRLEX, parse_poly("x^2 - 1", XY, GRLEX), (
            (parse_poly("x + 1", XY, GRLEX), parse_poly("x - 1", XY, GRLEX)),
            (zero(GRLEX), Polynomial(GRLEX, parse_poly("x - y", XY, GRLEX).terms[::-1])),
        )),
    ]
    checks = [verify, partial(verify, direction=ScanDirection.MIN_FIRST),
              combine, verify_naive]
    for cert in unsorted:
        for check in checks:
            with pytest.raises(CertificateFormatError, match="strictly decreasing"):
                check(cert)
    # a zero coefficient in its sorted place changes no sum and is accepted
    padded = f.terms[:1] + (Term(ev_make((1,)), 0),) + f.terms[1:]
    cert = Certificate(x, GRLEX, Polynomial(GRLEX, padded), ((lam, g),))
    assert verify(cert).valid and verify(cert, ScanDirection.MIN_FIRST).valid
    assert combine(cert) == f


def test_zero_coefficient_in_f_checked_alike_by_all_three():
    x = VariableSet(("x",))
    g = parse_poly("x - 1", x, GRLEX)
    f = parse_poly("x^2 - 1", x, GRLEX)
    padded = f.terms[:1] + (Term(ev_make((1,)), 0),) + f.terms[1:]  # x^2 + 0*x - 1
    f0 = Polynomial(GRLEX, padded)
    checks = [verify, partial(verify, direction=ScanDirection.MIN_FIRST), verify_naive]
    valid = Certificate(x, GRLEX, f0, ((parse_poly("x + 1", x, GRLEX), g),))
    for check in checks:
        res = check(valid)
        assert res.valid and res.witness is None
    # with lambda = x + 2 the residual is x - 1: the zero term is the witness's
    invalid = Certificate(x, GRLEX, f0, ((parse_poly("x + 2", x, GRLEX), g),))
    witnesses = [check(invalid).witness for check in checks]
    assert [(ev.exponents, c) for ev, c in witnesses] == [((1,), 1), ((0,), -1), ((1,), 1)]


def test_dimension_checked_where_nothing_is_streamed():
    x = VariableSet(("x",))
    lam, g = parse_poly("x + 1", x, GRLEX), parse_poly("x - 1", x, GRLEX)
    f = parse_poly("x^2 - 1", x, GRLEX)
    wide = parse_poly("x - y", XY, GRLEX)  # exponent vectors of length 2
    bad = [
        Certificate(x, GRLEX, f, ((lam, g), (zero(GRLEX), wide))),  # beside lambda = 0
        Certificate(x, GRLEX, zero(GRLEX), ((wide, wide),)),  # f = 0: no -1 streamed
        Certificate(x, GRLEX, zero(GRLEX), ((zero(GRLEX), wide),)),
    ]
    checks = [verify, partial(verify, direction=ScanDirection.MIN_FIRST),
              combine, verify_naive]
    for cert in bad:
        for check in checks:
            with pytest.raises(CertificateFormatError, match="mixed dimensions"):
                check(cert)
