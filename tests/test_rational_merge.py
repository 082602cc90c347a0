"""Rational merges run on integer numerators over one common denominator.

Every merge with a Fraction coefficient (``mul_heap``, the ``mul_heap_gb``
routes, ``verify``/``find_witness``, ``combine``) must give the results of
plain Fraction arithmetic (``mul_naive``, ``verify_naive``) and every
``OpCounters`` field of the same call on its inputs scaled to integers,
whether the set-up takes the common denominator or, past its length bound,
keeps the Fractions.  Inputs: one shared denominator, pairwise-coprime
ones, integer pairs mixed in, and 4401-digit numbers (past the int-string
digit limit).
"""

import os
import re
import subprocess
import sys
from dataclasses import astuple
from decimal import Decimal
from fractions import Fraction
from math import lcm, log10
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    gb_new,
    mul_heap,
    mul_heap_gb,
    mul_naive,
    negate,
    parse_certificate,
    poly_from_terms,
    verify,
    verify_naive,
    zero,
)
from polycert.errors import DomainError
from polycert.heapmul import merge_sources
from polycert.verifier import _checked_sources

from conftest import ORDERS

VARS = VariableSet(("x", "y"))
BIG_NUM = 10**4400 + 1  # 4401 digits, odd and prime to 3
BIG_DEN = 12 * (10**4399 + 7)  # 4401 digits; c / BIG_DEN reduces by gcd(c, 12)
PRIMES = (3, 5, 7, 11, 13)


def coprime_den(k: int, big: bool) -> int:
    """Pair k's own denominator: a power of its own prime, 4401+ digits if big."""
    p = PRIMES[k]
    return p ** (int(4400 / log10(p)) + 1) if big else p


def denominator(kind: str, k: int, big: bool) -> int:
    """The denominator of pair k's cofactor coefficients."""
    if kind == "coprime":
        return coprime_den(k, big)
    if kind == "mixed" and k % 2 == 0:
        return 1  # an integer pair
    return BIG_DEN if big else 12


terms = st.lists(
    st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3)),
              st.sampled_from([-3, -2, -1, 1, 2, 3])),
    max_size=4,
)
shapes = st.lists(st.tuples(terms, terms), min_size=1, max_size=len(PRIMES))
kinds = st.sampled_from(["shared", "coprime", "mixed"])


def build(order, shape, kind, big):
    """(lambda_k, g_k) pairs: the cofactor over pair k's denominator, the
    generator integral."""
    num = BIG_NUM if big else 1

    def poly(raw, den):
        coeffs = (c * num if den == 1 else Fraction(c * num, den) for _, c in raw)
        return poly_from_terms(order, list(zip(map(ev_make, (e for e, _ in raw)), coeffs)))

    return [(poly(lam, denominator(kind, k, big)), poly(g, 1))
            for k, (lam, g) in enumerate(shape)]


def scaled(p: Polynomial, m: int) -> Polynomial:
    """m * p, every coefficient an int (m clears p's denominators)."""
    terms = []
    for t in p.terms:
        c = t.coeff * m
        assert c.denominator == 1
        terms.append(Term(t.degrees, int(c)))
    return Polynomial(p.order, tuple(terms))


def den_lcm(*polys: Polynomial) -> int:
    return lcm(*(Fraction(t.coeff).denominator for p in polys for t in p.terms))


def counted(call):
    with count_ops() as c:
        out = call()
    return out, astuple(c)


@pytest.mark.parametrize("order", ORDERS)
@given(shape=shapes, kind=kinds, big=st.booleans())
@settings(max_examples=25, deadline=None)
def test_products_match_fraction_oracle_and_integer_counts(order, shape, kind, big):
    pairs = build(order, shape, kind, big)
    f, g = pairs[0]
    m = den_lcm(*(p for pair in pairs for p in pair))
    # mul_heap, both sides rational in turn
    for a, b in ((f, g), (g, f), (f, f)):
        got, counts = counted(lambda: mul_heap(a, b))
        assert got == mul_naive(a, b)
        assert counted(lambda: mul_heap(scaled(a, m), scaled(b, m)))[1] == counts
    # each geobucket route: parts over different denominators become pairs
    # whose a-side is scaled to the merge's denominator
    parts = [p for pair in pairs for p in pair]
    want = mul_naive(g, parts[0])
    for p in parts[1:]:
        want = add(want, mul_naive(g, p))
    for route in GbRoute:
        got_counts = []
        for factor, gb_parts in ((g, parts), (scaled(g, m), [scaled(p, m) for p in parts])):
            gb = gb_new(order)
            for p in gb_parts:
                gb.add(p)
            got, counts = counted(
                lambda: mul_heap_gb(factor, gb, route, hybrid_threshold=2))
            got_counts.append(counts)
            if factor is g:
                assert got == want
        assert got_counts[0] == got_counts[1]


@pytest.mark.parametrize("order", ORDERS)
@given(shape=shapes, kind=kinds, big=st.booleans(), corrupt=st.booleans())
@settings(max_examples=25, deadline=None)
def test_certificates_match_fraction_oracle_and_integer_counts(
    order, shape, kind, big, corrupt
):
    pairs = build(order, shape, kind, big)
    combination = zero(order)
    for lam, g in pairs:
        combination = add(combination, mul_naive(lam, g))
    total = combination
    if corrupt:  # one coefficient of f off by a third, or a new term
        t = total.terms[0] if total.terms else Term(ev_make((5, 5)), 0)
        total = add(total, Polynomial(order, (Term(t.degrees, Fraction(1, 3)),)))
    cert = Certificate(VARS, order, total, tuple(pairs))
    m = den_lcm(total, *(p for pair in pairs for p in pair))
    as_ints = Certificate(VARS, order, scaled(total, m * m),
                          tuple((scaled(lam, m), scaled(g, m)) for lam, g in pairs))

    naive = verify_naive(cert)
    residual = add(negate(total), combination)
    scan = [(t.degrees, t.coeff) for t in residual.terms]
    assert naive.valid == (not scan) == (not corrupt)
    for direction in ScanDirection:
        result, counts = counted(lambda: verify(cert, direction))
        assert result.valid == naive.valid
        first = 0 if direction is ScanDirection.MAX_FIRST else -1
        want = scan[first] if scan else None
        assert result.witness == want
        if direction is ScanDirection.MAX_FIRST:
            assert result.witness == naive.witness
        as_int_result, int_counts = counted(lambda: verify(as_ints, direction))
        assert int_counts == counts
        if want is not None:
            assert as_int_result.witness == (want[0], want[1] * m * m)

    got, counts = counted(lambda: combine(cert))
    assert got == combination
    assert counted(lambda: combine(as_ints))[1] == counts


def sources_of(kind: str, big: bool):
    """merge_sources' set-up of three cofactor pairs of `kind`, and the pairs."""
    order = ORDERS[1]
    shape = [([((1, 0), 1), ((0, 1), -2)], [((1, 1), 3), ((0, 0), 1)])] * 3
    pairs = [(g, lam) for lam, g in build(order, shape, kind, big)]
    return merge_sources(pairs, order), pairs


@pytest.mark.parametrize("big", [False, True])
def test_coprime_denominators_keep_fraction_coefficients(big):
    (sources, den), pairs = sources_of("coprime", big)
    assert den is None
    for (a, b, _, _), (g, lam) in zip(sources, pairs):
        # each side's coefficient column, as given: Fractions
        assert [(c, type(c)) for c in a] == [(t.coeff, type(t.coeff)) for t in g.terms]
        assert [(c, type(c)) for c in b] == [(t.coeff, type(t.coeff)) for t in lam.terms]
        assert all(type(c) is Fraction for c in b)
    # a certificate over them too, though its f's denominator is as long as
    # the common one would be
    f = zero(ORDERS[1])
    for g, lam in pairs:
        f = add(f, mul_naive(lam, g))
    cert = Certificate(VARS, ORDERS[1], f, tuple((lam, g) for g, lam in pairs))
    for direction in ScanDirection:
        assert _checked_sources(cert, direction is ScanDirection.MAX_FIRST, True)[1] is None


@pytest.mark.parametrize("a_dens, b_dens, den", [
    ([5], [5], 25),  # D = 25: 5 bits, twice the 3 of 5
    ([5, 35], [35], None),  # D = 35 * 35: 11 bits, though lcm(5, 35) is 6
])
def test_common_denominator_is_at_most_twice_the_shortest(a_dens, b_dens, den):
    order = ORDERS[1]

    def poly(dens):
        return poly_from_terms(order, [(ev_make((k, 0)), Fraction(1, d))
                                       for k, d in enumerate(dens)])

    assert merge_sources([(poly(a_dens), poly(b_dens))], order)[1] == den


@pytest.mark.parametrize("kind", ["shared", "mixed"])
@pytest.mark.parametrize("big", [False, True])
def test_shared_denominator_merges_integer_numerators(kind, big):
    (sources, den), pairs = sources_of(kind, big)
    assert den == den_lcm(*(lam for _, lam in pairs)) == (BIG_DEN if big else 12)
    for (a, b, _, _), (g, lam) in zip(sources, pairs):
        assert all(type(c) is int for c in a + b)  # coefficient columns of numerators
        # each product is den times its value
        for s, u in zip(a, g.terms):
            for t, v in zip(b, lam.terms):
                assert Fraction(s * t, den) == u.coeff * v.coeff


@pytest.mark.parametrize("bad", [0.5, Decimal("1.5")])
def test_coefficient_outside_the_domain_raises_domain_error(bad):
    order = ORDERS[0]
    x = poly_from_terms(order, [(ev_make((1, 0)), 1), (ev_make((0, 0)), 1)])
    odd = Polynomial(order, (Term(ev_make((0, 1)), bad),))
    for a, b in ((x, odd), (odd, x)):
        with pytest.raises(DomainError, match="neither an int nor a Fraction"):
            mul_heap(a, b)
    for cert in (Certificate(VARS, order, x, ((odd, x),)),
                 Certificate(VARS, order, odd, ((x, x),))):
        for direction in ScanDirection:
            with pytest.raises(DomainError, match=re.escape(repr(bad))):
                verify(cert, direction)


SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "make_certificate.py"


def make_certificate(*args: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SCRIPT.parent.parent / "src")}
    return subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True,
                          text=True, check=True, env=env).stdout


def test_make_certificate_writes_cofactors_over_a_shared_denominator():
    assert make_certificate("--den", "1") == make_certificate()
    cert = parse_certificate(make_certificate("--den", "7", "--pairs", "4"))
    assert {t.coeff.denominator for lam, _ in cert.pairs for t in lam.terms} == {7}
    assert all(type(t.coeff) is int for _, g in cert.pairs for t in g.terms)
    _, den = merge_sources([(g, lam) for lam, g in cert.pairs], cert.order)
    assert den == 7
    for direction in ScanDirection:
        assert verify(cert, direction).valid
    bad = parse_certificate(make_certificate("--den", "7", "--corrupt"))
    assert not verify(bad).valid
