"""Rational sections are parsed as integer numerators and read as Fractions.

The parser keeps each term's signed numerator and its denominator, and a
section in order without a zero term is held as those columns, its terms
built on first read with one Fraction each.  Parsed from canonical,
hand-spaced and unreduced text (``2/4``, ``-3/9``, ``6/3``, ``0/5``, a
5000-digit numerator over a long denominator), in the three orders, sorted
or not, a polynomial's terms have the values and coefficient types of
``poly_from_terms`` over Fractions; ``verify``, ``find_witness``,
``combine`` and ``mul_heap`` give the results and counters of a copy built
from those terms, in both scan directions; ``print_poly`` round-trips; and
merging a valid certificate over one denominator builds no section's terms.
"""

from dataclasses import astuple
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycert import (
    Certificate,
    ScanDirection,
    VariableSet,
    add,
    combine,
    count_ops,
    ev_make,
    find_witness,
    mul_heap,
    mul_naive,
    parse_certificate,
    parse_poly,
    poly_from_terms,
    print_poly,
    verify,
    zero,
)
from polycert.monomial import int_str

from conftest import ORDERS

VARS = VariableSet(("x", "y"))
LONG = 6 * 10**4999 + 12  # 5000 digits, a multiple of 12
LONG_DEN = 4 * (2**1279 - 1)  # 386 digits: 4 times a prime
PRIME = 2**1279 - 1


def factor_text(e: int, v: str, spaced: bool) -> str:
    star = " * " if spaced else "*"
    return "" if e == 0 else f"{star}{v}" if e == 1 else f"{star}{v}{' ^ ' if spaced else '^'}{e}"


def render(terms, spaced: bool) -> str:
    """`terms`, ((i, j), numerator, denominator or None), as text: each term
    in canonical shape, or with spaces around every token."""
    out = []
    for k, ((i, j), n, d) in enumerate(terms):
        sign = ("-" if n < 0 else "") if k == 0 else (" - " if n < 0 else " + ")
        head = int_str(abs(n)) + ("" if d is None else f"{' / ' if spaced else '/'}{int_str(d)}")
        out.append(sign + head + factor_text(i, "x", spaced) + factor_text(j, "y", spaced))
    return "".join(out)


def value(n: int, d: int | None):
    return n if d is None else Fraction(n, d)


def reference(order, terms):
    """The polynomial of `terms` as ``poly_from_terms`` builds it from values."""
    return poly_from_terms(order, [(ev_make(e), value(n, d)) for e, n, d in terms])


def descending(order, terms):
    """`terms`, one per monomial, in the order's descending order."""
    by_monomial = {e: (e, n, d) for e, n, d in terms}
    sorted_evs = poly_from_terms(order, [(ev_make(e), 1) for e in by_monomial]).terms
    return [by_monomial[t.degrees.exponents] for t in sorted_evs]


def coeff_types(p):
    return [type(t.coeff) for t in p.terms]


numerators = st.one_of(st.integers(-9, 9), st.sampled_from([2, -3, 6, 0, LONG, -LONG]))
denominators = st.sampled_from([None, None, 1, 3, 4, 9, 5, LONG_DEN])
section = st.lists(
    st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3)), numerators, denominators),
    min_size=1, max_size=6,
)


@st.composite
def rational_text(draw):
    order = draw(st.sampled_from(ORDERS))
    terms = draw(section)
    if draw(st.booleans()):
        terms = descending(order, terms)
    return order, terms, draw(st.booleans())


@pytest.mark.parametrize("text, want", [
    ("2/4*x", [Fraction(1, 2)]), ("-3/9*x", [Fraction(-1, 3)]), ("6/3*x", [Fraction(2)]),
    ("0/5*x + 1", [1]), ("5/1*x + 5", [Fraction(5), 5]), ("x - 7/07", [1, Fraction(-1)]),
    ("2 / 4 * x + 6/ 3", [Fraction(1, 2), Fraction(2)]),
])
def test_unreduced_text_reads_as_reduced_fractions(text, want):
    for order in ORDERS:
        p = parse_poly(text, VARS, order)
        assert [t.coeff for t in p.terms] == want
        assert coeff_types(p) == list(map(type, want))


@given(drawn=rational_text())
@settings(max_examples=150, deadline=None)
def test_parsed_terms_are_poly_from_terms_over_fractions(drawn):
    order, terms, spaced = drawn
    p, ref = parse_poly(render(terms, spaced), VARS, order), reference(order, terms)
    assert p.terms == ref.terms
    assert coeff_types(p) == coeff_types(ref)
    text = print_poly(p, VARS)
    assert text == print_poly(ref, VARS)
    assert parse_poly(text, VARS, order) == p


@st.composite
def certificates(draw):
    """(order, text of a two-pair certificate, the same certificate built from terms)."""
    order, spaced = draw(st.sampled_from(ORDERS)), draw(st.booleans())
    sections = [draw(section) for _ in range(4)]
    if draw(st.booleans()):
        sections = [descending(order, terms) for terms in sections]
    lam1, g1, lam2, g2 = (reference(order, terms) for terms in sections)
    f = add(mul_naive(lam1, g1), mul_naive(lam2, g2))
    if draw(st.booleans()):  # an invalid certificate
        f = add(f, poly_from_terms(order, [(ev_make((0, 1)), Fraction(1, 3))]))
    f_text = print_poly(f, VARS)
    labels = ["lambda[1]", "g[1]", "lambda[2]", "g[2]"]
    text = f"vars: x y\norder: {order.value}\nN: 2\nf: {f_text}\n" + "".join(
        f"{label}: {render(terms, spaced)}\n" for label, terms in zip(labels, sections))
    return order, text, Certificate(VARS, order, f, ((lam1, g1), (lam2, g2)))


def counted(call, *args):
    with count_ops() as c:
        result = call(*args)
    return result, astuple(c)


@given(drawn=certificates())
@settings(max_examples=60, deadline=None)
def test_kernels_on_parsed_rationals_match_a_term_built_copy(drawn):
    order, text, built = drawn
    for direction in ScanDirection:
        parsed = parse_certificate(text)
        assert counted(find_witness, parsed, direction) == counted(find_witness, built, direction)
        assert verify(parse_certificate(text), direction) == verify(built, direction)
    assert counted(combine, parse_certificate(text)) == counted(combine, built)
    parsed = parse_certificate(text)
    for (lam, g), (blam, bg) in zip(parsed.pairs, built.pairs):
        assert counted(mul_heap, lam, g) == counted(mul_heap, blam, bg)
    assert parsed == built


def shared_den_certificate(order, spaced: bool, den: int) -> tuple[str, Certificate]:
    """A valid two-pair certificate: cofactors over `den` (one term written
    unreduced, as 2n/2den; one with a 5000-digit numerator), integer
    generators, and f printed as it reduces."""
    lam_terms = [
        [((2, 1), 2 * LONG, 2 * den), ((1, 0), -3, den), ((0, 0), 5, None)],
        [((1, 2), 7, den), ((0, 1), -1, den)],
    ]
    g_terms = [[((1, 1), 4, None), ((0, 0), -9, None)], [((2, 0), 1, None), ((0, 1), 6, None)]]
    lam_terms = [descending(order, t) for t in lam_terms]
    g_terms = [descending(order, t) for t in g_terms]
    lams = [reference(order, t) for t in lam_terms]
    gs = [reference(order, t) for t in g_terms]
    f = add(mul_naive(lams[0], gs[0]), mul_naive(lams[1], gs[1]))
    lines = [f"vars: x y\norder: {order.value}\nN: 2\nf: {print_poly(f, VARS)}"]
    for i, (lt, gt) in enumerate(zip(lam_terms, g_terms), 1):
        lines += [f"lambda[{i}]: {render(lt, spaced)}", f"g[{i}]: {render(gt, spaced)}"]
    return "\n".join(lines) + "\n", Certificate(VARS, order, f, tuple(zip(lams, gs)))


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("spaced", [False, True])
@pytest.mark.parametrize("den", [7, PRIME])
@pytest.mark.parametrize("direction", list(ScanDirection))
def test_merging_a_parsed_rational_certificate_builds_no_section(order, spaced, den, direction):
    text, built = shared_den_certificate(order, spaced, den)
    for run in (find_witness, verify):
        cert = parse_certificate(text)
        rational = [cert.f, *(lam for lam, _ in cert.pairs)]
        assert all("terms" not in p.__dict__ for p in rational)  # held as columns
        result = run(cert, direction)
        assert result is None if run is find_witness else result.valid
        assert all("terms" not in p.__dict__ for p in rational)
    assert verify(cert, direction) == verify(built, direction)
    assert cert == built


def test_a_zero_numerator_or_disorder_takes_the_sorting_path():
    order = ORDERS[1]
    for text in ("x + 0/5*y", "1/2 + x", "1/2*x + 1/3*x"):
        p = parse_poly(text, VARS, order)
        assert "terms" in p.__dict__
        assert p == poly_from_terms(order, [(t.degrees, t.coeff) for t in p.terms])
    assert parse_poly("0/5*x", VARS, order) == zero(order)
