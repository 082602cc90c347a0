from fractions import Fraction

import pytest

from polycert import (
    Certificate,
    MonomialOrder,
    Polynomial,
    Term,
    VariableSet,
    count_ops,
    ev_make,
    format_certificate,
    parse_certificate,
    parse_poly,
    poly_from_terms,
    print_poly,
    read_naive,
    read_sorted,
    term_count,
    zero,
)
from polycert.errors import CertificateFormatError, DimensionError, FormatError, ParseError

from conftest import BIG_COFACTOR_TEXT, BIG_COFACTOR_VARS, ORDERS, random_poly

GRLEX = MonomialOrder.GRLEX
PQXYZ = VariableSet(("p", "q", "x", "y", "z"))


def test_parse_examples():
    f3 = parse_poly("-y^2 + 2*p*x*z + 3*q*z^2", PQXYZ, GRLEX)
    assert term_count(f3) == 3
    assert parse_poly("0", PQXYZ, GRLEX).is_zero()
    big = parse_poly(BIG_COFACTOR_TEXT, BIG_COFACTOR_VARS, GRLEX)
    assert term_count(big) == 13


def test_parse_rationals_and_signs():
    vs = VariableSet(("x",))
    p = parse_poly("-1/2*x + 3", vs, GRLEX)
    assert {t.degrees.exponents: t.coeff for t in p.terms} == {
        (1,): Fraction(-1, 2),
        (0,): 3,
    }
    # repeated variables multiply out
    assert parse_poly("x*x*x", vs, GRLEX) == parse_poly("x^3", vs, GRLEX)


def test_parse_errors():
    vs = VariableSet(("x",))
    with pytest.raises(ParseError):
        parse_poly("x +", vs, GRLEX)
    with pytest.raises(ParseError):
        parse_poly("2x", vs, GRLEX)  # implicit multiplication rejected
    with pytest.raises(ParseError) as e:
        parse_poly("x + w", vs, GRLEX)
    assert "w" in str(e.value)
    with pytest.raises(ParseError):
        parse_poly("1/0", vs, GRLEX)
    with pytest.raises(ParseError):
        parse_poly("x $ 1", vs, GRLEX)
    with pytest.raises(ParseError):
        parse_poly("", vs, GRLEX)


def test_print_parse_round_trip(rng):
    vs = VariableSet(("x", "y", "z"))
    for _ in range(100):
        order = rng.choice(ORDERS)
        p = random_poly(rng, order, rng.randrange(0, 10), rational=rng.random() < 0.5)
        assert parse_poly(print_poly(p, vs), vs, order) == p


@pytest.mark.parametrize("order", ORDERS)
def test_zero_terms_print_and_reparse_without_them(rng, order):
    # the parser drops a printed 0*... term, and only those
    vs = VariableSet(("x", "y", "z"))
    for _ in range(40):
        p = random_poly(rng, order, rng.randrange(1, 8), rational=rng.random() < 0.5)
        zeroed = [k for k in range(len(p.terms)) if rng.random() < 0.4]
        terms = tuple(Term(t.degrees, 0) if k in zeroed else t for k, t in enumerate(p.terms))
        with_zeros = Polynomial(order, terms)
        without = Polynomial(order, tuple(t for t in terms if t.coeff != 0))
        assert parse_poly(print_poly(with_zeros, vs), vs, order) == without


def test_print_canonical_forms():
    vs = VariableSet(("x", "y"))
    assert print_poly(zero(GRLEX), vs) == "0"
    p = parse_poly("-x^2 + 1/2*y - 1", vs, GRLEX)
    assert print_poly(p, vs) == "-x^2 + 1/2*y - 1"


def stream_of(p):
    return [(t.degrees, t.coeff) for t in p.terms]


def test_read_sorted_counts():
    big = parse_poly(BIG_COFACTOR_TEXT, BIG_COFACTOR_VARS, GRLEX)
    # the printed cofactor is already descending under grlex with x first
    assert [t.degrees for t in big.terms] == [s[0] for s in stream_of(big)]
    with count_ops() as c:
        rebuilt = read_sorted(stream_of(big), GRLEX)
    assert rebuilt == big
    assert c.comparisons == 12
    with count_ops() as c1:
        read_sorted([(ev_make((1,)), 5)], GRLEX)
    assert c1.comparisons == 0


def test_read_sorted_fallback(rng):
    import math

    for n in (8, 64, 256):
        p = poly_from_terms(
            GRLEX, [(ev_make((10 * k,)), k + 1) for k in range(n)]
        )
        reverse = list(reversed(stream_of(p)))
        with count_ops() as c:
            rebuilt = read_sorted(reverse, GRLEX)
        assert rebuilt == p
        assert c.comparisons <= 8 * n * max(math.log2(n), 1)


def test_read_zero_coefficient_rejected():
    with pytest.raises(FormatError):
        read_sorted([(ev_make((1,)), 0)], GRLEX)
    with pytest.raises(FormatError):
        read_naive([(ev_make((1,)), 0)], GRLEX)


def test_read_naive_quadratic_on_sorted_input():
    for n in (16, 64):
        stream = [(ev_make((10 * (n - k),)), 1) for k in range(n)]
        with count_ops() as c:
            p = read_naive(stream, GRLEX)
        assert term_count(p) == n
        assert c.comparisons == n * (n - 1) // 2


def test_reads_agree_on_random_streams(rng):
    for _ in range(40):
        n = rng.randrange(0, 30)
        stream = [
            (ev_make((rng.randrange(100), rng.randrange(100))), rng.choice([1, -1, 2]))
            for _ in range(n)
        ]
        # drop duplicate monomials so no zero terms can appear mid-way
        seen, uniq = set(), []
        for ev, c in stream:
            if ev.exponents not in seen:
                seen.add(ev.exponents)
                uniq.append((ev, c))
        expect = poly_from_terms(GRLEX, uniq)
        assert read_sorted(list(uniq), GRLEX) == expect
        assert read_naive(list(uniq), GRLEX) == expect


# -- certificate files -------------------------------------------------------

MINIMAL = """\
vars: x y
order: grlex
N: 1
f: x^2 - 1
lambda[1]: 1
g[1]: x^2 - 1
"""


def test_minimal_certificate():
    cert = parse_certificate(MINIMAL)
    assert cert.order is GRLEX
    assert cert.varset.names == ("x", "y")
    assert len(cert.pairs) == 1
    assert cert.f == cert.pairs[0][1]


def test_certificate_round_trip(rng):
    vs = VariableSet(("x", "y"))
    for _ in range(20):
        pairs = tuple(
            (
                random_poly(rng, GRLEX, rng.randrange(1, 4), nvars=2),
                random_poly(rng, GRLEX, rng.randrange(1, 4), nvars=2),
            )
            for _ in range(rng.randrange(1, 4))
        )
        f = random_poly(rng, GRLEX, 4, nvars=2)
        cert = Certificate(vs, GRLEX, f, pairs)
        assert parse_certificate(format_certificate(cert)) == cert


def test_printing_over_another_variable_set_is_rejected():
    xy = VariableSet(("x", "y"))
    longer = parse_poly("x + z", VariableSet(("x", "y", "z")), GRLEX)
    shorter = parse_poly("x + 1", VariableSet(("x",)), GRLEX)
    for p, n in [(longer, 3), (shorter, 1)]:
        with pytest.raises(DimensionError, match=f"expected 2 exponents, got {n}"):
            print_poly(p, xy)
        with pytest.raises(DimensionError, match=f"expected 2 exponents, got {n}"):
            format_certificate(Certificate(xy, GRLEX, p, ((p, p),)))
    assert print_poly(zero(GRLEX), xy) == "0"


def test_certificate_continuation_lines_and_comments():
    text = MINIMAL.replace("f: x^2 - 1", "f: x^2\n - 1") + "# trailing comment\n"
    assert parse_certificate(text) == parse_certificate(MINIMAL)


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda t: t.replace("lambda[1]: 1\n", ""), "lambda[1]"),
        (lambda t: t.replace("N: 1", "N: 2"), "lambda[2]"),
        (lambda t: t.replace("order: grlex", "order: degrevlex"), "degrevlex"),
        (lambda t: t.replace("vars: x y\n", ""), "vars"),
        (lambda t: t.replace("N: 1", "N: 0"), "N"),
        (lambda t: t + "g[3]: x\n", "g[3]"),
        (lambda t: t.replace("N: 1", "junk line\nN: 1"), "junk"),
    ],
)
def test_certificate_format_errors(mutate, fragment):
    with pytest.raises(CertificateFormatError) as e:
        parse_certificate(mutate(MINIMAL))
    assert fragment in str(e.value)


# -- parse errors and the grammar, pinned ------------------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@pytest.mark.parametrize(
    "text, position, message",
    [
        ("x +", 3, "expected a coefficient or variable"),
        ("2x", 1, "expected '+' or '-', got 'x'"),
        ("x + w", 4, "unknown variable 'w'"),
        ("1/0", 2, "zero denominator"),
        ("x $ 1", 2, "unexpected character '$'"),
        ("", 0, "empty polynomial text"),
        ("x^", 2, "expected a number"),
        ("x*", 2, "expected a variable"),
        ("3*4", 2, "expected a variable"),
        ("(x)", 0, "expected a coefficient or variable"),
        ("- -x", 2, "expected a coefficient or variable"),
        ("x^2^3", 3, "expected '+' or '-', got '^'"),
        # whitespace: positions point at the token, or at the end of the text
        ("x +  ", 5, "expected a coefficient or variable"),
        ("1 / 0", 4, "zero denominator"),
        ("x + 12 7", 7, "expected '+' or '-', got 7"),
        ("   ", 0, "empty polynomial text"),
    ],
)
def test_parse_error_positions_and_messages(text, position, message):
    vs = VariableSet(("x", "y"))
    with pytest.raises(ParseError) as e:
        parse_poly(text, vs, GRLEX)
    assert e.value.position == position
    assert str(e.value) == f"{message} (at position {position})"


@pytest.mark.parametrize(
    "text, position",
    [("\u0661*x", 0), ("x^\u0662", 2), ("x + \u0663/\u0664", 4), ("\u0662\u0663", 0)],
)
def test_non_ascii_digits_rejected(text, position):
    # coefficients and exponents are ASCII digits, as print_poly writes them
    with pytest.raises(ParseError) as e:
        parse_poly(text, VariableSet(("x", "y")), GRLEX)
    assert e.value.position == position
    assert str(e.value).startswith(f"unexpected character {text[position]!r}")


_SPACE = st.sampled_from(["", "", " ", "  ", "\t", "\n "])


@st.composite
def _grammar_texts(draw):
    """Polynomial text drawn from the grammar, with the (ev, coeff) pairs it
    denotes in text order."""
    names = ("x", "y", "zz")
    chunks, pairs = [], []
    for k in range(draw(st.integers(1, 6))):
        sign = draw(st.sampled_from(["", "+", "-"] if k == 0 else ["+", "-"]))
        toks = [sign] if sign else []
        coeff = 1
        if draw(st.booleans()):
            coeff = draw(st.integers(0, 10**30))
            toks.append(str(coeff).zfill(draw(st.integers(1, 3))))
            if draw(st.booleans()):
                den = draw(st.integers(1, 10**6))
                toks += ["/", str(den)]
                coeff = Fraction(coeff, den)
            nfactors = draw(st.integers(0, 4))
        else:
            nfactors = draw(st.integers(1, 4))
        exps = [0, 0, 0]
        for j in range(nfactors):
            if j or len(toks) > (1 if sign else 0):
                toks.append("*")
            i = draw(st.integers(0, 2))
            toks.append(names[i])
            if draw(st.booleans()):
                e = draw(st.integers(0, 12))
                toks += ["^", str(e)]
                exps[i] += e
            else:
                exps[i] += 1
        for tok in toks:
            chunks += [draw(_SPACE), tok]
        pairs.append((ev_make(tuple(exps)), -coeff if sign == "-" else coeff))
    chunks.append(draw(_SPACE))
    return "".join(chunks), pairs


@given(drawn=_grammar_texts(), order=st.sampled_from(ORDERS))
@settings(max_examples=300, deadline=None)
def test_parse_matches_poly_from_terms(drawn, order):
    text, pairs = drawn
    vs = VariableSet(("x", "y", "zz"))
    assert parse_poly(text, vs, order) == poly_from_terms(order, pairs)


# -- coefficients beyond the int-string digit limit ---------------------------

import random  # noqa: E402
import sys  # noqa: E402

from polycert import textio  # noqa: E402

BIG = 10**4999 + 123456789  # 5000 digits, built without str()
BIG_TEXT = "1" + "0" * 4990 + "123456789"
BIG_DEN = 10**4999 + 7  # coprime to BIG
BIG_DEN_TEXT = "1" + "0" * 4998 + "7"


def test_5000_digit_integer_coefficient_round_trips():
    limit = sys.get_int_max_str_digits()
    vs = VariableSet(("x", "y"))
    text = f"{BIG_TEXT}*x^2 - {BIG_TEXT}*y + 1"
    p = parse_poly(text, vs, GRLEX)
    assert [t.coeff for t in p.terms] == [BIG, -BIG, 1]
    assert print_poly(p, vs) == text
    assert sys.get_int_max_str_digits() == limit


def test_5000_digit_fraction_coefficient_round_trips():
    limit = sys.get_int_max_str_digits()
    vs = VariableSet(("x",))
    text = f"-{BIG_TEXT}/{BIG_DEN_TEXT}*x + {BIG_DEN_TEXT}/{BIG_TEXT}"
    p = parse_poly(text, vs, GRLEX)
    assert [t.coeff for t in p.terms] == [Fraction(-BIG, BIG_DEN), Fraction(BIG_DEN, BIG)]
    assert print_poly(p, vs) == text
    assert sys.get_int_max_str_digits() == limit


@pytest.fixture
def set_digit_limit():
    saved = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("limit", [640, 1000])
def test_pieces_agree_with_plain_conversion(set_digit_limit, limit):
    # Texts are made under the default limit, then read and printed under a
    # lower one, so that plain int()/str() checks the piecewise conversions.
    vs = VariableSet(("x",))
    rng = random.Random(limit)
    cases = []
    for ndigits in (limit - 1, limit, limit + 1, 2 * limit, 3 * limit + 7, 4300):
        for n in (10 ** (ndigits - 1), 10**ndigits - 1, 10 ** (ndigits - 1) + 7,
                  rng.randrange(10 ** (ndigits - 1), 10**ndigits)):
            cases.append((n, f"{n}*x - 1/{n}", "0" * 7 + str(n)))
    set_digit_limit(limit)
    for n, text, padded in cases:
        p = parse_poly(text, vs, GRLEX)
        assert [t.coeff for t in p.terms] == [n, Fraction(-1, n)]
        assert print_poly(p, vs) == text
        assert parse_poly(padded, vs, GRLEX).terms[0].coeff == n
    assert sys.get_int_max_str_digits() == limit


def test_unlimited_digits(set_digit_limit):
    set_digit_limit(0)
    vs = VariableSet(("x",))
    text = BIG_TEXT + "*x - 1/" + BIG_TEXT
    assert print_poly(parse_poly(text, vs, GRLEX), vs) == text
    assert sys.get_int_max_str_digits() == 0


def test_5000_digit_exponent_round_trips():
    limit = sys.get_int_max_str_digits()
    vs = VariableSet(("x", "y"))
    digits = "1" + "0" * 4990 + "123456789"  # 10**4999 + 123456789
    text = f"x^{digits}*y - 3*x^{digits} + y^2"
    p = parse_poly(text, vs, GRLEX)
    e = 10**4999 + 123456789
    assert [t.degrees.exponents for t in p.terms] == [(e, 1), (e, 0), (0, 2)]
    assert print_poly(p, vs) == text
    assert parse_poly(print_poly(p, vs), vs, GRLEX) == p
    assert sys.get_int_max_str_digits() == limit


# -- stray certificate sections ----------------------------------------------


@pytest.mark.parametrize("label", ["lambda[01]", "g[01]"])
def test_certificate_section_never_read_is_rejected(label):
    text = (
        "vars: x\norder: grlex\nN: 1\nf: x^2 - 1\nlambda[1]: x + 1\ng[1]: x - 1\n"
        f"{label}: this is $$ not parsed\n"
    )
    with pytest.raises(CertificateFormatError) as e:
        parse_certificate(text)
    assert label in str(e.value)


@pytest.mark.parametrize("n", ["+1", "\u0661", "1_0", "1.0", "0x1"])
def test_certificate_count_is_ascii_digits(n):
    # int() reads "+1" and the Arabic-Indic one as 1, and "1_0" as 10
    text = f"vars: x\norder: grlex\nN: {n}\nf: x^2 - 1\nlambda[1]: x + 1\ng[1]: x - 1\n"
    with pytest.raises(CertificateFormatError, match=r"^bad N: "):
        parse_certificate(text)
    assert len(parse_certificate(text.replace(f"N: {n}", "N: 01")).pairs) == 1


# -- the canonical loop and the general scan ----------------------------------

import re  # noqa: E402

# Names that prefix each other, so a pattern for one must not take another.
_CANONICAL_VARSETS = [
    VariableSet(("x",)),
    VariableSet(("x", "x1", "xx", "x_1")),
    VariableSet(("x_1", "xx", "x1", "x")),
    VariableSet(("p", "q", "x", "y", "z")),
]
_EXPONENT = st.one_of(
    st.integers(0, 3), st.integers(0, 10**40), st.just(10**4400 + 3)  # 4401 digits
)
_COEFF = st.one_of(
    st.integers(-(10**6), 10**6),
    st.builds(Fraction, st.integers(-20, 20), st.integers(1, 9)),
    st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**30)),
    st.sampled_from([BIG, -BIG, Fraction(BIG, BIG_DEN), Fraction(-BIG_DEN, BIG)]),
)


@st.composite
def _printed_polys(draw):
    vs = draw(st.sampled_from(_CANONICAL_VARSETS))
    order = draw(st.sampled_from(ORDERS))
    terms = draw(st.lists(st.tuples(st.tuples(*[_EXPONENT] * len(vs)), _COEFF), max_size=6))
    return vs, poly_from_terms(order, [(ev_make(e), c) for e, c in terms])


def _no_general_scan(text, pos, *args):
    raise AssertionError(f"general scan called at {pos} on {text[:80]!r}")


@given(drawn=_printed_polys())
@settings(max_examples=200, deadline=None)
def test_printed_text_never_leaves_the_canonical_loop(drawn):
    vs, p = drawn
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(textio, "_scan", _no_general_scan)
        assert parse_poly(print_poly(p, vs), vs, p.order) == p


_NEVER = re.compile(r"(?!)")


def _outcome(text, vs, order):
    try:
        return parse_poly(text, vs, order)
    except ParseError as e:
        return str(e), e.position


@given(drawn=_printed_polys(), data=st.data())
@settings(max_examples=400, deadline=None)
def test_mutated_text_reads_as_the_general_scan_alone_reads_it(drawn, data):
    vs, p = drawn
    text = print_poly(p, vs)
    kind = data.draw(st.sampled_from(["insert", "delete", "replace"]))
    at = data.draw(st.integers(0, len(text) - (kind != "insert")))
    new = data.draw(st.sampled_from([*"+-*/^ 0123456789$", *vs.names]))
    mutated = text[:at] + ("" if kind == "delete" else new) + text[at + (kind != "insert") :]
    got = _outcome(mutated, vs, p.order)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(textio, "_term_pattern", lambda names: _NEVER)
        assert got == _outcome(mutated, vs, p.order)


# -- the table-driven printer ---------------------------------------------------

from hypothesis import example  # noqa: E402

from polycert.textio import _str, format_coeff  # noqa: E402


def _print_per_term(p, varset):
    """print_poly as a plain per-term, per-variable loop: the reference."""
    if not p.terms:
        return "0"
    chunks = []
    for k, t in enumerate(p.terms):
        c = t.coeff
        neg = c < 0
        mag = -c if neg else c
        factors = []
        if mag != 1 or t.degrees.total == 0:
            factors.append(format_coeff(mag))
        for name, e in zip(varset.names, t.degrees.exponents):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{_str(e)}")
        mono = "*".join(factors)
        if k == 0:
            chunks.append(f"-{mono}" if neg else mono)
        else:
            chunks.append(f"- {mono}" if neg else f"+ {mono}")
    return " ".join(chunks)


_PRINTER_VARSETS = [VariableSet(("x", "x1", "xx", "x_1")), PQXYZ]


@st.composite
def _polys_to_print(draw):
    vs = draw(st.sampled_from(_PRINTER_VARSETS))
    order = draw(st.sampled_from(ORDERS))
    exps = st.tuples(*[_EXPONENT] * len(vs))
    terms = draw(st.lists(st.tuples(exps, _COEFF), max_size=6))
    return vs, poly_from_terms(order, [(ev_make(e), c) for e, c in terms])


def _one_term(vs, exps, coeff):
    return vs, poly_from_terms(GRLEX, [(ev_make(exps), coeff)])


@given(drawn=_polys_to_print())
@settings(max_examples=300, deadline=None)
@example(drawn=(PQXYZ, zero(GRLEX)))
@example(drawn=_one_term(PQXYZ, (0,) * 5, 7))
@example(drawn=_one_term(PQXYZ, (0,) * 5, -1))
@example(drawn=_one_term(PQXYZ, (0,) * 5, Fraction(-3, 4)))
@example(drawn=_one_term(PQXYZ, (1, 0, 10**40, 0, 10**4400 + 3), -BIG))
@example(drawn=(PQXYZ, poly_from_terms(MonomialOrder.LEX, [
    (ev_make((2, 0, 0, 0, 1)), -1),
    (ev_make((0, 1, 0, 0, 0)), 1),
    (ev_make((0,) * 5), 1),
])))
def test_print_matches_the_per_term_loop(drawn):
    vs, p = drawn
    assert print_poly(p, vs) == _print_per_term(p, vs)


def test_factor_tables_stay_within_their_bound():
    n = 10**5
    vs = VariableSet(("x", "y"))
    terms = tuple(
        Term(ev_make((e, n - e)), 1 if e % 2 else -1) for e in range(n, -1, -1)
    )
    p = Polynomial(GRLEX, terms)
    assert print_poly(p, vs) == _print_per_term(p, vs)
    tables = textio._factor_tables(vs.names)
    assert [len(t) for t in tables] == [textio._TABLE_SIZE] * 2
    # a long exponent is printed but not kept
    u = VariableSet(("u_printed_once",))
    huge = Polynomial(GRLEX, (Term(ev_make((10**4400 + 3,)), 1),))
    assert print_poly(huge, u) == _print_per_term(huge, u)
    assert len(textio._factor_tables(u.names)[0]) == 2  # 0 and 1, filled at start


def test_parse_tables_stay_within_their_bound(monkeypatch):
    # more distinct exponent and coefficient texts than a table keeps
    n = textio._TABLE_SIZE + 100
    x = VariableSet(("x",))
    text = " + ".join(f"{n + e}*x^{e}" for e in range(n, 0, -1))
    expected = poly_from_terms(GRLEX, [(ev_make((e,)), n + e) for e in range(n, 0, -1)])
    assert parse_poly(text, x, GRLEX) == expected
    assert len(textio._EXPONENTS) == len(textio._COEFFICIENTS) == textio._TABLE_SIZE
    # a 70-digit text is converted but not kept, though the table has room
    exponents = textio._Table(textio._exponent, {"": 0})
    coefficients = textio._Table(textio._coefficient, {"": 1, "+": 1, "-": -1})
    monkeypatch.setattr(textio, "_EXPONENTS", exponents)
    monkeypatch.setattr(textio, "_COEFFICIENTS", coefficients)
    big = 10**69 + 7
    p = parse_poly(f"{big}*x^{big} - 12*x", x, GRLEX)
    assert [(t.degrees.exponents, t.coeff) for t in p.terms] == [((big,), big), ((1,), -12)]
    assert exponents == {"": 0, "x": 1}
    assert coefficients == {"": 1, "+": 1, "-": -1, "-12": -12}


@pytest.mark.parametrize("order", ORDERS)
def test_read_sorted_is_poly_from_terms(order):
    # x^2 appears twice and combines; y appears twice and cancels
    stream = [((2, 0), 3), ((0, 1), 1), ((2, 0), 4), ((1, 1), 5), ((0, 1), -1)]
    stream = [(ev_make(e), c) for e, c in stream]
    with count_ops() as read:
        got = read_sorted(stream, order)
    with count_ops() as ref:
        want = poly_from_terms(order, stream)
    assert got == want and read == ref
    assert [(t.degrees.exponents, t.coeff) for t in got.terms] == [((2, 0), 7), ((1, 1), 5)]


# -- canonical text read a column at a time -------------------------------------

from polycert import OpCounters  # noqa: E402

XY = VariableSet(("x", "y"))


def _ev(*exps):
    return ev_make(exps)


# (text, its terms in text order, comparisons poly_from_terms makes on them)
_COUNTED_TEXTS = [
    ("3*x^2*y - x*y + 2*y^2 - 7",
     [(_ev(2, 1), 3), (_ev(1, 1), -1), (_ev(0, 2), 2), (_ev(0, 0), -7)], 3),
    ("2*y^2 + 3*x^2*y - 7 - x*y + x",
     [(_ev(0, 2), 2), (_ev(2, 1), 3), (_ev(0, 0), -7), (_ev(1, 1), -1), (_ev(1, 0), 1)], 8),
    ("x*y + 2*x*y + y", [(_ev(1, 1), 1), (_ev(1, 1), 2), (_ev(0, 1), 1)], 1),
    ("x^2 + 0*x + 1", [(_ev(2, 0), 1), (_ev(1, 0), 0), (_ev(0, 0), 1)], 1),
    ("0", [(_ev(0, 0), 0)], 0),
    ("5*x*y", [(_ev(1, 1), 5)], 0),
]


@pytest.mark.parametrize("text, pairs, comparisons", _COUNTED_TEXTS)
def test_parsing_counts_what_poly_from_terms_counts(text, pairs, comparisons):
    with count_ops() as ref:
        want = poly_from_terms(GRLEX, pairs)
    assert ref == OpCounters(comparisons=comparisons)
    with count_ops() as got:
        assert parse_poly(text, XY, GRLEX) == want
    assert got == ref
    cert = f"vars: x y\norder: grlex\nN: 1\nf: {text}\nlambda[1]: {text}\ng[1]: {text}\n"
    with count_ops() as got:
        parsed = parse_certificate(cert)
    assert (parsed.f, parsed.pairs) == (want, ((want, want),))
    assert got == OpCounters(comparisons=3 * comparisons)


@st.composite
def _printed_certificates(draw):
    """A certificate over one of `_printed_polys`' variable sets and orders,
    with 1 to 3 pairs drawn from the same exponents and coefficients."""
    vs, f = draw(_printed_polys())
    terms = st.lists(st.tuples(st.tuples(*[_EXPONENT] * len(vs)), _COEFF), max_size=4)
    pairs = tuple(
        tuple(poly_from_terms(f.order, [(ev_make(e), c) for e, c in draw(terms)])
              for _ in "lg")
        for _ in range(draw(st.integers(1, 3)))
    )
    return Certificate(vs, f.order, f, pairs)


def _by_sections(text, vs, order):
    """The certificate and counters that parse_poly gives section by section
    (one line a section)."""
    sections = dict(line.split(": ", 1) for line in text.splitlines())
    with count_ops() as counted:
        f = parse_poly(sections["f"], vs, order)
        pairs = tuple(
            (parse_poly(sections[f"lambda[{i}]"], vs, order),
             parse_poly(sections[f"g[{i}]"], vs, order))
            for i in range(1, int(sections["N"]) + 1)
        )
    return Certificate(vs, order, f, pairs), counted


@given(cert=_printed_certificates())
@settings(max_examples=150, deadline=None)
def test_certificate_batch_reads_as_parse_poly_reads_each_section(cert):
    text = format_certificate(cert)
    with count_ops() as counted:
        got = parse_certificate(text)
    assert (got, counted) == _by_sections(text, cert.varset, cert.order)
    assert got == cert
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(textio, "_ROWS", 2)  # term rows moved into columns two at a time
        assert parse_certificate(text) == cert


def _not_canonical(text, names, kind):
    first = names[0]
    rest = text if text.startswith("-") else "+ " + text
    return {
        "reversed factors": f"{text} + {names[-1]}*{first}",  # x*x for one variable
        "extra spaces": f"{text} + 2 *  {first} ^ 3",
        "duplicate term": f"{first} {rest} + {first}",
        "unsorted term": f"1 {rest} + {first}^2",
    }[kind]


@given(
    cert=_printed_certificates(),
    kind=st.sampled_from(["reversed factors", "extra spaces", "duplicate term",
                          "unsorted term"]),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_certificate_with_one_odd_section_reads_as_each_section_reads(cert, kind, data):
    lines = format_certificate(cert).splitlines()
    at = data.draw(st.integers(3, len(lines) - 1))  # f, lambda[i] or g[i]
    label, section = lines[at].split(": ", 1)
    lines[at] = f"{label}: {_not_canonical(section, cert.varset.names, kind)}"
    text = "\n".join(lines) + "\n"
    with count_ops() as counted:
        got = parse_certificate(text)
    assert (got, counted) == _by_sections(text, cert.varset, cert.order)


@pytest.mark.parametrize("n", [3, 9, 10**12])  # 9 and 10**12: fewer sections than 2N
def test_certificate_faults_are_found_in_section_order(n):
    # lambda[1] is malformed and g[3] is missing: the section read first wins
    text = (
        f"vars: x y\norder: grlex\nN: {n}\nf: x^2 - 1\nlambda[1]: x + * y\ng[1]: x - 1\n"
        "lambda[2]: 1\ng[2]: 0\nlambda[3]: 0\n"
    )
    with pytest.raises(ParseError) as e:
        parse_certificate(text)
    assert str(e.value) == "expected a coefficient or variable (at position 4)"
    assert e.value.position == 4
    with pytest.raises(CertificateFormatError) as e:
        parse_certificate(text.replace("x + * y", "x + y"))
    assert str(e.value) == "missing section 'g[3]'"


def test_term_search_skips_a_digit_run_it_cannot_start_in():
    # a term starts at the start of the text or at a sign, so findall over a
    # long digit run that no term takes stays linear (quadratic: minutes, so
    # the wide limit fails only without the anchor, not on a slow machine)
    import time

    findall = textio._term_pattern(("x",)).findall
    start = time.perf_counter()
    assert findall("1" * 100_000 + "$") == []
    assert findall("x + " + "2" * 100_000 + "*x*x") == [("x ", "", "", "", "x")]
    assert time.perf_counter() - start < 30


def test_repeated_denominators_are_read_and_printed_exactly():
    # each distinct denominator is converted once per call; every term's
    # coefficient is still its own reduced Fraction
    vs, order = VariableSet(("x", "y")), MonomialOrder.GRLEX
    long_den = 7 * 10**4400 + 3  # 4402 digits
    dens = [long_den, 6, long_den, 6, 7]
    text = " + ".join(f"{i + 2}/{_str(d)}*x^{5 - i}" for i, d in enumerate(dens))
    p = parse_poly(text + " + 1/07*y", vs, order)
    want = [Fraction(i + 2, d) for i, d in enumerate(dens)] + [Fraction(1, 7)]
    assert [t.coeff for t in p.terms] == want
    printed = print_poly(p, vs)
    assert printed == " + ".join(
        f"{format_coeff(c)}*{m}" for c, m in zip(want, ["x^5", "x^4", "x^3", "x^2", "x", "y"]))
    assert parse_poly(printed, vs, order) == p


class _FindallSpy:
    """A term pattern that records each text its ``findall`` is given."""

    def __init__(self, pattern):
        self.match, self._findall, self.texts = pattern.match, pattern.findall, []

    def findall(self, text):
        self.texts.append(text)
        return self._findall(text)


def test_text_that_does_not_start_with_a_canonical_term_never_reaches_findall():
    vs, order = VariableSet(("x", "y")), MonomialOrder.GRLEX
    spy = _FindallSpy(textio._term_pattern(vs.names))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(textio, "_term_pattern", lambda names: spy)
        odd = parse_poly("3 * x^2 + 2*x*y - y", vs, order)
        canonical = parse_poly("3*x^2 + 2*x*y - y", vs, order)
    assert odd == canonical
    assert spy.texts == ["3*x^2 + 2*x*y - y"]
