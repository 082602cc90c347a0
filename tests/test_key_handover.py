"""Each parsed polynomial keeps its packed keys, and every kernel takes them.

``parse_certificate`` and ``parse_poly`` pack each term's key once, canonical
or spaced by hand, at the width a merge uses, and each polynomial taken as it
stands keeps its own, outside its fields; ``poly.checked_keys``, the input check of every
kernel and of the merge set-up, takes them instead of packing again.
Whatever else a certificate holds (a replaced polynomial, polynomials of two
parses, a hand-spaced section, a Fraction in one section), ``verify``,
``find_witness`` and ``combine`` give the verdict, witness, result and
counters of the same certificate built by hand; ``add`` and ``mul_heap`` of
two parses give the terms and counters of hand-built copies; and no kernel
changes a kept key.
"""

import dataclasses
import random
from dataclasses import astuple
from fractions import Fraction

import pytest

from polycert import (
    Certificate,
    Polynomial,
    ScanDirection,
    Term,
    VariableSet,
    add,
    combine,
    count_ops,
    ev_make,
    find_witness,
    format_certificate,
    mul_heap,
    mul_naive,
    parse_certificate,
    parse_poly,
    verify,
    zero,
)
from polycert import poly, textio
from polycert.heapmul import merge_sources
from polycert.verifier import _checked_sources

from conftest import ORDERS, random_poly

VARS = VariableSet(("x", "y", "z"))


def rebuilt(p):
    """`p` rebuilt from fresh terms: a polynomial no parser made."""
    return Polynomial(p.order, tuple(Term(t.degrees, t.coeff) for t in p.terms))


def by_hand(cert):
    """`cert` rebuilt from fresh terms: a certificate no parser made."""
    pairs = tuple((rebuilt(lam), rebuilt(g)) for lam, g in cert.pairs)
    return Certificate(cert.varset, cert.order, rebuilt(cert.f), pairs)


def typed(witness):
    return witness and (witness[0], witness[1], type(witness[1]))


def outcomes(cert):
    """What a caller sees: each direction's verdict, witness (with its
    coefficient's type), counters and peak, the unscoped witnesses, and
    combine's terms, their coefficients' types and its counters."""
    seen = []
    for direction in ScanDirection:
        r = verify(cert, direction)
        seen.append((r.valid, typed(r.witness), astuple(r.stats.counters), r.stats.peak_terms))
        seen.append(typed(find_witness(cert, direction)))
    with count_ops() as counters:
        total = combine(cert)
    seen.append(([(t.degrees, t.coeff, type(t.coeff)) for t in total.terms], astuple(counters)))
    return seen


def random_cert(rng, order, max_exp=5, rational=False, corrupt=False):
    pairs = tuple((random_poly(rng, order, rng.randint(1, 6), 3, max_exp, rational),
                   random_poly(rng, order, rng.randint(1, 6), 3, max_exp, rational))
                  for _ in range(rng.randint(1, 4)))
    f = zero(order)
    for lam, g in pairs:
        f = add(f, mul_naive(lam, g))
    if corrupt and f.terms:
        k = rng.randrange(len(f.terms))
        bad = Term(f.terms[k].degrees, 2 * f.terms[k].coeff)
        f = Polynomial(order, f.terms[:k] + (bad,) + f.terms[k + 1:])
    return Certificate(VARS, order, f, pairs)


def parsed(cert):
    return parse_certificate(format_certificate(cert))


def packed_monomials(monkeypatch, call):
    """The exponents of every monomial that ``call()`` packs into a key."""
    seen, real = [], poly.key_packer

    def counting(*args, **kwargs):
        pack = real(*args, **kwargs)

        def spy(ev):
            seen.append(ev.exponents)
            return pack(ev)

        return spy

    with monkeypatch.context() as patch:
        patch.setattr(poly, "key_packer", counting)
        patch.setattr(poly, "pack_columns", None)  # parsing is not called for
        call()
    return seen


def terms_of(cert):
    return len(cert.f.terms) + sum(len(lam.terms) + len(g.terms) for lam, g in cert.pairs)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("max_exp, rational", [(5, False), (5, True), (10**40, False)])
def test_parsed_certificate_sets_up_as_one_built_by_hand(order, max_exp, rational):
    rng = random.Random(f"{order}{max_exp}{rational}")
    for corrupt in (False, True, True):
        cert = parsed(random_cert(rng, order, max_exp, rational, corrupt))
        hand = by_hand(cert)
        assert cert == hand and repr(cert) == repr(hand) and astuple(cert) == astuple(hand)
        for descending in (True, False):
            for residual in (True, False):
                # the handed keys are the very keys the set-up packs itself
                assert (_checked_sources(cert, descending, residual)
                        == _checked_sources(hand, descending, residual))
        assert outcomes(cert) == outcomes(hand)


def test_a_parsed_canonical_certificate_packs_only_the_constant(monkeypatch):
    cert = parsed(random_cert(random.Random(7), ORDERS[2], corrupt=True))
    constant = [(0, 0, 0)]  # the -1 of the residual; combine's zero factor has no terms
    for direction in ScanDirection:
        assert packed_monomials(monkeypatch, lambda: verify(cert, direction)) == constant
        assert packed_monomials(monkeypatch, lambda: find_witness(cert, direction)) == constant
    assert packed_monomials(monkeypatch, lambda: combine(cert)) == constant
    hand = by_hand(cert)
    assert len(packed_monomials(monkeypatch, lambda: verify(hand))) == terms_of(hand) + 1


@pytest.mark.parametrize("source", ["another parse", "by hand"])
def test_replaced_polynomial_gives_what_a_hand_built_certificate_gives(monkeypatch, source):
    rng = random.Random(source)
    cert = parsed(random_cert(rng, ORDERS[1]))
    other = random_cert(rng, ORDERS[1], max_exp=10**6)  # wider keys
    f = parsed(other).f if source == "another parse" else other.f
    replaced = dataclasses.replace(cert, f=f)
    assert outcomes(replaced) == outcomes(by_hand(replaced))
    # an f from another parse keeps its wider keys, so only the pairs' terms
    # and the -1 are packed; one built by hand has none: every term is packed
    packed = packed_monomials(monkeypatch, lambda: find_witness(replaced))
    kept = len(f.terms) if source == "another parse" else 0
    assert len(packed) == terms_of(replaced) - kept + 1
    assert outcomes(dataclasses.replace(cert)) == outcomes(cert)


@pytest.mark.parametrize("order", ORDERS)
def test_polynomials_of_two_parses_with_different_widths(order):
    rng = random.Random(str(order))
    narrow = parsed(random_cert(rng, order, max_exp=3))
    wide = parsed(random_cert(rng, order, max_exp=10**30, rational=True))
    mixes = [
        Certificate(VARS, order, wide.f, narrow.pairs),
        Certificate(VARS, order, narrow.f, wide.pairs + narrow.pairs),
        dataclasses.replace(narrow, pairs=(wide.pairs[0],) + narrow.pairs),
    ]
    for cert in mixes:
        assert outcomes(cert) == outcomes(by_hand(cert))


def hand_spaced(text):
    """Canonical `text` spaced by hand, so that the general scan reads it."""
    return text.replace(" + ", "  +  ").replace("*", " * ")


def test_hand_spaced_section_keeps_its_keys(monkeypatch):
    # f is the one section the general scan reads; it joins the parser's
    # batch, so it keeps its keys when its terms are in order
    sections = {"lambda[1]": "x + 1", "g[1]": "x^7*y + 2*z", "lambda[2]": "y - z",
                "g[2]": "x*y + z^2"}
    order = ORDERS[2]
    lam1, g1, lam2, g2 = (parse_poly(text, VARS, order) for text in sections.values())
    total = add(mul_naive(lam1, g1), mul_naive(lam2, g2))
    # the second f is invalid, and its total degree needs a wider shift
    for f in (total, add(total, parse_poly("3*x^40", VARS, order))):
        certs = []
        for terms in (f.terms, f.terms[::-1]):  # sorted, then reversed
            spaced = hand_spaced(textio.print_poly(Polynomial(order, terms), VARS))
            certs.append(parse_certificate("vars: x y z\norder: grevlex\nN: 2\n" + "".join(
                f"{label}: {body}\n" for label, body in {"f": spaced, **sections}.items())))
        for cert in certs:
            assert cert.f == f
            assert outcomes(cert) == outcomes(by_hand(cert))
        assert certs[0].f._keys is not None and certs[1].f._keys is None
        scanned = [t.degrees.exponents for t in f.terms]
        for direction in ScanDirection:  # the sorted f: only the -1 is packed
            got = packed_monomials(monkeypatch, lambda: find_witness(certs[0], direction))
            assert got == [(0, 0, 0)]
            got = packed_monomials(monkeypatch, lambda: find_witness(certs[1], direction))
            assert sorted(got) == sorted(scanned + [(0, 0, 0)])


def test_fraction_in_one_section_keeps_an_all_int_merge_int():
    text = ("vars: x y z\norder: grlex\nN: 2\nf: {f}\n"
            "lambda[1]: x + 2\ng[1]: y\nlambda[2]: {lam}\ng[2]: z\n")
    rational_f = parse_certificate(text.format(f="1/2*x*y + 2*y + y*z", lam="y"))
    rational_lam = parse_certificate(text.format(f="x*y + 2*y + 1/3*y*z", lam="1/3*y"))
    ints = parse_certificate(text.format(f="x*y + 2*y + y*z", lam="y"))
    for cert in (rational_f, rational_lam, ints):
        assert outcomes(cert) == outcomes(by_hand(cert))
    # a Fraction anywhere in a merge makes its sums Fractions, in f too
    assert {type(t.coeff) for t in combine(rational_f).terms} == {Fraction}
    assert Fraction(1, 3) in [t.coeff for t in combine(rational_lam).terms]
    assert verify(rational_lam).valid
    witness = find_witness(rational_f)
    assert (witness[0].exponents, witness[1]) == ((1, 1, 0), Fraction(1, 2))
    # the same certificate, all int once f is replaced: its merge yields ints
    replaced = dataclasses.replace(rational_f, f=ints.f)
    for cert in (ints, replaced):
        assert {type(t.coeff) for t in combine(cert).terms} == {int}
        assert verify(cert).valid


def test_loose_polynomial_takes_the_handed_width_or_everything_is_repacked():
    # parsed, x*z + 1 is packed at the batch's wider shift, and x^40*y + z
    # keeps the widest, at which the batch is packed; built by hand, x*z + 1
    # fits the batch's shift, and x^40*y + z does not, so all are packed anew
    order = ORDERS[1]
    polys = textio._parse_texts(["x^2*y + 3*z", "y^3 - 1", "2*x + z"], VARS, order)
    for text in ("x*z + 1", "x^40*y + z"):
        loose = parse_poly(text, VARS, order)
        for given in (polys + [loose], polys + [rebuilt(loose)]):
            hand = list(map(rebuilt, given))
            keys, _ = poly.checked_keys(order, given, 2)
            assert (keys, False) == poly.checked_keys(order, hand, 2)
            pairs, hand_pairs = (list(zip(ps[::2], ps[1::2])) for ps in (given, hand))
            for descending, sign in ((True, -1), (False, 1)):
                sources, _ = merge_sources(pairs, order, descending)
                assert sources == merge_sources(hand_pairs, order, descending)[0]
                # heapq pops the least key, so a max-first merge negates each key
                scan = [[sign * k for k in kb] for kb in keys[1::2]]
                assert [s[2] for s in sources] == [[sign * k for k in ka] for ka in keys[::2]]
                assert [s[3] for s in sources] == [kb if descending else kb[::-1] for kb in scan]


def kernel_outcome(kernel, p, q):
    """`kernel`'s terms and counters on p and q."""
    with count_ops() as counters:
        result = kernel(p, q)
    return [(t.degrees, t.coeff, type(t.coeff)) for t in result.terms], astuple(counters)


@pytest.mark.parametrize("order", ORDERS)
def test_kernels_of_two_parses_at_one_width_pack_no_key(monkeypatch, order):
    # a shared total-12 term gives the parses one shift, so none is repacked;
    # the last is spaced by hand, so the general scan reads it
    rng, top = random.Random(str(order)), Polynomial(order, (Term(ev_make((4, 4, 4)), 1),))
    for _ in range(10):
        p, q, spaced = (
            parse_poly(space(textio.print_poly(add(top, random_poly(rng, order, 6, 3, 3, r)),
                                               VARS)), VARS, order)
            for r, space in ((False, str), (True, str), (True, hand_spaced)))
        assert p._keys[0] == q._keys[0] == spaced._keys[0]
        for kernel in (add, mul_heap):
            for a, b in ((p, q), (p, spaced), (spaced, q)):
                assert packed_monomials(monkeypatch, lambda: kernel(a, b)) == []
                assert kernel_outcome(kernel, a, b) == kernel_outcome(kernel, rebuilt(a),
                                                                      rebuilt(b))


@pytest.mark.parametrize("order", ORDERS)
def test_kernels_leave_the_kept_keys_as_they_were(order):
    cert = parsed(random_cert(random.Random(str(order)), order, corrupt=True))
    polys = [cert.f] + [p for pair in cert.pairs for p in pair]
    kept = [(p._keys[0], list(p._keys[1])) for p in polys]
    for direction in ScanDirection:
        verify(cert, direction)
        find_witness(cert, direction)
    combine(cert)
    (lam, g), f = cert.pairs[0], cert.f
    add(f, g)
    mul_heap(lam, g)
    assert [(p._keys[0], p._keys[1]) for p in polys] == kept
    # min-first, a streamed side's kept list is the merge's key list itself
    (source,), _ = merge_sources([(g, lam)], order, descending=False)
    assert source[2] is g._keys[1]
