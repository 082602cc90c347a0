"""Long polynomial text is read a slice at a time.

``textio._parse_texts`` runs its ``findall`` over slices of a long text, cut
at the sign of a `` + `` or `` - ``, so it holds few term rows at once.  The
text is canonical only when every slice is; one odd term, in any slice,
sends the whole text to the general scan, and the terms of the slices read
before it are dropped.  Either way each polynomial, its counters and each
error are those of the general scan reading the text alone.
"""

import random
from dataclasses import astuple

import pytest

from polycert import (
    MonomialOrder,
    VariableSet,
    count_ops,
    parse_certificate,
    parse_poly,
    poly_from_terms,
    print_poly,
)
from polycert import textio
from polycert.errors import ParseError

from conftest import random_poly
from test_textio import _FindallSpy

XYZ = VariableSet(("x", "y", "z"))
GRLEX = MonomialOrder.GRLEX


def long_text(seed):
    """About 3000 terms: several slices, and over the rows read at a time."""
    p = random_poly(random.Random(seed), GRLEX, 3000, max_exp=30, rational=True)
    text = print_poly(p, XYZ)
    assert len(text) > 4 * textio._SLICE
    return p, text


def scanned(text):
    """The general scan's polynomial of `text`, and its counters."""
    with count_ops() as c:
        p = poly_from_terms(GRLEX, textio._scan(text, XYZ))
    return p, astuple(c)


def read(text):
    with count_ops() as c:
        p = parse_poly(text, XYZ, GRLEX)
    return p, astuple(c)


def test_canonical_text_is_read_in_slices_cut_at_a_sign():
    p, text = long_text(1)
    spy = _FindallSpy(textio._term_pattern(XYZ.names))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(textio, "_term_pattern", lambda names: spy)
        assert read(text) == (p, scanned(text)[1])
    assert len(spy.texts) > 4 and "".join(spy.texts) == text
    for piece in spy.texts[1:]:
        assert piece[0] in "+-"
    for piece in spy.texts[:-1]:
        assert textio._SLICE < len(piece) and piece.endswith(" ")


@pytest.mark.parametrize("where", [0.3, 0.99])
def test_an_odd_term_in_a_later_slice_sends_the_text_to_the_scan(where):
    _, text = long_text(2)
    at = text.index(" + ", int(len(text) * where))
    odd = text[:at] + " + 2 * x^2" + text[at:]
    assert read(odd) == scanned(odd)


def test_certificate_sections_around_a_long_odd_one():
    """Short canonical sections wait in the rows before and after a long
    section whose last slice is odd, and every section reads as the scan
    reads it alone."""
    _, f = long_text(3)
    _, g = long_text(4)
    odd = g + " - 3 * y"
    sections = {"f": "x + 1", "lambda[1]": f, "g[1]": odd, "lambda[2]": "y - z",
                "g[2]": "z^2"}
    text = "vars: x y z\norder: grlex\nN: 2\n" + "".join(
        f"{label}: {body}\n" for label, body in sections.items())
    with count_ops() as c:
        cert = parse_certificate(text)
    want = [scanned(body) for body in sections.values()]
    got = [cert.f] + [p for pair in cert.pairs for p in pair]
    assert got == [p for p, _ in want]
    assert astuple(c) == tuple(map(sum, zip(*(counts for _, counts in want))))


def test_an_error_in_a_later_slice_is_the_scans():
    _, text = long_text(5)
    bad = text + " + 2*w"
    with pytest.raises(ParseError) as scan:
        textio._scan(bad, XYZ)
    with pytest.raises(ParseError) as parse:
        parse_poly(bad, XYZ, GRLEX)
    assert (str(parse.value), parse.value.position) == (str(scan.value), scan.value.position)
