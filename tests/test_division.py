"""Univariate division against the textbook loops it replaced.

``univ_pseudo_divide`` multiplies f by lc(g)^d once and divides by exact
quotients; ``univ_divide`` divides its results by lc(g)^d.  The oracles are
the loops they replaced: pseudo-division that rescales the whole remainder
by lc(g) at every step (Knuth, TAOCP vol. 2, 4.6.1, Algorithm R), and long
division in Fractions.  Each must give an equal q, r and d, with every
coefficient of the same type, on gaps, negative and non-unit lc(g), constant
g, deg f < deg g, f = 0, 4401-digit numbers and Fractions.
"""

import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polycert import Const, univ_divide, univ_pseudo_divide
from polycert.errors import DomainError
from polycert.recursive import univariate

BIG = 10**4400  # 4401 digits: past the int-string digit limit


def _pairs(r):
    """The nonzero (exponent, coefficient) pairs of a univariate polynomial."""
    if isinstance(r, Const):
        return [(0, r.value)] if r.value != 0 else []
    return [(e, c.value) for e, c in r.pairs]


def _poly(var, pairs):
    pairs = sorted(((e, c) for e, c in pairs.items() if c != 0), reverse=True)
    if not pairs:
        return Const(0)
    if len(pairs) == 1 and pairs[0][0] == 0:
        return Const(pairs[0][1])
    return univariate(var, pairs)


def _sub_scaled(a, b, c, shift):
    """a - c * x^shift * b, on {exponent: coefficient} dicts, dropping zeros."""
    d = dict(a)
    for e, bc in b.items():
        d[e + shift] = d.get(e + shift, 0) - c * bc
        if d[e + shift] == 0:
            del d[e + shift]
    return d


def _lead(p):
    return max(p), p[max(p)]


def rescaling_pseudo_divide(f, g, var="x"):
    """Algorithm R: scale the remainder by lc(g) at every step, pad at the end."""
    pf, pg = dict(_pairs(f)), dict(_pairs(g))
    dg, lg = _lead(pg)
    delta = max(max(pf) - dg + 1, 0) if pf else 0
    steps, r = [], pf
    while r and max(r) >= dg:
        dr, lr = _lead(r)
        steps.append((dr - dg, lr))
        r = _sub_scaled({e: lg * c for e, c in r.items()}, pg, lr, dr - dg)
    pad = lg ** (delta - len(steps))
    r = {e: pad * c for e, c in r.items()}
    q = {}
    for shift, lr in reversed(steps):
        q[shift] = pad * lr
        pad *= lg
    return _poly(var, q), _poly(var, r), delta


def fraction_divide(f, g, var="x"):
    """Long division with every coefficient a Fraction."""
    pf = {e: Fraction(c) for e, c in _pairs(f)}
    pg = {e: Fraction(c) for e, c in _pairs(g)}
    dg, lg = _lead(pg)
    q, r = {}, pf
    while r and max(r) >= dg:
        dr, lr = _lead(r)
        q[dr - dg] = lr / lg
        r = _sub_scaled(r, pg, lr / lg, dr - dg)
    return _poly(var, q), _poly(var, r)


def _typed(*polys):
    """Each polynomial's pairs with the type of every coefficient."""
    return [[(e, c, type(c)) for e, c in _pairs(p)] for p in polys]


def _as_input(pairs, as_const):
    p = _poly("x", dict(pairs))
    if as_const and isinstance(p, Const):
        return p
    return univariate("x", pairs) if pairs else Const(0)


small = st.integers(-9, 9)
big = st.builds(lambda k, sign: sign * (BIG + k),
                st.integers(0, 3), st.sampled_from([1, -1]))
fraction = st.builds(lambda n, d: Fraction(n, d or BIG + 1),
                     st.integers(-9, 9), st.sampled_from([1, 2, 3, 7, 0]))
coeff = st.one_of(small, small, big, fraction)


@st.composite
def polys(draw, nonzero):
    exps = draw(st.lists(st.integers(0, 9), unique=True, min_size=int(nonzero), max_size=5))
    pairs = {e: draw(coeff.filter(bool)) for e in exps}
    return _as_input(list(pairs.items()), draw(st.booleans()))


@given(f=polys(False), g=polys(True))
@settings(max_examples=300, deadline=None)
@example(f=univariate("x", [(9, 1), (0, 1)]), g=univariate("x", [(2, 2), (0, 1)]))  # gaps
@example(f=univariate("x", [(6, 3), (5, 1)]), g=univariate("x", [(3, -4), (2, 6)]))
@example(f=univariate("x", [(4, 5), (1, -3)]), g=Const(-6))  # constant g
@example(f=univariate("x", [(2, 5)]), g=univariate("x", [(5, -2), (0, 1)]))  # deg f < deg g
@example(f=Const(0), g=univariate("x", [(1, 3)]))  # f = 0
@example(f=univariate("x", [(3, BIG), (0, -BIG)]),
         g=univariate("x", [(1, -BIG - 1), (0, 7)]))  # 4401 digits
@example(f=univariate("x", [(3, Fraction(1, 2)), (1, 4)]),
         g=univariate("x", [(2, 3), (1, 1)]))  # Fractions
def test_division_matches_the_loops_it_replaced(f, g):
    q, r, d = univ_pseudo_divide(f, g)
    oq, orr, od = rescaling_pseudo_divide(f, g)
    assert (q, r, d) == (oq, orr, od)
    assert _typed(q, r) == _typed(oq, orr)
    q, r = univ_divide(f, g)
    oq, orr = fraction_divide(f, g)
    assert (q, r) == (oq, orr)
    assert _typed(q, r) == _typed(oq, orr)


def test_a_sum_that_cancels_to_zero_starts_again_as_an_int():
    # x^4 + 3x^3 + (1/1)x^2 by x^2 + x + 1: the x^2 sum, a Fraction, cancels to
    # 0 at the first step; the next step's int product starts it afresh, so
    # the last quotient coefficient is an int, as in the rescaling loop
    f = univariate("x", [(4, 1), (3, 3), (2, Fraction(1))])
    g = univariate("x", [(2, 1), (1, 1), (0, 1)])
    q, r, d = univ_pseudo_divide(f, g)
    assert (q, r, d) == rescaling_pseudo_divide(f, g)
    assert _typed(q, r) == _typed(*rescaling_pseudo_divide(f, g)[:2])
    assert _typed(q) == [[(2, 1, int), (1, 2, int), (0, -2, int)]]


@pytest.mark.parametrize("divide", [univ_divide, univ_pseudo_divide])
@pytest.mark.parametrize("bad", [0.5, Decimal("0.5")])
def test_division_rejects_inexact_coefficients(divide, bad):
    message = re.escape(f"coefficient {bad!r} is neither an int nor a Fraction")
    three_x = univariate("x", [(1, 3)])
    for f, g in [
        (univariate("x", [(3, bad), (0, 1)]), three_x),  # was 4.5*x^2 by x^3*0.5 + 1
        (univariate("x", [(3, 1)]), univariate("x", [(1, 3), (0, bad)])),
        (Const(bad), three_x),
        (three_x, Const(bad)),
    ]:
        with pytest.raises(DomainError, match=message):
            divide(f, g)
