import random
from fractions import Fraction

import pytest

from polycert import (
    Const,
    MonomialOrder,
    Node,
    Polynomial,
    RecursionMode,
    Term,
    VariableSet,
    add,
    ev_make,
    format_recursive,
    mul_naive,
    parse_poly,
    to_distributed,
    to_recursive,
    univ_divide,
    univ_pseudo_divide,
    zero,
)
from polycert.errors import DimensionError, DomainError, FormatError, StructureError
from polycert.recursive import is_well_formed, univariate

from conftest import ORDERS, random_poly

GRLEX = MonomialOrder.GRLEX
ZY = VariableSet(("z", "y"))
ZYX = VariableSet(("z", "y", "x"))


def test_two_variable_nesting():
    p = parse_poly("z^2*y^2 + 2*z^2 + 3*y + 4", ZY, GRLEX)
    expect = "(z,(2,(y,(2,1),(0,2))),(0,(y,(1,3),(0,4))))"
    for mode in RecursionMode:
        assert format_recursive(to_recursive(p, ZY, mode)) == expect


def test_sparse_in_variables_nesting():
    p = parse_poly("z^2*y^2 + 2*z^2 + 3*x + 4", ZYX, GRLEX)
    r = to_recursive(p, ZYX, RecursionMode.SPARSE_IN_VARIABLES)
    assert format_recursive(r) == "(z,(2,(y,(2,1),(0,2))),(0,(x,(1,3),(0,4))))"


def test_dense_in_variables_nesting():
    p = parse_poly("z^2*y^2 + 2*z^2 + 3*x + 4", ZYX, GRLEX)
    r = to_recursive(p, ZYX, RecursionMode.DENSE_IN_VARIABLES)
    assert (
        format_recursive(r)
        == "(z,(2,(y,(2,(x,(0,1))),(0,(x,(0,2))))),(0,(y,(0,(x,(1,3),(0,4))))))"
    )


def test_constant_and_zero():
    five = parse_poly("5", ZYX, GRLEX)
    assert to_recursive(five, ZYX, RecursionMode.SPARSE_IN_VARIABLES) == Const(5)
    assert to_recursive(zero(GRLEX), ZYX, RecursionMode.SPARSE_IN_VARIABLES) == Const(0)
    assert to_distributed(Const(0), ZYX, GRLEX).is_zero()


def test_nesting_back_to_distributed():
    p = parse_poly("z^2*y^2 + 2*z^2 + 3*y + 4", ZY, GRLEX)
    r = to_recursive(p, ZY, RecursionMode.SPARSE_IN_VARIABLES)
    back = to_distributed(r, ZY, GRLEX)
    assert back == p
    assert len(back.terms) == 4


def test_rejects_ill_formed_nesting():
    # y outside, x inside, y again: the classic ill-formed nesting
    bad = Node(
        "y",
        ((1, Node("x", ((1, Node("y", ((1, Const(1)),))),))),),
    )
    vs = VariableSet(("x", "y"))
    assert not is_well_formed(bad, vs)
    with pytest.raises(StructureError):
        to_distributed(bad, vs, GRLEX)


def test_well_formedness_validator():
    vs = VariableSet(("x", "y"))
    good = Node("x", ((2, Node("y", ((1, Const(3)),))), (0, Const(1))))
    assert is_well_formed(good, vs)
    # pairs must be strictly decreasing
    assert not is_well_formed(Node("x", ((1, Const(1)), (1, Const(2)))), vs)
    # zero coefficient subtree forbidden
    assert not is_well_formed(Node("x", ((1, Const(0)),)), vs)


def test_anonymous_variable_outermost_only():
    vs = VariableSet(("x",))
    anon = univariate(None, [(3, 1), (1, -2)])
    assert is_well_formed(anon, vs)
    assert format_recursive(anon) == "(_,(3,1),(1,-2))"
    nested = Node("x", ((1, Node(None, ((0, Const(1)),))),))
    assert not is_well_formed(nested, vs)
    with pytest.raises(StructureError):
        to_distributed(anon, vs, GRLEX)


def test_an_anonymous_node_takes_only_sorted_nonzero_constants():
    vs = VariableSet(("x",))
    assert is_well_formed(Node(None, ((2, Const(1)), (0, Const(3)))), vs)
    for pairs in (
        ((1, Node("x", ((1, Const(1)),))),),  # a named coefficient
        ((1, Node(None, ((1, Const(1)),))),),  # an anonymous one
        ((0, Const(1)), (1, Const(2))),  # unsorted
        ((1, Const(1)), (1, Const(2))),  # a repeated exponent
        ((1, Const(2)), (0, Const(0))),  # a zero
    ):
        assert not is_well_formed(Node(None, pairs), vs)


@pytest.mark.parametrize("mode", list(RecursionMode))
@pytest.mark.parametrize("order", ORDERS)
def test_round_trip_random(rng, mode, order):
    for _ in range(60):
        p = random_poly(rng, order, rng.randrange(0, 10))
        r = to_recursive(p, ZYX, mode)
        assert is_well_formed(r, ZYX) or p.is_zero()
        assert to_distributed(r, ZYX, order) == p


# -- univariate division -----------------------------------------------------

X = VariableSet(("x",))


def as_poly(r):
    return to_distributed(r, X, GRLEX)


def test_divide_examples():
    f = univariate("x", [(2, 1), (0, 1)])
    g = univariate("x", [(1, 1)])
    q, r = univ_divide(f, g)
    assert format_recursive(q) == "(x,(1,1))"
    assert r == Const(1)
    q2, r2 = univ_divide(g, g)
    assert q2 == Const(1) and r2 == Const(0)


def test_divide_errors():
    g = univariate("x", [(1, 1)])
    with pytest.raises(ZeroDivisionError):
        univ_divide(g, Const(0))
    vs = VariableSet(("x", "y"))
    multi = Node("x", ((1, Node("y", ((1, Const(1)),))),))
    with pytest.raises(DomainError):
        univ_divide(multi, g)
    with pytest.raises(DomainError):
        univ_divide(univariate("x", [(1, 1)]), univariate("y", [(1, 1)]))


def rand_uni(rng, deg, rational=False):
    pairs = [
        (e, rng.randrange(-5, 6)) for e in range(deg + 1) if rng.random() < 0.7
    ]
    pairs.append((deg, rng.choice([-3, -2, -1, 1, 2, 3])))
    if rational:
        pairs = [(e, Fraction(c, rng.choice([1, 2, 3]))) for e, c in pairs if c]
    return univariate("x", dict(pairs).items())


def uni_deg(r):
    if isinstance(r, Const):
        return -1 if r.value == 0 else 0
    return max(e for e, _ in r.pairs)


def test_divide_identity_random(rng):
    for _ in range(100):
        f = rand_uni(rng, rng.randrange(0, 8), rational=True)
        g = rand_uni(rng, rng.randrange(0, 5), rational=True)
        q, r = univ_divide(f, g)
        lhs = as_poly(f)
        rhs = add(mul_naive(as_poly(q), as_poly(g)), as_poly(r))
        assert lhs == rhs
        assert uni_deg(r) < uni_deg(g) or r == Const(0)


def test_pseudo_divide_example():
    # f = x^2, g = 2x+1: 4f = (2x-1)g + 1
    f = univariate("x", [(2, 1)])
    g = univariate("x", [(1, 2), (0, 1)])
    q, r, d = univ_pseudo_divide(f, g)
    assert d == 2
    assert format_recursive(q) == "(x,(1,2),(0,-1))"
    assert r == Const(1)


def test_pseudo_divide_low_degree():
    f = univariate("x", [(1, 1)])
    g = univariate("x", [(3, 2)])
    q, r, d = univ_pseudo_divide(f, g)
    assert (q, r, d) == (Const(0), f, 0)


def test_pseudo_divide_identity_random(rng):
    for _ in range(100):
        f = rand_uni(rng, rng.randrange(0, 8))
        g = rand_uni(rng, rng.randrange(0, 5))
        q, r, d = univ_pseudo_divide(f, g)
        lg = g.pairs[0][1].value if isinstance(g, Node) else g.value
        assert d == max(uni_deg(f) - uni_deg(g) + 1, 0) if uni_deg(f) >= 0 else d == 0
        lhs = mul_naive(as_poly(Const(lg**d)), as_poly(f))
        rhs = add(mul_naive(as_poly(q), as_poly(g)), as_poly(r))
        assert lhs == rhs
        assert uni_deg(r) < uni_deg(g) or r == Const(0)


def test_pseudo_divide_monic_matches_divide(rng):
    for _ in range(50):
        f = rand_uni(rng, rng.randrange(0, 8))
        deg_g = rng.randrange(0, 5)
        g = rand_uni(rng, deg_g)
        # force monic
        pairs = dict((e, c.value) for e, c in g.pairs) if isinstance(g, Node) else {0: 1}
        pairs[deg_g] = 1
        g = univariate("x", pairs.items())
        q, r, d = univ_pseudo_divide(f, g)
        qf, rf = univ_divide(f, g)
        assert as_poly(q) == as_poly(qf)
        assert as_poly(r) == as_poly(rf)


@pytest.mark.parametrize("mode", list(RecursionMode))
def test_to_recursive_rejects_a_repeated_monomial(mode):
    xy = VariableSet(("x", "y"))
    t, s = Term(ev_make((1, 2)), 1), Term(ev_make((1, 0)), 3)
    for terms in [(t, t), (t, s, Term(ev_make((1, 2)), 2))]:
        with pytest.raises(FormatError, match=r"repeated monomial x\*y\^2"):
            to_recursive(Polynomial(GRLEX, terms), xy, mode)


@pytest.mark.parametrize("mode", list(RecursionMode))
def test_to_recursive_takes_only_its_variable_set_and_domain(mode):
    xy = VariableSet(("x", "y"))
    longer = parse_poly("x + z", VariableSet(("x", "y", "z")), GRLEX)
    shorter = Polynomial(GRLEX, (Term(ev_make((1,)), 1),))
    for p, n in [(longer, 3), (shorter, 1)]:
        with pytest.raises(DimensionError, match=f"expected 2 exponents, got {n}"):
            to_recursive(p, xy, mode)
    half = Polynomial(GRLEX, (Term(ev_make((1, 0)), 0.5),))
    with pytest.raises(DomainError, match="coefficient 0.5 is neither"):
        to_recursive(half, xy, mode)
