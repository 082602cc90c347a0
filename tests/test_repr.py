"""The repr of a term or constant prints any coefficient, past the int-string
digit limit too, and below it exactly the text the dataclass repr prints."""

import sys
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycert import Const, MonomialOrder, Node, Polynomial, Term, ev_make
from polycert.recursive import univariate

BIG = 10**4400 + 3  # 4401 digits: past the int-string digit limit


@dataclass(frozen=True)
class _Term:  # the fields of Term, with the repr the dataclass writes
    degrees: object
    coeff: object


@dataclass(frozen=True)
class _Const:
    value: object


def _dataclass_repr(obj, name):
    """The dataclass repr of `obj`'s fields, under the class name `name`."""
    twin = _Term(obj.degrees, obj.coeff) if name == "Term" else _Const(obj.value)
    return name + repr(twin)[len(type(twin).__name__):]


coefficients = st.one_of(
    st.integers(), st.booleans(), st.fractions(), st.floats(allow_nan=False)
)


@given(c=coefficients, exps=st.lists(st.integers(0, 10**6), min_size=1, max_size=3))
@settings(max_examples=200, deadline=None)
def test_repr_below_the_limit_is_the_dataclass_repr(c, exps):
    t = Term(ev_make(exps), c)
    assert repr(t) == _dataclass_repr(t, "Term")
    assert repr(Const(c)) == _dataclass_repr(Const(c), "Const")


def _with_no_digit_limit(f):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return f()
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no digit limit in force")
@pytest.mark.parametrize("c", [BIG, -BIG, Fraction(BIG, 7), Fraction(-BIG, 10**4400 + 1)],
                         ids=["int", "negative int", "fraction", "long denominator"])
def test_repr_past_the_limit(c):
    with pytest.raises(ValueError):
        repr(c)
    t, k = Term(ev_make((1, 2)), c), Const(c)
    assert repr(t) == _with_no_digit_limit(lambda: _dataclass_repr(t, "Term"))
    assert repr(k) == _with_no_digit_limit(lambda: _dataclass_repr(k, "Const"))
    # and so the repr of what holds them
    p = Polynomial(MonomialOrder.GRLEX, (t,))
    assert repr(p) == _with_no_digit_limit(lambda: repr(p))
    n = univariate("x", [(2, c), (0, 1)])
    assert isinstance(n, Node)
    assert repr(n) == _with_no_digit_limit(lambda: repr(n))


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no digit limit in force")
def test_verify_result_repr_past_the_limit():
    from polycert import Certificate, VariableSet, verify, verify_naive

    grlex = MonomialOrder.GRLEX
    f = Polynomial(grlex, (Term(ev_make((1,)), 10**4400),))  # f = 10**4400 * x
    one = Polynomial(grlex, (Term(ev_make((0,)), 1),))
    cert = Certificate(VariableSet(("x",)), grlex, f, ((one, one),))
    for result in (verify(cert), verify_naive(cert)):
        assert result.witness == (ev_make((1,)), -(10**4400))
        assert repr(result) == _with_no_digit_limit(lambda: repr(result))
