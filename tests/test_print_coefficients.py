"""The printers take int and Fraction coefficients only.

A float or a ``Decimal`` in a hand-built polynomial, certificate or
recursive constant raises ``DomainError``, as every kernel does; a ``1.0``
or ``Decimal("1")`` must not print as a bare monomial.
"""

from decimal import Decimal
from fractions import Fraction

import pytest

from polycert import (
    Certificate,
    Const,
    MonomialOrder,
    Node,
    Polynomial,
    Term,
    VariableSet,
    ev_make,
    format_certificate,
    format_recursive,
    print_poly,
)
from polycert.errors import DomainError

VARS = VariableSet(("x", "y"))
GRLEX = MonomialOrder.GRLEX
OUTSIDE = [0.5, 1.0, -1.0, Decimal("1"), Decimal("-1"), Decimal("2.5")]


def with_coeff(c):
    """3*x^2 + c*x: the coefficient outside the domain is not the leading one."""
    return Polynomial(GRLEX, (Term(ev_make((2, 0)), 3), Term(ev_make((1, 0)), c)))


@pytest.mark.parametrize("c", OUTSIDE)
def test_print_poly_rejects_a_coefficient_outside_the_domain(c):
    with pytest.raises(DomainError, match="is neither an int nor a Fraction"):
        print_poly(with_coeff(c), VARS)


@pytest.mark.parametrize("c", OUTSIDE)
def test_format_certificate_rejects_a_coefficient_outside_the_domain(c):
    one = Polynomial(GRLEX, (Term(ev_make((0, 0)), 1),))
    for f, lam in ((with_coeff(c), one), (with_coeff(3), with_coeff(c))):
        cert = Certificate(VARS, GRLEX, f, ((lam, with_coeff(3)),))
        with pytest.raises(DomainError):
            format_certificate(cert)


@pytest.mark.parametrize("c", OUTSIDE)
def test_format_recursive_rejects_a_coefficient_outside_the_domain(c):
    for r in (Const(c), Node("x", ((2, Const(3)), (1, Const(c))))):
        with pytest.raises(DomainError, match="is neither an int nor a Fraction"):
            format_recursive(r)


def test_int_and_fraction_coefficients_still_print():
    assert print_poly(with_coeff(1), VARS) == "3*x^2 + x"
    assert print_poly(with_coeff(Fraction(-1, 2)), VARS) == "3*x^2 - 1/2*x"
    assert format_recursive(Node("x", ((1, Const(Fraction(2, 3))),))) == "(x,(1,2/3))"
