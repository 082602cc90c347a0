"""Recursive polynomial representation R[x][y][z]... and univariate division.

A recursive polynomial is either a constant or a node: a main variable with
a strictly exponent-decreasing list of (exponent, coefficient) pairs whose
coefficients are recursive polynomials in strictly less significant
variables.  The ambient :class:`VariableSet` precedence decides the main
variable globally, which is what keeps nesting well-formed (no polynomials
in y whose coefficients involve y again).

Conversion from distributed form comes in two flavours:

* ``sparse_in_variables``: variables absent from a coefficient are skipped;
  a bare constant stays a constant.
* ``dense_in_variables``: every remaining ambient variable is threaded,
  wrapping constants as (x, (0, const)) all the way down.

The printed nesting is the classic list form, e.g. x^3 - 2x prints as
``(x,(3,1),(1,-2))``.

Univariate division lives here too: exact division with remainder over a
field, and pseudo-division over an integral domain satisfying
lc(g)^d * f = q*g + r with d = max(deg f - deg g + 1, 0).

A node may use the anonymous variable (``var=None``) at the outermost level
only, for univariate polynomials in an unspecified variable; its
coefficients must be constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Union

from .errors import DomainError, FormatError, StructureError
from .monomial import MonomialOrder, VariableSet, ev_make
from .poly import Coefficient, Polynomial, Term, poly_from_terms
from .textio import format_coeff, print_poly


class RecursionMode(Enum):
    DENSE_IN_VARIABLES = "dense"
    SPARSE_IN_VARIABLES = "sparse"


@dataclass(frozen=True)
class Const:
    value: Coefficient


@dataclass(frozen=True)
class Node:
    var: Optional[str]  # None = anonymous variable, outermost level only
    pairs: tuple[tuple[int, "RecursivePoly"], ...]


RecursivePoly = Union[Const, Node]


def is_well_formed(r: RecursivePoly, varset: VariableSet) -> bool:
    """Variable precedence must strictly increase down every path."""

    def walk(node: RecursivePoly, min_index: int) -> bool:
        if isinstance(node, Const):
            return True
        if node.var is None:
            # anonymous form: outermost only, constant coefficients
            if min_index != -1:
                return False
            return (
                _pairs_sorted(node.pairs)
                and all(isinstance(c, Const) for _, c in node.pairs)
                and all(not _is_zero(c) for _, c in node.pairs)
            )
        idx = varset.index(node.var)
        if idx <= min_index:
            return False
        if not _pairs_sorted(node.pairs):
            return False
        return all(
            not _is_zero(c) and walk(c, idx) for _, c in node.pairs
        )

    return walk(r, -1)


def _pairs_sorted(pairs) -> bool:
    if not pairs:
        return False
    exps = [e for e, _ in pairs]
    return all(a > b for a, b in zip(exps, exps[1:])) and all(e >= 0 for e in exps)


def _is_zero(r: RecursivePoly) -> bool:
    return isinstance(r, Const) and r.value == 0


def format_recursive(r: RecursivePoly) -> str:
    """Classic nested-list notation, e.g. (z,(2,(y,(2,1),(0,2))),(0,(y,(1,3),(0,4))))."""
    if isinstance(r, Const):
        return format_coeff(r.value)
    name = r.var if r.var is not None else "_"
    inner = ",".join(f"({format_coeff(e)},{format_recursive(c)})" for e, c in r.pairs)
    return f"({name},{inner})"


def to_recursive(
    p: Polynomial, varset: VariableSet, mode: RecursionMode
) -> RecursivePoly:
    """Convert a distributed polynomial to recursive form."""
    entries = [(t.degrees.exponents, t.coeff) for t in p.terms]

    def build(entries, vi: int) -> RecursivePoly:
        if not entries:
            return Const(0)
        if mode is RecursionMode.SPARSE_IN_VARIABLES:
            # skip variables with exponent 0 throughout
            while vi < len(varset.names) and all(e[vi] == 0 for e, _ in entries):
                vi += 1
        if vi == len(varset.names):
            if len(entries) > 1:  # every variable read: one monomial
                mono = Polynomial(p.order, (Term(ev_make(entries[0][0]), 1),))
                raise FormatError(f"repeated monomial {print_poly(mono, varset)}")
            return Const(entries[0][1])
        groups: dict[int, list] = {}
        for e, c in entries:
            groups.setdefault(e[vi], []).append((e, c))
        pairs = tuple(
            (exp, build(groups[exp], vi + 1)) for exp in sorted(groups, reverse=True)
        )
        return Node(varset.names[vi], pairs)

    return build(entries, 0)


def to_distributed(
    r: RecursivePoly, varset: VariableSet, order: MonomialOrder
) -> Polynomial:
    """Convert a recursive polynomial back to distributed form."""
    if not is_well_formed(r, varset) and not _is_zero(r):
        raise StructureError(f"malformed recursive nesting: {format_recursive(r)}")
    n = len(varset.names)
    terms: list[tuple] = []

    def walk(node: RecursivePoly, exps: list[int]) -> None:
        if isinstance(node, Const):
            if node.value != 0:
                terms.append((ev_make(tuple(exps)), node.value))
            return
        if node.var is None:
            raise StructureError("anonymous variable cannot be distributed")
        idx = varset.index(node.var)
        for e, c in node.pairs:
            exps[idx] = e
            walk(c, exps)
            exps[idx] = 0

    walk(r, [0] * n)
    return poly_from_terms(order, terms)


# -- univariate division -----------------------------------------------------


def univariate(var: Optional[str], pairs) -> Node:
    """Build a univariate node from (exponent, coefficient) pairs."""
    cleaned = sorted(((e, c) for e, c in pairs if c != 0), reverse=True)
    return Node(var, tuple((e, Const(c)) for e, c in cleaned))


def _as_univariate(r: RecursivePoly) -> tuple[Optional[str], list[tuple[int, Coefficient]]]:
    if isinstance(r, Const):
        return None, ([] if r.value == 0 else [(0, r.value)])
    pairs = []
    for e, c in r.pairs:
        if not isinstance(c, Const):
            raise DomainError("division requires univariate input")
        if c.value != 0:
            pairs.append((e, c.value))
    return r.var, pairs


def _check_same_var(f: RecursivePoly, g: RecursivePoly):
    vf, pf = _as_univariate(f)
    vg, pg = _as_univariate(g)
    if vf is not None and vg is not None and vf != vg:
        raise DomainError(f"different main variables: {vf} vs {vg}")
    return vf if vf is not None else vg, pf, pg


def _rebuild(var: Optional[str], pairs) -> RecursivePoly:
    pairs = [(e, c) for e, c in pairs if c != 0]
    if not pairs:
        return Const(0)
    if len(pairs) == 1 and pairs[0][0] == 0:
        return Const(pairs[0][1])
    return univariate(var, pairs)


def _sub_scaled(a, b, c, shift):
    """a - c * x^shift * b on (exp, coeff) dict form."""
    d = dict(a)
    for e, bc in b:
        key = e + shift
        d[key] = d.get(key, 0) - c * bc
        if d[key] == 0:
            del d[key]
    return sorted(d.items(), reverse=True)


def univ_divide(f: RecursivePoly, g: RecursivePoly):
    """Division with remainder over a field: f = q*g + r, deg r < deg g."""
    var, pf, pg = _check_same_var(f, g)
    if not pg:
        raise ZeroDivisionError("division by the zero polynomial")
    pf = [(e, Fraction(c)) for e, c in pf]
    dg, lg = pg[0][0], Fraction(pg[0][1])
    pg_f = [(e, Fraction(c)) for e, c in pg]
    q: list[tuple[int, Fraction]] = []
    r = pf
    while r and r[0][0] >= dg:
        factor = r[0][1] / lg
        shift = r[0][0] - dg
        q.append((shift, factor))
        r = _sub_scaled(r, pg_f, factor, shift)
    return _rebuild(var, q), _rebuild(var, r)


def univ_pseudo_divide(f: RecursivePoly, g: RecursivePoly):
    """Pseudo-division over an integral domain.

    Returns (q, r, d) with lc(g)**d * f = q*g + r, deg r < deg g and
    d = max(deg f - deg g + 1, 0).
    """
    var, pf, pg = _check_same_var(f, g)
    if not pg:
        raise ZeroDivisionError("pseudo-division by the zero polynomial")
    dg, lg = pg[0][0], pg[0][1]
    df = pf[0][0] if pf else 0
    delta = max(df - dg + 1, 0) if pf else 0
    steps: list[tuple[int, Coefficient]] = []  # (shift, lc(r)) per step
    r = list(pf)
    while r and r[0][0] >= dg:
        lr, dr = r[0][1], r[0][0]
        steps.append((dr - dg, lr))
        # scale r by lc(g), then cancel the head
        r = [(e, lg * c) for e, c in r]
        r = _sub_scaled(r, pg, lr, dr - dg)
    # pad so the identity uses exactly lc(g)**delta
    pad = lg ** (delta - len(steps))
    r = [(e, pad * c) for e, c in r]
    # step k's quotient term would have been scaled by lc(g) at each later
    # step and by the pad: lc(g)**(delta-1-k), built from the last step back
    q = []
    for shift, lr in reversed(steps):
        q.append((shift, pad * lr))
        pad *= lg
    return _rebuild(var, q), _rebuild(var, r), delta
