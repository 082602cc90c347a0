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

Univariate division lives here too, on int or Fraction coefficients.
Pseudo-division, lc(g)^d * f = q*g + r with d = max(deg f - deg g + 1, 0),
multiplies f by lc(g)^d once and divides by g with exact quotients by lc(g):
q and r are the unique ones over Q, and both are integral.  Division over a
field divides that q and r by lc(g)^d.

A node may use the anonymous variable (``var=None``) at the outermost level
only, for univariate polynomials in an unspecified variable; its
coefficients must be constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from heapq import heappop, heappush
from typing import Optional, Union

from .errors import DimensionError, DomainError, FormatError, StructureError
from .monomial import MonomialOrder, VariableSet, ev_make, num_repr
from .poly import Coefficient, Polynomial, Term, check_coefficients, poly_from_terms
from .textio import format_coeff, print_poly


class RecursionMode(Enum):
    DENSE_IN_VARIABLES = "dense"
    SPARSE_IN_VARIABLES = "sparse"


@dataclass(frozen=True)
class Const:
    value: Coefficient

    def __repr__(self) -> str:  # the dataclass repr, digit-safe
        return f"Const(value={num_repr(self.value)})"


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
        # the anonymous variable: after every named one, outermost only
        anonymous = node.var is None
        idx = len(varset) if anonymous else varset.index(node.var)
        if idx <= min_index or anonymous and min_index != -1:
            return False
        return _pairs_sorted(node.pairs) and all(
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
    """Convert a distributed polynomial to recursive form.  Raises
    :class:`DimensionError` unless every term has ``len(varset)`` exponents,
    and :func:`check_coefficients`' error."""
    entries = [(t.degrees.exponents, t.coeff) for t in p.terms]
    if dims := {len(e) for e, _ in entries} - {len(varset)}:
        raise DimensionError(f"expected {len(varset)} exponents, got {dims.pop()}")
    check_coefficients([c for _, c in entries])

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
        if isinstance(node, Const):  # poly_from_terms checks it, and drops a 0
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
    """The variable of a constant (None) or of a node of constants, and its
    nonzero (exponent, coefficient) pairs; each coefficient an int or a Fraction."""
    var, pairs = (None, [(0, r)]) if isinstance(r, Const) else (r.var, r.pairs)
    if not all(isinstance(c, Const) for _, c in pairs):
        raise DomainError("division requires univariate input")
    check_coefficients([c.value for _, c in pairs])
    return var, [(e, c.value) for e, c in pairs if c.value != 0]


def _rebuild(var: Optional[str], pairs) -> RecursivePoly:
    pairs = [(e, c) for e, c in pairs if c != 0]
    if not pairs:
        return Const(0)
    if len(pairs) == 1 and pairs[0][0] == 0:
        return Const(pairs[0][1])
    return univariate(var, pairs)


def univ_divide(f: RecursivePoly, g: RecursivePoly):
    """Division with remainder over a field: f = q*g + r, deg r < deg g; the
    q and r of :func:`univ_pseudo_divide` over lc(g)**d, as Fractions."""
    *results, d = univ_pseudo_divide(f, g)
    scale = _as_univariate(g)[1][0][1] ** d
    return tuple(
        _rebuild(var, [(e, Fraction(c, scale)) for e, c in pairs])
        for var, pairs in map(_as_univariate, results)
    )


def univ_pseudo_divide(f: RecursivePoly, g: RecursivePoly):
    """Pseudo-division over an integral domain.

    Returns (q, r, d) with lc(g)**d * f = q*g + r, deg r < deg g and
    d = max(deg f - deg g + 1, 0).
    """
    (vf, pf), (vg, pg) = _as_univariate(f), _as_univariate(g)
    if vf is not None and vg is not None and vf != vg:
        raise DomainError(f"different main variables: {vf} vs {vg}")
    var = vf if vf is not None else vg
    if not pg:
        raise ZeroDivisionError("division by the zero polynomial")
    (dg, lg), tail = pg[0], pg[1:]
    delta = max(pf[0][0] - dg + 1, 0) if pf else 0
    scale, whole, q = lg**delta, isinstance(lg, int), []
    rem = {e: scale * c for e, c in pf}  # lc(g)^d * f, then what is left of it
    heap = [-e for e, _ in pf]  # rem's keys, negated: ascending, so a heap
    while heap and -heap[0] >= dg:
        e = -heappop(heap)
        if c := rem.pop(e):
            c = c // lg if whole and isinstance(c, int) else c / lg  # exact: q is integral
            q.append((e - dg, c))
            for eg, cg in tail:
                k = e - dg + eg
                if k not in rem:
                    heappush(heap, -k)
                rem[k] = rem.get(k, 0) - c * cg or 0  # a sum of 0 restarts as the int 0
    return _rebuild(var, q), _rebuild(var, rem.items()), delta
