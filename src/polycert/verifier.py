"""Certificate verification without product construction.

A certificate claims f = sum_i lambda_i * f_i.  Verification checks the
residual form 0 = (-1)*f + sum_i lambda_i * f_i with the stream-merge
engine of :mod:`polycert.heapmul`: each product contributes one stream per
f_i term (cursors walking lambda_i), (-1)*f joins as one more single
stream walking f, and one heap holds every stream.  No product is ever
materialized; at each extracted monomial the coefficients of every tied
stream entry are summed and tested for zero.  The first nonzero residual
monomial in scan direction is the witness, and the merge stops there.

``max_first`` scans from the greatest monomial down; ``min_first`` inverts
every comparison and walks the term lists from their trailing ends, which
finds an error faster when the discrepancy sits at the small end.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from . import poly
from .counters import OpCounters, count_ops
from .errors import CertificateFormatError
from .heapmul import _collect, merge_products
from .monomial import ExponentVector, MonomialOrder, VariableSet, ev_make
from .poly import Coefficient, Polynomial, Term


class ScanDirection(Enum):
    MAX_FIRST = "max"
    MIN_FIRST = "min"


@dataclass(frozen=True)
class Certificate:
    varset: VariableSet
    order: MonomialOrder
    f: Polynomial
    pairs: tuple[tuple[Polynomial, Polynomial], ...]  # (lambda_i, f_i)


@dataclass
class VerifyStats:
    counters: OpCounters
    peak_terms: int  # max simultaneously live terms: inputs + peak heap entries


@dataclass
class VerifyResult:
    valid: bool
    witness: Optional[tuple[ExponentVector, Coefficient]]
    stats: VerifyStats


def check_certificate(cert: Certificate) -> None:
    n = len(cert.varset)
    if not cert.pairs:
        raise CertificateFormatError("certificate needs at least one pair")
    for p in [cert.f] + [q for pair in cert.pairs for q in pair]:
        if p.order is not cert.order:
            raise CertificateFormatError("mixed monomial orders in certificate")
        for t in p.terms:
            if len(t.degrees.exponents) != n:
                raise CertificateFormatError("mixed dimensions in certificate")
        keys = [cert.order.key(t.degrees) for t in p.terms]  # tuple `<` ticks nothing
        if any(a <= b for a, b in zip(keys, keys[1:])):
            raise CertificateFormatError("certificate terms not strictly decreasing")


def verify(
    cert: Certificate, direction: ScanDirection = ScanDirection.MAX_FIRST
) -> VerifyResult:
    """Check 0 = (-1)f + sum lambda_i f_i by a single streaming merge."""
    check_certificate(cert)
    minus_one = Polynomial(cert.order, (Term(ev_make((0,) * len(cert.varset)), -1),))
    pairs = [(f_i, lam_i) for lam_i, f_i in cert.pairs] + [(minus_one, cert.f)]
    descending = direction is ScanDirection.MAX_FIRST
    with count_ops() as counters:
        # the first nonzero residual term is the witness; the merge stops there
        witness = next(merge_products(pairs, cert.order, descending), None)
    input_terms = len(cert.f.terms) + sum(
        len(lam.terms) + len(g.terms) for lam, g in cert.pairs
    )
    stats = VerifyStats(counters, input_terms + counters.heap_peak)
    return VerifyResult(witness is None, witness, stats)


def combine(cert: Certificate) -> Polynomial:
    """Materialize sum lambda_i f_i term by term, greatest monomial first."""
    check_certificate(cert)
    return _collect(cert.order, [(f_i, lam_i) for lam_i, f_i in cert.pairs])


def verify_naive(cert: Certificate) -> VerifyResult:
    """Oracle verification by plain arithmetic: materialize the residual."""
    check_certificate(cert)
    with count_ops() as counters:
        residual = poly.negate(cert.f)
        peak = len(residual.terms)
        for lam_i, f_i in cert.pairs:
            prod = poly.mul_naive(lam_i, f_i)
            peak = max(peak, len(residual.terms) + len(prod.terms))
            residual = poly.add(residual, prod)
    stats = VerifyStats(counters, peak)
    if residual.terms:
        lt = residual.terms[0]
        return VerifyResult(False, (lt.degrees, lt.coeff), stats)
    return VerifyResult(True, None, stats)
