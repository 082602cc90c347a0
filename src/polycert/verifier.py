"""Certificate verification without product construction.

A certificate claims f = sum_i lambda_i * f_i.  Verification checks the
residual form 0 = (-1)*f + sum_i lambda_i * f_i with the stream-merge
engine of :mod:`polycert.heapmul`: each product contributes one stream per
f_i term (cursors walking lambda_i), (-1)*f joins as one more single
stream walking f, and one heap holds every stream.  No product is ever
materialized; at each extracted monomial the coefficients of the stream
entries chained at it are summed and tested for zero.  The first nonzero
residual monomial in scan direction is the witness, and the merge stops there.

``max_first`` scans from the greatest monomial down; ``min_first`` inverts
every comparison and walks the term lists from their trailing ends, which
finds an error faster when the discrepancy sits at the small end.

A certificate is checked by the merge's set-up
(:func:`~polycert.heapmul.merge_sources`), which checks every polynomial it
is given, streamed or not: one order, one dimension, strictly decreasing
terms.  A polynomial that :func:`~polycert.textio.parse_certificate` read
as it stands, whether its text was canonical or not, keeps the keys its
parser packed, and the set-up takes them.
The verifier keeps only the certificate rules: at least one pair, and a
dimension of ``len(varset)``.  A malformed certificate raises
:class:`CertificateFormatError`; :func:`verify`, :func:`combine` and
:func:`verify_naive` share that check.  :func:`find_witness` is the check
and the merge alone and opens no counter scope, so run with none open it
counts nothing; :func:`verify` is that call inside :func:`count_ops`, and
returns the counts with the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from . import poly
from .counters import OpCounters, count_ops
from .errors import (
    CertificateFormatError, DimensionError, FormatError, OrderMismatchError,
)
from .heapmul import _set_up, collect, merge_streams
from .monomial import ExponentVector, ev_add, ev_make, num_repr
from .poly import Certificate, Coefficient, Polynomial, Term


class ScanDirection(Enum):
    MAX_FIRST = "max"
    MIN_FIRST = "min"


@dataclass
class VerifyStats:
    counters: OpCounters
    peak_terms: int  # max simultaneously live terms: inputs + peak live stream entries


@dataclass
class VerifyResult:
    valid: bool
    witness: Optional[tuple[ExponentVector, Coefficient]]
    stats: VerifyStats

    def __repr__(self) -> str:  # the dataclass repr, digit-safe
        w = self.witness and f"({self.witness[0]!r}, {num_repr(self.witness[1])})"
        return f"VerifyResult(valid={self.valid!r}, witness={w}, stats={self.stats!r})"


def _checked_sources(
    cert: Certificate, descending: bool, residual: bool
) -> tuple[list[list], int | None, int]:
    """Set up the merge of sum lambda_i f_i, with (-1)*f as its last source
    when `residual`, and its keys' shift; ``heapmul._set_up`` checks `cert`.

    The constant -1 is always given, so the dimension must be ``len(varset)``;
    unless `residual`, f is given beside an empty factor, checked but not
    streamed.  The set-up's errors become
    :class:`CertificateFormatError`, except a coefficient outside the
    domain (``DomainError``).
    """
    if not cert.pairs:
        raise CertificateFormatError("certificate needs at least one pair")
    zero = poly.zero(cert.order)
    minus_one = Polynomial(cert.order, (Term(ev_make((0,) * len(cert.varset)), -1),))
    pairs = [(f_i, lam_i) for lam_i, f_i in cert.pairs]
    pairs += [(minus_one, cert.f)] if residual else [(minus_one, zero), (cert.f, zero)]
    try:
        return _set_up(pairs, cert.order, descending)
    except OrderMismatchError:
        raise CertificateFormatError("mixed monomial orders in certificate") from None
    except DimensionError:
        raise CertificateFormatError("mixed dimensions in certificate") from None
    except FormatError:
        raise CertificateFormatError("certificate terms not strictly decreasing") from None


def find_witness(
    cert: Certificate, direction: ScanDirection = ScanDirection.MAX_FIRST
) -> Optional[tuple[ExponentVector, Coefficient]]:
    """The first nonzero term of (-1)f + sum lambda_i f_i in scan order, or
    None when the certificate holds.  Opens no counter scope, so with none
    open the merge sifts with C heapq and counts nothing."""
    setup = _checked_sources(cert, direction is ScanDirection.MAX_FIRST, True)[:2]
    # the first nonzero residual term is the witness; the merge stops there
    return next(((ev_add(da, db), c) for da, db, c in merge_streams(*setup)), None)


def verify(
    cert: Certificate, direction: ScanDirection = ScanDirection.MAX_FIRST
) -> VerifyResult:
    """Check 0 = (-1)f + sum lambda_i f_i by a single streaming merge, counted."""
    with count_ops() as counters:
        witness = find_witness(cert, direction)
    input_terms = poly.term_count(cert.f) + sum(
        poly.term_count(lam) + poly.term_count(g) for lam, g in cert.pairs
    )
    stats = VerifyStats(counters, input_terms + counters.heap_peak)
    return VerifyResult(witness is None, witness, stats)


def combine(cert: Certificate) -> Polynomial:
    """Materialize sum lambda_i f_i (:func:`~polycert.heapmul.collect`)."""
    return collect(cert.order, lambda descending: _checked_sources(cert, descending, False))


def verify_naive(cert: Certificate) -> VerifyResult:
    """Oracle verification by plain arithmetic: materialize the residual."""
    _checked_sources(cert, True, True)
    with count_ops() as counters:
        residual = poly.negate(cert.f)
        peak = len(residual.terms)
        for lam_i, f_i in cert.pairs:
            prod = poly.mul_naive(lam_i, f_i)
            peak = max(peak, len(residual.terms) + len(prod.terms))
            residual = poly.add(residual, prod)
    # -f keeps any zero coefficient of f where no product reaches it
    witness = next(((t.degrees, t.coeff) for t in residual.terms if t.coeff != 0), None)
    return VerifyResult(witness is None, witness, VerifyStats(counters, peak))
