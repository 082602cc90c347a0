"""Exact sparse polynomial arithmetic and cofactor-certificate verification.

Core pieces: sorted-term-list polynomials with instrumented merge addition,
geobucket accumulators, heap-merged sparse multiplication, recursive
representation with univariate (pseudo-)division, a streaming certificate
verifier, text formats, and a CLI.
"""

from .counters import OpCounters, count_ops
from .geobucket import GbRoute, Geobucket, gb_new, mul_heap_gb
from .heapmul import mul_heap
from .monomial import (
    ExponentVector,
    MonomialOrder,
    VariableSet,
    ev_add,
    ev_compare,
    ev_make,
)
from .poly import (
    Certificate,
    Polynomial,
    Term,
    add,
    leading_term,
    mul_naive,
    negate,
    poly_from_terms,
    read_naive,
    read_sorted,
    scale,
    term_count,
    zero,
)
from .recursive import (
    Const,
    Node,
    RecursionMode,
    format_recursive,
    to_distributed,
    to_recursive,
    univ_divide,
    univ_pseudo_divide,
)
from .textio import (
    format_certificate,
    parse_certificate,
    parse_poly,
    print_poly,
)
from .verifier import (
    ScanDirection,
    VerifyResult,
    combine,
    find_witness,
    verify,
    verify_naive,
)

__all__ = [
    "Certificate",
    "Const",
    "ExponentVector",
    "GbRoute",
    "Geobucket",
    "MonomialOrder",
    "Node",
    "OpCounters",
    "Polynomial",
    "RecursionMode",
    "ScanDirection",
    "Term",
    "VariableSet",
    "VerifyResult",
    "add",
    "combine",
    "count_ops",
    "ev_add",
    "ev_compare",
    "ev_make",
    "find_witness",
    "format_certificate",
    "format_recursive",
    "gb_new",
    "leading_term",
    "mul_heap",
    "mul_heap_gb",
    "mul_naive",
    "negate",
    "parse_certificate",
    "parse_poly",
    "poly_from_terms",
    "print_poly",
    "read_naive",
    "read_sorted",
    "scale",
    "term_count",
    "to_distributed",
    "to_recursive",
    "univ_divide",
    "univ_pseudo_divide",
    "verify",
    "verify_naive",
    "zero",
]
