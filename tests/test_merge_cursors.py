"""The merge loop where chains tie and streams end.

Each pair (a_k, b_k) seeds one stream a_k[i] * b_k per term of a_k.  On the
seeded inputs below, in every order and both scan directions, several
streams meet at one key and at least one of them takes its last entry
there, so a chain holds both a stream that goes on and one that ends.  The
outputs and every ``OpCounters`` field of a whole and an abandoned
``merge_products``, of ``verify`` both ways and of ``combine`` are pinned;
the figures were recorded before the loop walked its streams with cursors.
"""

import random
from dataclasses import astuple
from itertools import islice

import pytest

from polycert import (
    Certificate,
    MonomialOrder,
    ScanDirection,
    Term,
    VariableSet,
    add,
    combine,
    count_ops,
    mul_naive,
    poly_from_terms,
    verify,
    zero,
)
from polycert.heapmul import merge_products

from conftest import ORDERS, random_poly

XYZ = VariableSet(("x", "y", "z"))


def tied_pairs(order):
    """Four pairs of 3-variable polynomials with exponents at most 2: few
    monomials, so products collide often."""
    rng = random.Random(1974)
    return [(random_poly(rng, order, 4, nvars=3, max_exp=2),
             random_poly(rng, order, 5, nvars=3, max_exp=2)) for _ in range(4)]


def product_sum(order, pairs):
    acc = zero(order)
    for a, b in pairs:
        acc = add(acc, mul_naive(a, b))
    return acc


def exps(terms):
    return [(ev.exponents, c) for ev, c in terms]


# order -> case -> (output, OpCounters as a tuple); an output is the first
# three merge terms, or a verdict with its witness
PINNED = {
    MonomialOrder.LEX: {
        "merge max": ([((4, 2, 4), -6), ((4, 2, 2), 2), ((4, 1, 4), -9)],
                      (171, 22, 68, 68, 16)),
        "merge max first 3": ([((4, 2, 4), -6), ((4, 2, 2), 2), ((4, 1, 4), -9)],
                              (38, 1, 4, 4, 16)),
        "verify max valid": ((True, None),
                             (172, 67, 113, 113, 17)),
        "verify max invalid": ((False, ((2, 0, 3), -1)),
                               (121, 37, 61, 61, 17)),
        "merge min": ([((0, 1, 3), -6), ((0, 2, 0), 2), ((0, 2, 1), -6)],
                      (197, 22, 68, 68, 16)),
        "merge min first 3": ([((0, 1, 3), -6), ((0, 2, 0), 2), ((0, 2, 1), -6)],
                              (42, 0, 3, 3, 16)),
        "verify min valid": ((True, None),
                             (197, 67, 113, 113, 17)),
        "verify min invalid": ((False, ((2, 0, 3), -1)),
                               (132, 31, 54, 54, 17)),
        "combine": ([((4, 2, 4), -6), ((4, 2, 2), 2), ((4, 1, 4), -9)],
                  (171, 22, 68, 68, 16)),
    },
    MonomialOrder.GRLEX: {
        "merge max": ([((4, 2, 4), -6), ((4, 1, 4), -9), ((3, 3, 3), -2)],
                      (178, 22, 68, 68, 16)),
        "merge max first 3": ([((4, 2, 4), -6), ((4, 1, 4), -9), ((3, 3, 3), -2)],
                              (32, 0, 3, 3, 16)),
        "verify max valid": ((True, None),
                             (178, 67, 113, 113, 17)),
        "verify max invalid": ((False, ((0, 3, 3), -1)),
                               (121, 36, 60, 60, 17)),
        "merge min": ([((0, 2, 0), 2), ((0, 2, 1), -6), ((0, 1, 3), -6)],
                      (204, 22, 68, 68, 16)),
        "merge min first 3": ([((0, 2, 0), 2), ((0, 2, 1), -6), ((0, 1, 3), -6)],
                              (44, 0, 3, 3, 16)),
        "verify min valid": ((True, None),
                             (204, 67, 113, 113, 17)),
        "verify min invalid": ((False, ((0, 3, 3), -1)),
                               (138, 32, 55, 55, 17)),
        "combine": ([((4, 2, 4), -6), ((4, 1, 4), -9), ((3, 3, 3), -2)],
                  (178, 22, 68, 68, 16)),
    },
    MonomialOrder.GREVLEX: {
        "merge max": ([((4, 2, 4), -6), ((3, 3, 3), -2), ((4, 1, 4), -9)],
                      (174, 22, 68, 68, 16)),
        "merge max first 3": ([((4, 2, 4), -6), ((3, 3, 3), -2), ((4, 1, 4), -9)],
                              (33, 0, 3, 3, 16)),
        "verify max valid": ((True, None),
                             (174, 67, 113, 113, 17)),
        "verify max invalid": ((False, ((0, 3, 3), -1)),
                               (122, 36, 60, 60, 17)),
        "merge min": ([((0, 2, 0), 2), ((0, 2, 1), -6), ((0, 1, 3), -6)],
                      (198, 22, 68, 68, 16)),
        "merge min first 3": ([((0, 2, 0), 2), ((0, 2, 1), -6), ((0, 1, 3), -6)],
                              (44, 0, 3, 3, 16)),
        "verify min valid": ((True, None),
                             (198, 67, 113, 113, 17)),
        "verify min invalid": ((False, ((0, 3, 3), -1)),
                               (133, 32, 55, 55, 17)),
        "combine": ([((4, 2, 4), -6), ((3, 3, 3), -2), ((4, 1, 4), -9)],
                  (174, 22, 68, 68, 16)),
    },
}


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("descending", [True, False])
def test_a_stream_ends_inside_a_chain(order, descending):
    pairs = tied_pairs(order)
    chains = {}  # monomial -> whether each entry at it is its stream's last
    for a, b in pairs:
        last = b.terms[-1 if descending else 0].degrees.exponents
        for s in a.terms:
            for t in b.terms:
                ev = tuple(map(sum, zip(s.degrees.exponents, t.degrees.exponents)))
                chains.setdefault(ev, []).append(t.degrees.exponents == last)
    assert any(len(c) > 1 and any(c) and not all(c) for c in chains.values())


def counted(fn):
    with count_ops() as c:
        out = fn()
    return out, astuple(c)


def cases(order):
    pairs = tied_pairs(order)
    f = product_sum(order, pairs)
    cert = Certificate(XYZ, order, f, tuple((b, a) for a, b in pairs))
    mid = len(f.terms) // 2
    bad_terms = list(f.terms)
    bad_terms[mid] = Term(bad_terms[mid].degrees, bad_terms[mid].coeff + 1)
    bad_f = poly_from_terms(order, [(t.degrees, t.coeff) for t in bad_terms])
    bad = Certificate(XYZ, order, bad_f, cert.pairs)
    got = {}
    for descending in (True, False):
        scan = "max" if descending else "min"
        whole, counts = counted(lambda: list(merge_products(pairs, order, descending)))
        assert whole == [(t.degrees, t.coeff) for t in f.terms[:: 1 if descending else -1]]
        got[f"merge {scan}"] = (exps(whole[:3]), counts)
        first, counts = counted(lambda: list(islice(merge_products(pairs, order, descending), 3)))
        assert first == whole[:3]
        got[f"merge {scan} first 3"] = (exps(first), counts)
        for name, c in (("valid", cert), ("invalid", bad)):
            res = verify(c, ScanDirection(scan))
            w = res.witness and (res.witness[0].exponents, res.witness[1])
            got[f"verify {scan} {name}"] = ((res.valid, w), astuple(res.stats.counters))
    combined, counts = counted(lambda: combine(cert))
    assert combined == f
    got["combine"] = (exps((t.degrees, t.coeff) for t in f.terms[:3]), counts)
    return got


@pytest.mark.parametrize("order", ORDERS)
def test_outputs_and_counters_pinned(order):
    assert cases(order) == PINNED[order]
