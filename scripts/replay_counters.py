#!/usr/bin/env python3
"""Replay seeded kernel calls and print one digest of their outputs and counters.

For each seed it builds a random instance (1 to 4 variables, one of the three
orders, exponents small or up to 10**40, integer or rational coefficients)
and records, each in its own ``count_ops`` scope:

- ``poly_from_terms`` on an unsorted term list with duplicates
- ``mul_heap`` and the three ``mul_heap_gb`` routes
- ``verify`` max-first and min-first on a valid certificate and on one with a
  perturbed coefficient of f
- a min-first ``merge_products`` consumed for a few terms, then abandoned
- ``combine``

A record is the call's output in canonical form plus every ``OpCounters``
field.  Each ``verify`` record is also checked against an unscoped
``find_witness`` call, which must return the same witness.  Each ``verify``
and ``combine`` record is checked against the same call on its certificate
written by ``format_certificate`` and read back by ``parse_certificate``,
and on that text spaced by hand (``"  +  "`` for ``" + "``, ``" * "`` for
``"*"``, so that the general scan reads it), which must each give an equal
output and the same counters.  The text cannot hold a zero term of f, so
where f has one, the reference is the call on the certificate without it.
Each product record (``mul_heap``, ``mul_heap_gb``, ``combine``) is also
checked by ``print_poly``, which must write the same text for the product
as for a copy of it built term by term.
A mismatch stops the script with an ``AssertionError``.  The script prints
the record count and the SHA-256 digest of all records, so two checkouts
that print the same line agree on every output and every counter:

    python3 scripts/replay_counters.py [--seeds N]

It imports ``polycert`` from the ``src`` directory next to it.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
from dataclasses import astuple, replace
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from polycert import (  # noqa: E402
    Certificate,
    GbRoute,
    MonomialOrder,
    Polynomial,
    ScanDirection,
    Term,
    VariableSet,
    add,
    combine,
    count_ops,
    ev_make,
    find_witness,
    format_certificate,
    gb_new,
    mul_heap,
    mul_heap_gb,
    mul_naive,
    parse_certificate,
    print_poly,
    poly_from_terms,
    verify,
    zero,
)
from polycert.heapmul import merge_products  # noqa: E402

ORDERS = list(MonomialOrder)


def canonical(value) -> str:
    """A stable text form: polynomials as (exponents, coeff) tuples."""
    if hasattr(value, "terms"):
        return repr(tuple((t.degrees.exponents, t.coeff) for t in value.terms))
    if hasattr(value, "valid"):  # VerifyResult
        w = value.witness
        witness = None if w is None else (w[0].exponents, w[1])
        return repr((value.valid, witness, value.stats.peak_terms))
    if isinstance(value, list):  # merge terms
        return repr([(ev.exponents, c) for ev, c in value])
    return repr(value)


def random_terms(rng, nvars, n, max_exp, rational):
    terms = []
    for _ in range(n):
        ev = ev_make(tuple(rng.randrange(max_exp + 1) for _ in range(nvars)))
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        if rational:
            c = Fraction(c, rng.choice([1, 2, 3, 5]))
        terms.append((ev, c))
    return terms


def replay(seed: int):
    """Yield (name, output, counters) for one seeded instance."""
    rng = random.Random(seed)
    order = rng.choice(ORDERS)
    nvars = rng.randint(1, 4)
    max_exp = rng.choice([1, 3, 6, 30, 10**40])
    rational = rng.random() < 0.3

    def poly(n):
        return poly_from_terms(order, random_terms(rng, nvars, n, max_exp, rational))

    def scoped(name, call):
        with count_ops() as c:
            out = call()
        return name, out, c

    varset = VariableSet(tuple(f"x{v}" for v in range(nvars)))

    def printed_alike(record):
        """`record`, of a product, once printing its output writes the text
        of printing a copy of it built term by term."""
        out = record[1]
        text = print_poly(out, varset)
        copy = Polynomial(order, tuple(Term(ev_make(t.degrees.exponents), t.coeff)
                                       for t in out.terms))
        if text != print_poly(copy, varset):
            raise AssertionError(f"seed {seed}: {record[0]} prints unlike its copy")
        return record

    def parsed_alike(record, cert, call):
        """`record`, of ``call(cert)``, once `call` on `cert` read back from
        its text, and from that text spaced by hand, gives an equal output
        and the same counters."""
        text = format_certificate(cert)
        plain = replace(cert, f=Polynomial(order, tuple(t for t in cert.f.terms if t.coeff)))
        expected = record if plain == cert else scoped(record[0], lambda: call(plain))
        for spaced in (text, text.replace(" + ", "  +  ").replace("*", " * ")):
            back = parse_certificate(spaced)
            if back != plain or scoped(record[0], lambda: call(back))[1:] != expected[1:]:
                raise AssertionError(f"seed {seed}: the parsed certificate differs on {record[0]}")
        return record

    raw = random_terms(rng, nvars, rng.randint(0, 40), max_exp, rational)
    raw += raw[: len(raw) // 4]  # duplicates to combine
    rng.shuffle(raw)
    yield scoped("poly_from_terms", lambda: poly_from_terms(order, raw))

    f, g = poly(rng.randint(1, 25)), poly(rng.randint(1, 25))
    yield printed_alike(scoped("mul_heap", lambda: mul_heap(f, g)))
    parts = [poly(rng.randint(1, 12)) for _ in range(rng.randint(1, 8))]
    for route in GbRoute:
        gb = gb_new(order)
        for p in parts:
            gb.add(p)
        yield printed_alike(scoped(f"mul_heap_gb.{route.value}",
                                   lambda: mul_heap_gb(f, gb, route, hybrid_threshold=4)))

    pairs = tuple((poly(rng.randint(1, 6)), poly(rng.randint(1, 6)))
                  for _ in range(rng.randint(1, 5)))
    total = zero(order)
    for lam, fi in pairs:
        total = add(total, mul_naive(lam, fi))
    valid = Certificate(varset, order, total, pairs)
    bad = list(total.terms or poly(1).terms)
    if total.terms:
        k = rng.randrange(len(bad))
        bad[k] = Term(bad[k].degrees, bad[k].coeff + rng.choice([-1, 1]))
    corrupt = Certificate(varset, order, Polynomial(order, tuple(bad)), pairs)
    for label, cert in (("valid", valid), ("corrupt", corrupt)):
        for direction in ScanDirection:
            record = scoped(f"verify.{label}.{direction.value}",
                            lambda: verify(cert, direction))
            if find_witness(cert, direction) != record[1].witness:
                raise AssertionError(f"seed {seed}: find_witness is not {record[0]}")
            yield parsed_alike(record, cert, lambda c: verify(c, direction))

    stop = rng.randint(0, 5)

    def partial():
        it = merge_products([(b, a) for a, b in pairs], order, descending=False)
        return [term for _, term in zip(range(stop), it)]

    yield scoped("merge_products.partial", partial)
    yield printed_alike(parsed_alike(scoped("combine", lambda: combine(valid)), valid, combine))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=300, help="seeds 0..N-1 (default 300)")
    args = ap.parse_args()
    digest = hashlib.sha256()
    records = 0
    for seed in range(args.seeds):
        for name, out, counters in replay(seed):
            line = f"{seed} {name} {canonical(out)} {astuple(counters)}\n"
            digest.update(line.encode())
            records += 1
    print(f"{records} records sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
