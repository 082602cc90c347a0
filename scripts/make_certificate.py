#!/usr/bin/env python3
"""Generate a random cofactor certificate file for CLI experiments.

Builds random cofactor/generator pairs, sets f to their exact combination
(so the certificate is valid), and optionally perturbs one coefficient of f
to produce an invalid certificate.  With ``--den N`` every cofactor
coefficient is divided by N, so the cofactors are rational over one shared
denominator (the case the merge runs on integer numerators):

    python3 scripts/make_certificate.py --den 7 --pairs 4 --output cert.txt
"""

import argparse
import random
import sys
from fractions import Fraction

from polycert import (
    Certificate,
    MonomialOrder,
    Term,
    VariableSet,
    add,
    format_certificate,
    mul_naive,
    poly_from_terms,
    ev_make,
    zero,
)


def random_poly(rng, order, n, nvars, den=1):
    pairs = [
        (ev_make(tuple(rng.randrange(6) for _ in range(nvars))), rng.choice([-3, -2, -1, 1, 2, 3]))
        for _ in range(n)
    ]
    if den != 1:
        pairs = [(ev, Fraction(c, den)) for ev, c in pairs]
    return poly_from_terms(order, pairs)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--vars", default="x,y,z")
    ap.add_argument("--order", default="grlex", choices=[o.value for o in MonomialOrder])
    ap.add_argument("--pairs", type=int, default=3)
    ap.add_argument("--terms", type=int, default=4, help="terms per cofactor/generator")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--den", type=int, default=1,
                    help="shared denominator of the cofactor coefficients (>= 1)")
    ap.add_argument("--corrupt", action="store_true", help="perturb one coefficient of f")
    ap.add_argument("--output", default=None)
    args = ap.parse_args()
    if args.den < 1:
        ap.error("--den must be >= 1")

    rng = random.Random(args.seed)
    vs = VariableSet(tuple(args.vars.split(",")))
    order = MonomialOrder(args.order)
    pairs = tuple(
        (
            random_poly(rng, order, args.terms, len(vs), args.den),
            random_poly(rng, order, args.terms, len(vs)),
        )
        for _ in range(args.pairs)
    )
    f = zero(order)
    for lam, g in pairs:
        f = add(f, mul_naive(lam, g))
    if args.corrupt and f.terms:
        k = rng.randrange(len(f.terms))
        terms = list(f.terms)
        terms[k] = Term(terms[k].degrees, terms[k].coeff + 1)
        f = poly_from_terms(order, [(t.degrees, t.coeff) for t in terms])
    text = format_certificate(Certificate(vs, order, f, pairs))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
