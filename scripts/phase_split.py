#!/usr/bin/env python3
"""Time the phases of verifying a perfbench pool's certificates, and of
multiplying and printing its products.

It builds the seeded ``verify`` and ``mul`` pools through
``perfbench/gen.py`` in memory (reading nothing from disk and writing
nothing under ``perfbench/``), takes the ``verify`` pool's direct verify
ops (those not run through the CLI), and times six phases, each as one pass
over those ops:

- ``parse_s``: ``parse_certificate`` of each distinct certificate text
- ``setup_s``: the merge set-up of each op (``verifier._checked_sources``)
- ``setup_max_s``, ``setup_min_s``: that set-up of every op max-first, or
  every op min-first
- ``verify_s``: the counted ``verify`` of each op
- ``find_witness_s``: the uncounted ``find_witness`` of each op

It takes the ``mul`` pool's direct ``mul`` ops too, their factors parsed
once, and times three more phases:

- ``mul_heap_s``: the ``mul_heap`` product of each op, outside any counter
  scope, where a dict sums each product
- ``mul_heap_counted_s``: the same products inside one ``count_ops`` scope,
  where the heap merges them with its counts
- ``print_s``: ``print_poly`` of each op's product, each made once

and the ``mul`` pool's direct ``bigcoeff`` verify ops, whose certificates
have rational cofactors, and times two more:

- ``rational_parse_s``: ``parse_certificate`` of each distinct certificate
  text
- ``rational_find_witness_s``: ``find_witness`` of each op on a certificate
  parsed afresh (parsed outside the timed call), so no section's terms were
  built before it

The phases take turns, one pass each per round, and each figure is the best
of ``--repeat`` rounds, in seconds.  The script prints one JSON line:

    python3 scripts/phase_split.py [--seed 1] [--repeat 7] [--ops N]

``--ops N`` keeps the first N direct verify ops, the first N direct
``mul`` ops and the first N direct ``bigcoeff`` verify ops only.  It
imports ``polycert`` from the ``src`` directory next to it.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(ROOT / "perfbench"))
sys.dont_write_bytecode = True  # the pool's modules are imported, never cached

import gen  # noqa: E402
from polycert import MonomialOrder, ScanDirection, VariableSet, count_ops  # noqa: E402
from polycert import find_witness, mul_heap, parse_certificate, parse_poly  # noqa: E402
from polycert import print_poly, verify  # noqa: E402
from polycert.verifier import _checked_sources  # noqa: E402


def timed(call) -> float:
    gc.collect()
    start = perf_counter()
    call()
    return perf_counter() - start


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1, help="pool seed (default 1)")
    ap.add_argument("--repeat", type=int, default=7, help="rounds, best kept (default 7)")
    ap.add_argument("--ops", type=int, default=None,
                    help="first N direct verify ops and N direct mul ops only")
    args = ap.parse_args()
    pool = gen.build("verify", args.seed)
    ops = [op for op in pool.ops if op.kind == "verify" and not op.cli][: args.ops]
    texts = {op.cert: pool.files[op.cert] for op in ops}
    certs = {name: parse_certificate(text) for name, text in texts.items()}
    jobs = [(certs[op.cert], ScanDirection(op.direction)) for op in ops]
    mul_pool = gen.build("mul", args.seed)
    mul_ops = [op for op in mul_pool.ops if op.kind == "mul" and not op.cli][: args.ops]
    factors = []
    for op in mul_ops:
        varset, order = VariableSet(op.names), MonomialOrder(op.order)
        p, q = (parse_poly(mul_pool.files[name], varset, order) for name in op.files)
        factors.append((p, q, varset))
    products = [(mul_heap(p, q), varset) for p, q, varset in factors]
    rational_ops = [op for op in mul_pool.ops if op.family == "bigcoeff"
                    and op.kind == "verify" and not op.cli][: args.ops]
    rational_texts = {op.cert: mul_pool.files[op.cert] for op in rational_ops}

    def parse():
        for text in texts.values():
            parse_certificate(text)

    def setup(descending=None):
        def run():
            for cert, direction in jobs:
                scan = direction is ScanDirection.MAX_FIRST if descending is None else descending
                _checked_sources(cert, scan, True)
        return run

    def counted():
        for cert, direction in jobs:
            verify(cert, direction)

    def uncounted():
        for cert, direction in jobs:
            find_witness(cert, direction)

    def rational_parse():
        for text in rational_texts.values():
            parse_certificate(text)

    def rational_find_witness():
        jobs = [(parse_certificate(rational_texts[op.cert]), ScanDirection(op.direction))
                for op in rational_ops]
        return lambda: [find_witness(cert, direction) for cert, direction in jobs]

    def multiply():
        for p, q, _ in factors:
            mul_heap(p, q)

    def multiply_counted():
        with count_ops():
            multiply()

    def printed():
        for prod, varset in products:
            print_poly(prod, varset)

    phases = {"parse_s": parse, "setup_s": setup(), "setup_max_s": setup(True),
              "setup_min_s": setup(False), "verify_s": counted, "find_witness_s": uncounted,
              "mul_heap_s": multiply, "mul_heap_counted_s": multiply_counted,
              "print_s": printed, "rational_parse_s": rational_parse,
              "rational_find_witness_s": rational_find_witness}
    fresh = {"rational_find_witness_s"}  # set up anew, untimed, before each pass
    best = dict.fromkeys(phases, float("inf"))
    for _ in range(args.repeat):
        for name, call in phases.items():
            best[name] = min(best[name], timed(call() if name in fresh else call))
    print(json.dumps({"seed": args.seed, "certificates": len(texts), "ops": len(jobs),
                      "mul_ops": len(factors), "rational_ops": len(rational_ops),
                      "repeat": args.repeat,
                      **{k: round(v, 4) for k, v in best.items()}}))


if __name__ == "__main__":
    main()
