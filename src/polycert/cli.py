"""Command-line front end.

Subcommands::

    verify   check a certificate file; exit 0 valid, 1 invalid, 2 bad input,
             3 internal error (any subcommand)
    mul      multiply two polynomial files (naive or heap engine)
    add      add two polynomial files
    convert  reprint a polynomial, distributed or recursive (dense/sparse)
    stats    run verify or mul under instrumentation and report counters

``verify`` prints only the verdict and the witness, so it runs the
verifier's uncounted :func:`~polycert.verifier.find_witness`; ``stats``
counts.

Polynomial files contain one expression in the textio grammar; variables
and order come from --vars/--order flags.  Flags that conflict (``stats
--cert`` with ``--mul``, ``mul --geobucket`` with ``--engine naive``) and an
empty name in --vars are bad input.  Certificate files carry their
own header.  Output is canonical descending text, so runs are byte-exact.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from dataclasses import asdict

from . import poly, textio
from .counters import count_ops
from .errors import FormatError, KernelError
from .geobucket import GbRoute, Geobucket, mul_heap_gb
from .heapmul import mul_heap
from .monomial import MonomialOrder, VariableSet
from .recursive import RecursionMode, format_recursive, to_recursive
from .verifier import ScanDirection, find_witness, verify

_ORDER_NAMES = sorted(o.value for o in MonomialOrder)
_DIRECTIONS = [d.value for d in ScanDirection]
_MODES = [m.value for m in RecursionMode]


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="polycert",
        description="Sparse polynomial arithmetic and certificate verification.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def poly_flags(p):
        p.add_argument("--vars", required=True, help="comma-separated variable names")
        p.add_argument("--order", default="grlex", choices=_ORDER_NAMES)
        p.add_argument("--output", default=None, help="output file (default stdout)")

    v = sub.add_parser("verify", help="verify a cofactor certificate")
    v.add_argument("--cert", required=True)
    v.add_argument("--direction", default="max", choices=_DIRECTIONS)

    m = sub.add_parser("mul", help="multiply two polynomials")
    poly_flags(m)
    m.add_argument("--engine", default="heap", choices=["naive", "heap"])
    m.add_argument(
        "--route", default="convert", choices=[r.value for r in GbRoute],
        help="geobucket route when the second input is accumulated",
    )
    m.add_argument("--geobucket", action="store_true",
                   help="accumulate the second input into a geobucket and use --route")
    m.add_argument("inputs", nargs=2)

    a = sub.add_parser("add", help="add two polynomials")
    poly_flags(a)
    a.add_argument("inputs", nargs=2)

    c = sub.add_parser("convert", help="convert between representations")
    poly_flags(c)
    c.add_argument("--to", dest="target", default="distributed",
                   choices=["distributed", "recursive"])
    c.add_argument("--mode", default="sparse", choices=_MODES)
    c.add_argument("inputs", nargs=1)

    s = sub.add_parser("stats", help="instrumented run with a counter report")
    s.add_argument("--cert", default=None, help="certificate to verify")
    s.add_argument("--mul", nargs=2, default=None, metavar="POLY",
                   help="two polynomial files to multiply (heap engine)")
    s.add_argument("--vars", default=None)
    s.add_argument("--order", default="grlex", choices=_ORDER_NAMES)
    s.add_argument("--direction", default="max", choices=_DIRECTIONS)
    s.add_argument("--format", default="text", choices=["text", "csv"])
    s.add_argument("--output", default=None)
    return ap


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as e:
            raise FormatError(f"{path}: not UTF-8 at byte {e.start}") from None


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_polys(paths: list[str], args):
    varset = VariableSet(tuple(args.vars.split(",")))
    order = MonomialOrder(args.order)
    return [textio.parse_poly(_read(p), varset, order) for p in paths], varset, order


def _witness_line(witness, varset) -> str:
    ev, coeff = witness
    mono = textio.print_poly(
        poly.Polynomial(MonomialOrder.LEX, (poly.Term(ev, 1),)), varset
    )
    return f"witness: {mono} {textio.format_coeff(coeff)}\n"


def _report(command: str, n_inputs: int, counters, peak: int, fmt: str) -> str:
    """One record with every counter, as ``name: value`` lines or csv."""
    record = {"command": command, "n_inputs": n_inputs, **asdict(counters), "peak_terms": peak}
    if fmt == "csv":
        return f"{','.join(record)}\n{','.join(map(str, record.values()))}\n"
    return "".join(f"{name}: {value}\n" for name, value in record.items())


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return _dispatch(args)
    except (KernelError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except Exception as e:
        traceback.print_exc()
        sys.stderr.write(f"internal error: {type(e).__name__}: {e}\n")
        return 3


def _dispatch(args) -> int:
    if args.command == "verify":
        cert = textio.parse_certificate(_read(args.cert))
        witness = find_witness(cert, ScanDirection(args.direction))
        if witness is None:
            sys.stdout.write("valid\n")
            return 0
        sys.stdout.write("invalid\n")
        sys.stdout.write(_witness_line(witness, cert.varset))
        return 1

    if args.command == "mul":
        if args.geobucket and args.engine == "naive":
            sys.stderr.write("error: --geobucket needs the heap engine\n")
            return 2
        (p, q), varset, order = _load_polys(args.inputs, args)
        if args.engine == "naive":
            prod = poly.mul_naive(p, q)
        elif args.geobucket:
            gb = Geobucket(order)
            gb.add(q)
            prod = mul_heap_gb(p, gb, args.route)
        else:
            prod = mul_heap(p, q)
        _emit(textio.print_poly(prod, varset) + "\n", args.output)
        return 0

    if args.command == "add":
        (p, q), varset, _ = _load_polys(args.inputs, args)
        _emit(textio.print_poly(poly.add(p, q), varset) + "\n", args.output)
        return 0

    if args.command == "convert":
        (p,), varset, _ = _load_polys(args.inputs, args)
        if args.target == "distributed":
            _emit(textio.print_poly(p, varset) + "\n", args.output)
        else:
            r = to_recursive(p, varset, RecursionMode(args.mode))
            _emit(format_recursive(r) + "\n", args.output)
        return 0

    # stats
    if args.cert is not None and args.mul is not None:
        sys.stderr.write("error: stats takes --cert or --mul, not both\n")
        return 2
    if args.cert is not None:
        cert = textio.parse_certificate(_read(args.cert))
        result = verify(cert, ScanDirection(args.direction))
        n_inputs = 1 + 2 * len(cert.pairs)
        _emit(
            _report("verify", n_inputs, result.stats.counters,
                    result.stats.peak_terms, args.format),
            args.output,
        )
        return 0
    if args.mul is not None:
        if not args.vars:
            sys.stderr.write("error: stats --mul requires --vars\n")
            return 2
        (p, q), _, _ = _load_polys(args.mul, args)
        with count_ops() as counters:
            prod = mul_heap(p, q)
        peak = poly.term_count(p) + poly.term_count(q) + poly.term_count(prod)
        _emit(_report("mul", 2, counters, peak, args.format), args.output)
        return 0
    sys.stderr.write("error: stats needs --cert or --mul\n")
    return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
