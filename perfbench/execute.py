"""Running one op against polycert, and checking its outcome.

An op calls polycert's public functions in the order the CLI would, or, for
ops marked ``cli``, ``polycert.cli.main`` itself in process with stdout
captured.  Every call goes through the tracer, which in the untraced run
calls straight through.  Checking happens after the op, outside its time.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import sys

from gen import Op
from oracle import digest, pseudo_division_holds

CHUNK_TERMS = 8  # geobucket ops accumulate the second factor in 8-term chunks


class Lib:
    """polycert, imported afresh so that set-up time includes the import."""

    def __init__(self):
        for name in [m for m in sys.modules if m.split(".")[0] == "polycert"]:
            del sys.modules[name]
        self.pc = importlib.import_module("polycert")
        self.cli = importlib.import_module("polycert.cli")

    def prepare(self, op: Op) -> None:
        """Build an in-memory op's polycert inputs (pseudo-division ops)."""
        if op.kind == "pdiv":
            pc = self.pc
            order = pc.MonomialOrder(op.order)
            op.inputs = tuple(
                pc.poly_from_terms(order, [(pc.ev_make((e,)), c) for e, c in d.items()])
                for d in op.factors) + (pc.VariableSet(op.names), order)


def _read(tr, path: str) -> str:
    def read():
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    return tr.call("io.read", read)


def _parse_poly(lib, tr, path, varset, order):
    text = _read(tr, path)
    p = tr.call("textio.parse_poly", lib.pc.parse_poly, text, varset, order)
    if tr.on:
        tr.note(bytes=len(text), terms=len(p.terms))
    return p


def _parse_cert(lib, tr, path):
    text = _read(tr, path)
    cert = tr.call("textio.parse_certificate", lib.pc.parse_certificate, text)
    if tr.on:
        tr.note(bytes=len(text), terms=len(cert.f.terms) + sum(
            len(lam.terms) + len(g.terms) for lam, g in cert.pairs))
    return cert


def _print(lib, tr, p, varset) -> str:
    text = tr.call("textio.print_poly", lib.pc.print_poly, p, varset)
    if tr.on:
        tr.note(bytes=len(text), terms=len(p.terms))
    return text


def _verify(lib, op, workdir, tr):
    pc = lib.pc
    cert = _parse_cert(lib, tr, f"{workdir}/{op.files[0]}")
    direction = pc.ScanDirection(op.direction)
    result = tr.call("verifier.verify", pc.verify, cert, direction)
    if tr.on:
        tr.note(extractions=result.stats.counters.heap_extractions,
                peak_terms=result.stats.peak_terms, cert=op.cert, family=op.family,
                direction=op.direction, valid=result.valid,
                input_terms=len(cert.f.terms) + sum(
                    len(lam.terms) + len(g.terms) for lam, g in cert.pairs))
    if result.valid:
        return ("valid",)
    ev, coeff = result.witness
    return ("invalid", ev.exponents, coeff)


def _combine(lib, op, workdir, tr):
    cert = _parse_cert(lib, tr, f"{workdir}/{op.files[0]}")
    total = tr.call("verifier.combine", lib.pc.combine, cert)
    return _print(lib, tr, total, cert.varset)


def _arith(lib, op, workdir, tr):
    pc = lib.pc
    varset, order = pc.VariableSet(op.names), pc.MonomialOrder(op.order)
    p, q = (_parse_poly(lib, tr, f"{workdir}/{name}", varset, order) for name in op.files)
    if op.kind == "add":
        result = tr.call("poly.add", pc.add, p, q)
    elif op.kind == "mul":
        result = tr.call("heapmul.mul_heap", pc.mul_heap, p, q)
    else:
        gb = pc.Geobucket(order)
        nchunks = -(-len(q.terms) // CHUNK_TERMS)
        for k in range(nchunks):
            tr.call("geobucket.add", gb.add, pc.Polynomial(order, q.terms[k::nchunks]))
        result = tr.call(f"heapmul.mul_heap_gb.{op.route}", pc.mul_heap_gb,
                         p, gb, pc.GbRoute(op.route))
    return _print(lib, tr, result, varset)


def _pdiv(lib, op, workdir, tr):
    pc = lib.pc
    f, g, varset, order = op.inputs
    mode = pc.RecursionMode.SPARSE_IN_VARIABLES
    rf = tr.call("recursive.to_recursive", pc.to_recursive, f, varset, mode)
    rg = tr.call("recursive.to_recursive", pc.to_recursive, g, varset, mode)
    rq, rr, d = tr.call("recursive.univ_pseudo_divide", pc.univ_pseudo_divide, rf, rg)
    q = tr.call("recursive.to_distributed", pc.to_distributed, rq, varset, order)
    r = tr.call("recursive.to_distributed", pc.to_distributed, rr, varset, order)
    if tr.on:
        tr.note(coeff_bits=max((abs(t.coeff).bit_length() for t in q.terms + r.terms),
                               default=0))
    return q, r, d


def _via_cli(lib, op, workdir, tr):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = tr.call("cli.main", lib.cli.main, op.cli_argv(workdir))
    if tr.on:
        tr.note(code=code)
    return code, out.getvalue()


_DIRECT = {"verify": _verify, "combine": _combine, "mul": _arith, "mul_gb": _arith,
           "add": _arith, "pdiv": _pdiv}


def run_op(lib: Lib, op: Op, workdir: str, tr):
    """Run one op and return its outcome, in the form :func:`check` takes."""
    if op.cli:
        return _via_cli(lib, op, workdir, tr)
    return _DIRECT[op.kind](lib, op, workdir, tr)


def cli_expected_code(op: Op) -> int:
    return op.cli_verdict()[0] if op.kind == "verify" else 0


def check(op: Op, outcome) -> bool:
    """True when the outcome matches the oracle's expectation."""
    if op.cli:
        code, out = outcome
        if op.kind == "verify":
            return (code, out) == op.cli_verdict()
        return code == 0 and out.endswith("\n") and digest(out[:-1]) == op.expected()
    if op.kind == "pdiv":
        q, r, d = outcome
        return pseudo_division_holds(
            *op.factors,
            {t.degrees.exponents[0]: t.coeff for t in q.terms},
            {t.degrees.exponents[0]: t.coeff for t in r.terms}, d)
    if op.kind == "verify":
        return outcome == op.expect
    return digest(outcome) == op.expected()
