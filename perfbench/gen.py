"""Seeded workload generators.

``build(workload, seed)`` returns a :class:`Pool`: the op sequence of one
pass, the text files the ops read, and each op's expected result, computed
by the oracle in :mod:`oracle` (never by polycert).  The same workload and
seed always give the same pool.

Sizes come from a jittered Halton sequence over the stated ranges instead
of independent draws: every prefix of the op sequence then covers the size
range evenly, so percentiles over a time-bounded run hold steady from seed
to seed; the seed sets the jitter and every exponent and coefficient.  Op
kinds follow fixed index patterns for the same reason.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from oracle import (
    ORDER_KEYS,
    coeff_text,
    combine_pairs,
    dadd,
    digest,
    dmul,
    format_cert,
    monomial_text,
    print_dict,
)

# Each workload interleaves two families of ops; see README.md for why.
WORKLOADS = {"verify": ("verify_many", "verify_cancel"), "mul": ("mul_sparse", "bigcoeff")}
ORDERS = ("lex", "grlex", "grevlex")
VARS2 = ("x", "y")
VARS3 = ("x", "y", "z")
VARS5 = ("v", "w", "x", "y", "z")
ROUTES = ("convert", "per-bucket", "hybrid")
CLI_SLOT = 5  # op i goes through polycert.cli.main when i % 10 == CLI_SLOT
INT_STR_LIMIT = 4300  # CPython's default int-string digit limit

# Ops of each family in one pass of a pool: a pass takes about 20 seconds
# (verify) or 12 seconds (mul) of op time on a 2-core x86 VM with the
# unoptimised kernel, so a 45-second run makes two passes or more.  The
# percentiles take one figure per op, so a pool of 120 ops or more puts at
# least ten beyond p90.  One bigcoeff op in 20 holds a coefficient over the
# int-string digit limit and goes to the pool's probe, not its ops.
FAMILY_OPS = {"verify_many": 60, "verify_cancel": 60, "mul_sparse": 80, "bigcoeff": 120}


@dataclass
class Op:
    """One user-level job: read the text, parse, run the kernel, print."""

    index: int
    kind: str  # verify | combine | mul | mul_gb | add | pdiv
    cli: bool  # run through polycert.cli.main in process
    names: tuple[str, ...]
    order: str
    files: tuple[str, ...] = ()
    direction: str = "max"
    route: str = ""
    # verify: ("valid",) or ("invalid", exponents, coeff); pdiv: None;
    # combine, mul, mul_gb, add: digest of the canonical text
    expect: object = None
    size: int = 0  # work estimate in stream entries, for choosing warm-up ops
    long_coeff: bool = False  # holds a coefficient over the int-string limit
    cert: str = ""  # certificate file; an invalid one may be verified both ways
    family: str = ""
    factors: tuple = ()  # mul, mul_gb, pdiv: the oracle's input dicts
    inputs: tuple = ()  # pdiv: polycert objects, built at set-up

    def cli_argv(self, workdir: str) -> list[str]:
        paths = [f"{workdir}/{name}" for name in self.files]
        if self.kind == "verify":
            return ["verify", "--cert", paths[0], "--direction", self.direction]
        argv = [self.kind if self.kind == "add" else "mul",
                "--vars", ",".join(self.names), "--order", self.order]
        if self.kind == "mul_gb":
            argv += ["--geobucket", "--route", self.route]
        return argv + paths

    def expected(self):
        """The oracle's result; a product's is computed on first use, not at set-up."""
        if self.expect is None and self.kind in ("mul", "mul_gb", "add"):
            p, q = self.factors
            result = dadd(p, q) if self.kind == "add" else dmul(p, q)
            self.expect = digest(print_dict(result, self.names, self.order))
        return self.expect

    def cli_verdict(self) -> tuple[int, str]:
        """Exit code and stdout that ``polycert verify`` must produce."""
        if self.expect[0] == "valid":
            return 0, "valid\n"
        _, e, c = self.expect
        return 1, f"invalid\nwitness: {monomial_text(e, self.names)} {coeff_text(c)}\n"


@dataclass
class Pool:
    ops: list[Op] = field(default_factory=list)
    files: dict[str, str] = field(default_factory=dict)
    reference: Op | None = None  # run once at the start of every run
    # ops with a coefficient over the int-string digit limit: run once after
    # the timed ops, outside the metrics, because they fail today
    probe: list[Op] = field(default_factory=list)


def radical_inverse(k: int, base: int) -> float:
    x, scale = 0.0, 1.0
    while k:
        scale /= base
        k, digit = divmod(k, base)
        x += digit * scale
    return x


class Halton:
    """Halton points over [0,1)^4, each coordinate moved by a seeded jitter.

    Every point moves by its own amount, under 1/128 either way: sizes
    differ from seed to seed, but neither the spread of sizes that a prefix
    of the sequence covers nor their average moves with the seed.
    """

    BASES = (2, 3, 5, 7)
    JITTER = 1 / 64

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.k = 0

    def next(self) -> list[float]:
        self.k += 1
        rand = self.rng.random
        return [min(max(radical_inverse(self.k, b) + (rand() - 0.5) * self.JITTER, 0.0),
                    0.999999) for b in self.BASES]


def loguni(u: float, lo: int, hi: int) -> int:
    return int(round(lo * (hi / lo) ** u))


def rpoly(rng, nterms: int, nvars: int, emax: int, coeff) -> dict:
    """Random polynomial with exactly nterms terms, exponents below emax."""
    out: dict = {}
    rand = rng.random
    while len(out) < nterms:
        out[tuple([int(rand() * emax) for _ in range(nvars)])] = coeff()
    return out


def small(rng, bound: int = 9):
    """Nonzero coefficients in -bound..bound."""
    choices = [c for c in range(-bound, bound + 1) if c]
    rand = rng.random
    return lambda: choices[int(rand() * len(choices))]


def digits(rng, n: int) -> int:
    """A signed integer with exactly n decimal digits."""
    return rng.choice((-1, 1)) * rng.randrange(10 ** (n - 1), 10**n)


def pick(f: dict, order: str, u: float) -> tuple:
    """The monomial of f at relative position u in descending order."""
    terms = sorted(f, key=ORDER_KEYS[order], reverse=True)
    return terms[min(int(u * len(terms)), len(terms) - 1)]


def corrupt(f: dict, e: tuple) -> tuple[dict, int]:
    """Add a nonzero delta to f's coefficient at e; returns (f', delta)."""
    delta = 1 if f.get(e, 0) != -1 else 2
    g = dict(f)
    g[e] = g.get(e, 0) + delta
    return g, delta


class _FamilyPool:
    def __init__(self, family: str, seed: int):
        self.family = family
        self.rng = random.Random(f"{family}:{seed}")
        self.pool = Pool()
        self._streams: dict = {}

    def draw(self, kind: str, cli: bool, dims: int) -> list[float]:
        """Next point of the Halton sequence of this kind of op.

        Each (kind, cli) pair walks its own sequence, and flags such as
        "corrupt" or the scan direction are further coordinates of the same
        point, so no index pattern lines up with one end of a size range.
        """
        key = (kind, cli)
        if key not in self._streams:
            self._streams[key] = Halton(self.rng)
        return self._streams[key].next()[:dims]

    def cert_op(self, i, names, order, f, pairs, *, cli, corrupt_at=None,
                directions=("max",), kind="verify", long_coeff=False):
        """Write a certificate and add one op per scan direction."""
        name = f"{self.family}{i:04d}.cert"
        if kind == "combine":
            expect = digest(print_dict(combine_pairs(pairs), names, order))
        elif corrupt_at is not None:
            f, delta = corrupt(f, corrupt_at)
            expect = ("invalid", corrupt_at, -delta)
        else:
            expect = ("valid",)
        self.pool.files[name] = format_cert(names, order, f, pairs)
        size = len(f) + sum(len(lam) * len(g) for lam, g in pairs)
        for d in directions:
            self.pool.ops.append(Op(len(self.pool.ops), kind, cli, names, order, (name,),
                                    d, expect=expect, size=size, long_coeff=long_coeff,
                                    cert=name))

    def text_op(self, i, kind, names, order, p, q, *, cli, route=""):
        """Write two polynomial files; the op combines them and prints."""
        files = (f"{self.family}{i:04d}a.poly", f"{self.family}{i:04d}b.poly")
        for name, d in zip(files, (p, q)):
            self.pool.files[name] = print_dict(d, names, order)
        return Op(len(self.pool.ops), kind, cli, names, order, files, route=route,
                  size=len(p) * len(q), factors=(p, q))


def _verify_many(b: _FamilyPool, n_ops: int) -> None:
    """N log-uniform in 8..512 pairs of 3-term x 3-term polynomials."""
    rng = b.rng
    for i in range(n_ops):
        kind = "combine" if i % 10 == 9 else "verify"
        cli = i % 10 == CLI_SLOT
        u_n, u_bad, u_dir = b.draw(kind, cli, 3)
        pairs = [(rpoly(rng, 3, 3, 40, small(rng)), rpoly(rng, 3, 3, 40, small(rng)))
                 for _ in range(loguni(u_n, 8, 512))]
        f = combine_pairs(pairs)
        order = ORDERS[i % 3]
        bad = pick(f, order, 4 * u_bad) if kind == "verify" and u_bad < 0.25 else None
        b.cert_op(i, VARS3, order, f, pairs, cli=cli, kind=kind, corrupt_at=bad,
                  directions=("min" if u_dir < 0.5 else "max",))


def _verify_cancel(b: _FamilyPool, n_ops: int) -> None:
    """Syzygy-padded certificates: long product streams cancel to a small f."""
    rng = b.rng
    i = 0
    while len(b.pool.ops) < n_ops:
        cli = i % 10 == CLI_SLOT
        u_h, u_g, u_bad, u_dir = b.draw("verify", cli, 4)
        npairs = 2 + i % 3
        order = ("grevlex", "grlex")[i % 2]
        gs = [rpoly(rng, loguni(u_g, 8, 24), 5, 6, small(rng, 5)) for _ in range(npairs)]
        lams = [rpoly(rng, rng.randint(1, 3), 5, 4, small(rng, 5)) for _ in range(npairs)]
        for k in range(npairs - 1):
            # lambda_k += g_{k+1} h, lambda_{k+1} -= g_k h: the products cancel
            h = rpoly(rng, loguni(u_h, 3, 28), 5, 4, small(rng, 3))
            lams[k] = dadd(lams[k], dmul(gs[k + 1], h))
            lams[k + 1] = dadd(lams[k + 1], dmul(gs[k], {e: -c for e, c in h.items()}))
        pairs = list(zip(lams, gs))
        f = combine_pairs(pairs)
        if u_bad < 0.25 and f:
            # corrupt the smallest monomial: min-first stops early, max-first scans all
            smallest = min(f, key=ORDER_KEYS[order])
            b.cert_op(i, VARS5, order, f, pairs, cli=cli, corrupt_at=smallest,
                      directions=("min", "max"))
        else:
            b.cert_op(i, VARS5, order, f, pairs, cli=cli,
                      directions=("min" if u_dir < 0.5 else "max",))
        i += 1


def _mul_sparse(b: _FamilyPool, n_ops: int) -> None:
    """Parse, multiply, print: 16..200-term factors in 3 variables."""
    rng = b.rng
    for i in range(n_ops):
        kind = "add" if i % 10 == 9 else "mul_gb" if i % 4 == 1 else "mul"
        cli = i % 10 == CLI_SLOT
        u1, u2, u_route = b.draw(kind, cli, 3)
        p = rpoly(rng, loguni(u1, 16, 200), 3, 30, small(rng))
        q = rpoly(rng, loguni(u2, 16, 200), 3, 30, small(rng))
        route = ROUTES[int(u_route * 3)] if kind == "mul_gb" else ""
        b.pool.ops.append(b.text_op(i, kind, VARS3, ORDERS[i % 3], p, q, cli=cli,
                                    route=route))
    # ROADMAP reference product: two 300-term grlex factors, exponents < 30
    p = rpoly(rng, 300, 3, 30, small(rng))
    q = rpoly(rng, 300, 3, 30, small(rng))
    b.pool.reference = b.text_op(n_ops, "mul", VARS3, "grlex", p, q, cli=False)
    b.pool.reference.index = -1


def _bigcoeff(b: _FamilyPool, n_ops: int) -> None:
    """Certificates, products and pseudo-division with 50..2000-digit numbers,
    and every 20th op a certificate over the int-string digit limit (probe)."""
    rng = b.rng
    for i in range(n_ops):
        long_coeff = i % 20 == 19
        kind = "long" if long_coeff else ("cert", "mul", "pdiv")[i % 3]
        cli = i % 10 == CLI_SLOT and kind != "pdiv"
        order = ORDERS[i % 3]
        u1, u2, u3, u4 = b.draw(kind, cli, 4)
        if kind in ("cert", "long"):
            ndig = loguni(u2, 200, 2000)
            # cofactors share one denominator and generators are integral, so
            # f's numerators stay under 2*ndig + 3 digits; the oracle sums the
            # numerators as ints and divides once per term
            den = abs(digits(rng, ndig))
            pairs = [(rpoly(rng, rng.randint(3, 10), 2, 10, lambda: digits(rng, ndig)),
                      rpoly(rng, rng.randint(3, 10), 2, 10, lambda: digits(rng, ndig)))
                     for _ in range(loguni(u1, 2, 8))]
            if long_coeff:
                lam = pairs[0][0]
                lam[next(iter(lam))] = digits(rng, INT_STR_LIMIT + rng.randint(100, 700))
            f = {e: Fraction(c, den) for e, c in combine_pairs(pairs).items()}
            pairs = [({e: Fraction(c, den) for e, c in lam.items()}, g) for lam, g in pairs]
            bad = pick(f, order, 4 * u3) if u3 < 0.25 and not long_coeff else None
            b.cert_op(i, VARS2, order, f, pairs, cli=cli, corrupt_at=bad,
                      directions=("min" if u4 < 0.5 else "max",), long_coeff=long_coeff)
            if long_coeff:
                b.pool.probe.append(b.pool.ops.pop())
        elif kind == "mul":
            ndig = loguni(u3, 200, 2000)
            den = abs(digits(rng, ndig))
            p = rpoly(rng, loguni(u1, 5, 20), 2, 12, lambda: digits(rng, ndig))
            q = rpoly(rng, loguni(u2, 5, 20), 2, 12,
                      lambda: Fraction(digits(rng, ndig), den))
            b.pool.ops.append(b.text_op(i, "mul", VARS2, order, p, q, cli=cli))
        else:
            ndig = loguni(u3, 50, 500)
            f = {e: digits(rng, ndig) for e in range(loguni(u1, 20, 60) + 1)}
            g = {e: digits(rng, ndig) for e in range(loguni(u2, 5, 15) + 1)}
            b.pool.ops.append(Op(len(b.pool.ops), "pdiv", False, ("x",), "lex",
                                 size=len(f) * len(g), factors=(f, g)))


_FAMILIES = {
    "verify_many": _verify_many,
    "verify_cancel": _verify_cancel,
    "mul_sparse": _mul_sparse,
    "bigcoeff": _bigcoeff,
}


def build(workload: str, seed: int) -> Pool:
    """The workload's families, each from its own random stream, interleaved
    evenly, so that every stretch of the sequence holds both in proportion."""
    pool = Pool()
    keyed = []
    for family in WORKLOADS[workload]:
        b = _FamilyPool(family, seed)
        _FAMILIES[family](b, FAMILY_OPS[family])
        n = len(b.pool.ops)
        for k, op in enumerate(b.pool.ops):
            op.family = family
            keyed.append(((k + 0.5) / n, op))
        if b.pool.reference is not None:
            pool.reference = b.pool.reference
            pool.reference.family = family
        for op in b.pool.probe:
            op.family = family
        pool.probe += b.pool.probe
        pool.files.update(b.pool.files)
    keyed.sort(key=lambda pair: pair[0])
    pool.ops = [op for _, op in keyed]
    for index, op in enumerate(pool.ops + pool.probe):
        op.index = index
    return pool
