"""Independent oracle: plain-dict polynomial arithmetic and canonical text.

Nothing here imports polycert.  A polynomial is a dict mapping exponent
tuples to nonzero int or Fraction coefficients; a univariate polynomial is a
dict mapping degrees to coefficients.  The printer reproduces the documented
canonical text (terms in descending monomial order), so a product printed by
polycert can be compared with the oracle's text byte for byte.

Decimal conversion goes through :func:`dec`, which splits large integers so
that no single ``str(int)`` exceeds the interpreter's int-string digit limit;
the benchmark never changes that limit.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

ORDER_KEYS = {
    "lex": lambda e: e,
    "grlex": lambda e: (sum(e), e),
    # equal total: the rightmost differing exponent decides, smaller wins
    "grevlex": lambda e: (sum(e), tuple(-x for x in reversed(e))),
}


def dmul(a: dict, b: dict) -> dict:
    """Dict-accumulate product: the floor that polycert's kernels are held to."""
    return combine_pairs([(a, b)])


def dadd(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def dec(n: int) -> str:
    """Decimal text of any int, however long, in chunks under the digit limit."""
    if n < 0:
        return "-" + dec(-n)
    if n.bit_length() <= 10000:  # at most 3011 digits
        return str(n)
    k = n.bit_length() * 30103 // 200000  # about half the digit count
    hi, lo = divmod(n, 10**k)
    return dec(hi) + dec(lo).rjust(k, "0")


def coeff_text(c) -> str:
    if type(c) is Fraction and c.denominator != 1:
        return f"{dec(c.numerator)}/{dec(c.denominator)}"
    return dec(int(c))


def print_dict(d: dict, names: tuple[str, ...], order: str) -> str:
    """Canonical text of a dict polynomial, greatest monomial first."""
    if not d:
        return "0"
    chunks = []
    for e in sorted(d, key=ORDER_KEYS[order], reverse=True):
        c = d[e]
        mag = -c if c < 0 else c
        factors = [coeff_text(mag)] if mag != 1 or not any(e) else []
        factors += [n if x == 1 else f"{n}^{x}" for n, x in zip(names, e) if x]
        chunks.append(("- " if c < 0 else "+ ") + "*".join(factors))
    text = " ".join(chunks)
    return text[2:] if text[0] == "+" else "-" + text[2:]


def monomial_text(e: tuple[int, ...], names: tuple[str, ...]) -> str:
    return print_dict({e: 1}, names, "lex")


def format_cert(names, order: str, f: dict, pairs) -> str:
    lines = [
        "vars: " + " ".join(names),
        f"order: {order}",
        f"N: {len(pairs)}",
        "f: " + print_dict(f, names, order),
    ]
    for i, (lam, g) in enumerate(pairs, 1):
        lines.append(f"lambda[{i}]: " + print_dict(lam, names, order))
        lines.append(f"g[{i}]: " + print_dict(g, names, order))
    return "\n".join(lines) + "\n"


def digest(text: str) -> str:
    """Expected outputs are kept as digests, so long products cost no memory."""
    return hashlib.sha256(text.encode()).hexdigest()


def combine_pairs(pairs) -> dict:
    """sum_i lambda_i * g_i, accumulated into one dict."""
    total: dict = {}
    get = total.get
    for lam, g in pairs:
        for ea, ca in lam.items():
            for eb, cb in g.items():
                e = tuple([x + y for x, y in zip(ea, eb)])
                total[e] = get(e, 0) + ca * cb
    return {e: c for e, c in total.items() if c}


# -- univariate pseudo-division identity -------------------------------------


def pseudo_division_holds(f: dict, g: dict, q: dict, r: dict, d: int) -> bool:
    """lc(g)^d * f == q*g + r, deg r < deg g, d = max(deg f - deg g + 1, 0)."""
    dg = max(g)
    if d != max(max(f) - dg + 1, 0):
        return False
    if r and max(r) >= dg:
        return False
    scale = g[dg] ** d
    rhs = dict(r)
    for eq, cq in q.items():
        for eg, cg in g.items():
            rhs[eq + eg] = rhs.get(eq + eg, 0) + cq * cg
    return {e: scale * c for e, c in f.items()} == {e: c for e, c in rhs.items() if c}
