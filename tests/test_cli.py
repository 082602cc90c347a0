import pytest

import polycert.cli
from polycert import (
    Certificate,
    MonomialOrder,
    ScanDirection,
    VariableSet,
    format_certificate,
    mul_naive,
    parse_certificate,
    parse_poly,
    verify,
)
from polycert.cli import main

GRLEX = MonomialOrder.GRLEX
XY = VariableSet(("x", "y"))


@pytest.fixture
def cert_files(tmp_path):
    lam = parse_poly("x + 1", XY, GRLEX)
    g = parse_poly("x - 1", XY, GRLEX)
    f = mul_naive(lam, g)
    good = Certificate(XY, GRLEX, f, ((lam, g),))
    bad = Certificate(XY, GRLEX, parse_poly("x^2", XY, GRLEX), ((lam, g),))
    good_path = tmp_path / "identity.cert"
    bad_path = tmp_path / "corrupted.cert"
    good_path.write_text(format_certificate(good))
    bad_path.write_text(format_certificate(bad))
    return good_path, bad_path


def test_verify_valid(cert_files, capsys):
    good, _ = cert_files
    assert main(["verify", "--cert", str(good)]) == 0
    assert capsys.readouterr().out == "valid\n"


@pytest.mark.parametrize("direction", ["max", "min"])
def test_verify_invalid_witness(cert_files, capsys, direction):
    _, bad = cert_files
    assert main(["verify", "--direction", direction, "--cert", str(bad)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("invalid\n")
    assert "witness: 1 -1" in out  # residual is the constant monomial, coeff -1


def test_verify_format_error(tmp_path, capsys):
    p = tmp_path / "broken.cert"
    p.write_text("vars: x\norder: grlex\nN: 1\nf: x\n")
    assert main(["verify", "--cert", str(p)]) == 2
    assert main(["verify", "--cert", str(tmp_path / "missing.cert")]) == 2


def test_non_utf8_certificate_is_bad_input(tmp_path, capsys):
    p = tmp_path / "latin1.cert"
    p.write_bytes(b"vars: x\norder: grlex\nN: 1\nf: x\xff\n")
    assert main(["verify", "--cert", str(p)]) == 2
    assert "not UTF-8" in capsys.readouterr().err


def test_internal_error_is_not_a_verdict(cert_files, capsys, monkeypatch):
    def crash(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(polycert.cli, "find_witness", crash)
    good, _ = cert_files
    assert main(["verify", "--cert", str(good)]) == 3
    assert "internal error: RuntimeError: boom" in capsys.readouterr().err


def test_unknown_flag_usage():
    assert main(["verify", "--no-such-flag"]) == 2
    assert main(["frobnicate"]) == 2


@pytest.fixture
def poly_files(tmp_path):
    a = tmp_path / "a.poly"
    b = tmp_path / "b.poly"
    a.write_text("x^2 + 2*x*y - 3\n")
    b.write_text("x*y - y^2 + 1\n")
    return a, b


def test_mul_engines_byte_identical(poly_files, capsys):
    a, b = poly_files
    outs = []
    for engine in ("heap", "naive"):
        assert main(["mul", "--vars", "x,y", "--engine", engine, str(a), str(b)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    p = parse_poly(outs[0], XY, GRLEX)
    expect = mul_naive(
        parse_poly(a.read_text(), XY, GRLEX), parse_poly(b.read_text(), XY, GRLEX)
    )
    assert p == expect


@pytest.mark.parametrize("route", ["convert", "per-bucket", "hybrid"])
def test_mul_geobucket_routes(poly_files, capsys, route):
    a, b = poly_files
    assert main(["mul", "--vars", "x,y", "--engine", "naive", str(a), str(b)]) == 0
    expect = capsys.readouterr().out
    args = ["mul", "--vars", "x,y", "--geobucket", "--route", route, str(a), str(b)]
    assert main(args) == 0
    assert capsys.readouterr().out == expect


def test_add_and_output_file(poly_files, tmp_path, capsys):
    a, b = poly_files
    out = tmp_path / "sum.txt"
    assert main(["add", "--vars", "x,y", "--output", str(out), str(a), str(b)]) == 0
    got = parse_poly(out.read_text(), XY, GRLEX)
    from polycert import add as poly_add

    expect = poly_add(
        parse_poly(a.read_text(), XY, GRLEX), parse_poly(b.read_text(), XY, GRLEX)
    )
    assert got == expect


def test_convert_recursive(tmp_path, capsys):
    p = tmp_path / "p.poly"
    p.write_text("z^2*y^2 + 2*z^2 + 3*x + 4\n")
    assert main(["convert", "--vars", "z,y,x", "--to", "recursive",
                 "--mode", "sparse", str(p)]) == 0
    assert capsys.readouterr().out.strip() == "(z,(2,(y,(2,1),(0,2))),(0,(x,(1,3),(0,4))))"
    assert main(["convert", "--vars", "z,y,x", str(p)]) == 0
    assert capsys.readouterr().out.strip() == "z^2*y^2 + 2*z^2 + 3*x + 4"


def test_stats_csv(cert_files, capsys):
    good, _ = cert_files
    assert main(["stats", "--cert", str(good), "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "command,n_inputs,comparisons,coeff_adds,coeff_muls,heap_extractions,heap_peak,peak_terms"
    fields = lines[1].split(",")
    assert fields[0] == "verify" and int(fields[4]) == 6


@pytest.mark.parametrize("source", ["cert", "mul"])
def test_stats_csv_and_text_report_the_same_record(cert_files, poly_files, capsys, source):
    if source == "cert":
        args = ["stats", "--cert", str(cert_files[0])]
    else:
        args = ["stats", "--mul", *map(str, poly_files), "--vars", "x,y"]
    assert main(args) == 0
    text = capsys.readouterr().out.splitlines()
    assert main([*args, "--format", "csv"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert [f"{name}: {value}" for name, value in zip(header.split(","), row.split(","))] == text
    assert len(text) == 8  # command, n_inputs, the five counters, peak_terms


def test_stats_mul_text(poly_files, capsys):
    a, b = poly_files
    assert main(["stats", "--mul", str(a), str(b), "--vars", "x,y"]) == 0
    out = capsys.readouterr().out
    assert "heap_extractions: " in out and "comparisons: " in out


def test_stats_requires_input(capsys):
    assert main(["stats"]) == 2


@pytest.mark.parametrize("direction", ["max", "min"])
def test_verify_5000_digit_coefficient(tmp_path, capsys, direction):
    import sys

    limit = sys.get_int_max_str_digits()
    big = "1" + "0" * 4990 + "123456789"  # 10**4999 + 123456789
    lam = parse_poly(f"{big}*x + 1", XY, GRLEX)
    g = parse_poly("x - 1", XY, GRLEX)
    cert = format_certificate(Certificate(XY, GRLEX, mul_naive(lam, g), ((lam, g),)))
    f_line = f"f: {big}*x^2 - {big[:-1]}8*x - 1"  # (1 - big) = -(big - 1)
    assert f_line in cert
    good = tmp_path / "big.cert"
    good.write_text(cert)
    assert main(["verify", "--direction", direction, "--cert", str(good)]) == 0
    assert capsys.readouterr().out == "valid\n"
    # corrupt the leading digit of f's x^2 coefficient: the residual there
    # is (10**4999 + 123456789) - (2*10**4999 + 123456789) = -10**4999
    bad = tmp_path / "big_corrupted.cert"
    bad.write_text(cert.replace(f_line, "f: 2" + f_line[4:]))
    assert main(["verify", "--direction", direction, "--cert", str(bad)]) == 1
    assert capsys.readouterr().out == f"invalid\nwitness: x^2 -1{'0' * 4999}\n"
    assert sys.get_int_max_str_digits() == limit


def test_convert_modes_and_long_coefficient(tmp_path, capsys):
    big = "1" + "0" * 4990 + "123456789"
    p = tmp_path / "big.poly"
    p.write_text(f"{big}*x + 1\n")
    expected = {
        "sparse": f"(x,(1,{big}),(0,1))",
        "dense": f"(x,(1,(y,(0,{big}))),(0,(y,(0,1))))",
    }
    for mode, out in expected.items():
        argv = ["convert", "--vars", "x,y", "--to", "recursive", "--mode", mode, str(p)]
        assert main(argv) == 0
        assert capsys.readouterr().out == out + "\n"
    assert main(["convert", "--vars", "x,y", "--mode", "packed", str(p)]) == 2


@pytest.mark.parametrize("direction", ["max", "min"])
def test_mul_and_witness_with_5000_digit_exponent(tmp_path, capsys, direction):
    import sys

    limit = sys.get_int_max_str_digits()
    e = "1" + "0" * 4990 + "123456789"  # 10**4999 + 123456789
    e1 = e[:-2] + "90"  # e + 1
    a, b = tmp_path / "a.poly", tmp_path / "b.poly"
    a.write_text(f"x^{e} + 1\n")
    b.write_text("x - 1\n")
    assert main(["mul", "--vars", "x,y", str(a), str(b)]) == 0
    assert capsys.readouterr().out == f"x^{e1} - x^{e} + x - 1\n"
    # lambda = x^e, g = x + 1, and f's x^e coefficient is 2 instead of 1
    lam = parse_poly(f"x^{e}", XY, GRLEX)
    g = parse_poly("x + 1", XY, GRLEX)
    f = parse_poly(f"x^{e1} + 2*x^{e}", XY, GRLEX)
    bad = tmp_path / "exponent.cert"
    bad.write_text(format_certificate(Certificate(XY, GRLEX, f, ((lam, g),))))
    assert main(["verify", "--direction", direction, "--cert", str(bad)]) == 1
    assert capsys.readouterr().out == f"invalid\nwitness: x^{e} -1\n"
    assert sys.get_int_max_str_digits() == limit


def test_convert_5000_digit_exponent(tmp_path, capsys):
    e = "1" + "0" * 4990 + "123456789"
    p = tmp_path / "tall.poly"
    p.write_text(f"x^{e} + 1\n")
    argv = ["convert", "--vars", "x,y", "--to", "recursive", "--mode", "sparse", str(p)]
    assert main(argv) == 0
    assert capsys.readouterr().out == f"(x,({e},1),(0,1))\n"


import random  # noqa: E402

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from polycert import add, parse_certificate, verify_naive, zero  # noqa: E402
from polycert.errors import KernelError  # noqa: E402

from conftest import ORDERS, random_poly  # noqa: E402


def certificate_text(seed, corrupt):
    """A small certificate in x, y: valid, or with a term added to f."""
    rng = random.Random(seed)
    order = rng.choice(ORDERS)
    pairs = tuple(
        (random_poly(rng, order, 3, nvars=2, max_exp=2),
         random_poly(rng, order, 3, nvars=2, max_exp=2))
        for _ in range(rng.randint(1, 2))
    )
    f = zero(order)
    for lam, g in pairs:
        f = add(f, mul_naive(lam, g))
    if corrupt:
        f = add(f, random_poly(rng, order, 1, nvars=2, max_exp=3))
    return format_certificate(Certificate(XY, order, f, pairs))


# pieces of the grammar and the layout, and a little arbitrary text
FRAGMENTS = ["0", "1", "-1", "9" * 30, "+", "-", "*", "/", "/0", "^", "^-1", "^0",
             "x", "y", "z", "x^2", " ", "\n", "\r", ":", "#", "[", "]", "lambda[2]: x",
             "g[0]: 1", "N: 2", "N: 0", "order: lex", "vars: x x", "f: ", "é", "\x00"]
edits = st.lists(
    st.tuples(st.integers(0, 10**6), st.integers(0, 6),
              st.one_of(st.sampled_from(FRAGMENTS), st.just(""), st.text(max_size=3))),
    min_size=1, max_size=4,
)


@given(seed=st.integers(0, 2**16), corrupt=st.booleans(), edits=edits)
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_certificates_exit_as_the_oracle_reads_them(
        tmp_path, seed, corrupt, edits):
    text = certificate_text(seed, corrupt)
    for where, cut, insert in edits:  # replace `cut` characters at `where` by `insert`
        i = where % (len(text) + 1)
        text = text[:i] + insert + text[i + cut:]
    path = tmp_path / "mutated.cert"
    path.write_text(text, encoding="utf-8")
    try:
        naive = verify_naive(parse_certificate(path.read_text(encoding="utf-8"))).valid
    except KernelError:
        naive = None  # bad input: the CLI must say exit 2
    for direction in ("max", "min"):
        code = main(["verify", "--direction", direction, "--cert", str(path)])
        assert code == {True: 0, False: 1, None: 2}[naive], text


def test_stats_text_reports_the_measured_heap_peak(tmp_path, capsys):
    lam = parse_poly("x^2 + 3*x*y + y + 1", XY, GRLEX)
    g = parse_poly("x - 2*y^2 + 5", XY, GRLEX)
    f = mul_naive(parse_poly("2", XY, GRLEX), mul_naive(lam, g))
    cert = Certificate(XY, GRLEX, f, ((lam, g), (g, lam)))
    path = tmp_path / "two_pairs.cert"
    path.write_text(format_certificate(cert))
    assert main(["stats", "--cert", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = verify(parse_certificate(path.read_text()))
    assert result.valid
    peak = result.stats.counters.heap_peak
    assert peak > 0
    assert f"heap_peak: {peak}" in lines


def test_unobserved_verify_counts_nothing(cert_files, capsys, monkeypatch):
    from polycert import counters, heapmul, poly
    from polycert.heapmul import CountedHeap

    def refuse_in_scope(fn):
        def refusing(*args, **kwargs):
            if counters._scopes.get():
                raise AssertionError(f"{fn.__qualname__} inside a scope")
            return fn(*args, **kwargs)
        return refusing

    expected = {}
    with monkeypatch.context() as m:
        for name in ("push", "pop", "replace"):
            m.setattr(CountedHeap, name, refuse_in_scope(getattr(CountedHeap, name)))
        for module in (counters, heapmul, poly):
            m.setattr(module, "tally", refuse_in_scope(counters.tally))
        for path in cert_files:
            for direction in ("max", "min"):
                code = main(["verify", "--direction", direction, "--cert", str(path)])
                expected[path, direction] = code, capsys.readouterr().out
    good, bad = cert_files
    for direction in ("max", "min"):
        assert expected[good, direction] == (0, "valid\n")
        assert expected[bad, direction] == (1, "invalid\nwitness: 1 -1\n")
    # stats --cert still counts, and prints what verify(...).stats holds
    for path in cert_files:
        for direction in ("max", "min"):
            cert = parse_certificate(path.read_text())
            stats = verify(cert, ScanDirection(direction)).stats
            c = stats.counters
            assert c.comparisons > 0
            assert main(["stats", "--direction", direction, "--cert", str(path)]) == 0
            assert capsys.readouterr().out.splitlines()[2:] == [
                f"comparisons: {c.comparisons}", f"coeff_adds: {c.coeff_adds}",
                f"coeff_muls: {c.coeff_muls}",
                f"heap_extractions: {c.heap_extractions}",
                f"heap_peak: {c.heap_peak}", f"peak_terms: {stats.peak_terms}",
            ]


@pytest.mark.parametrize("names", ["1x,y", "x*y,z", "x, y"])
def test_a_variable_name_the_grammar_cannot_read_is_bad_input(tmp_path, capsys, names):
    p = tmp_path / "p.poly"
    p.write_text("x + 1\n")
    assert main(["convert", "--vars", names, str(p)]) == 2
    assert "is not an ASCII identifier" in capsys.readouterr().err


def test_stats_with_both_a_certificate_and_a_product_is_bad_input(cert_files, poly_files, capsys):
    good, _ = cert_files
    a, b = poly_files
    assert main(["stats", "--cert", str(good), "--mul", str(a), str(b), "--vars", "x,y"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: stats takes --cert or --mul, not both\n"


def test_a_geobucket_with_the_naive_engine_is_bad_input(poly_files, capsys):
    a, b = poly_files
    args = ["mul", "--vars", "x,y", "--engine", "naive", "--geobucket", "--route", "hybrid"]
    assert main(args + [str(a), str(b)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --geobucket needs the heap engine\n"


def test_an_empty_variable_name_is_bad_input(tmp_path, capsys):
    p = tmp_path / "p.poly"
    p.write_text("x + y\n")
    assert main(["convert", "--vars", "x,,y", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "variable name '' is not an ASCII identifier" in captured.err
