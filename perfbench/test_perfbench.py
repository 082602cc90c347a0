"""Self-tests for the benchmark: determinism, the oracle, and the output contract.

Run from the repository root:  python3 -m pytest perfbench -q
Faults are injected here, in benchmark code; polycert itself is untouched.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from execute import Lib, check, run_op  # noqa: E402
from spans import NullTracer, Span  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return Lib()


@pytest.fixture(scope="module")
def pools(tmp_path_factory):
    """One pool per workload, with its files written out."""
    out = {}
    for w in gen.WORKLOADS:
        pool = gen.build(w, 7)
        workdir = tmp_path_factory.mktemp(w)
        for name, text in pool.files.items():
            (workdir / name).write_text(text, encoding="utf-8")
        out[w] = (pool, str(workdir))
    return out


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload, pools):
    pool, _ = pools[workload]
    again = gen.build(workload, 7)
    assert again.files == pool.files
    assert again.ops == pool.ops
    assert gen.build(workload, 8).files != pool.files


def _first(pool, **want):
    return next(op for op in pool.ops
                if all(getattr(op, k) == v for k, v in want.items()))


def test_oracle_catches_a_wrong_product(lib, pools):
    pool, workdir = pools["mul"]
    op = _first(pool, kind="mul", cli=False, family="mul_sparse")
    text = run_op(lib, op, workdir, NullTracer())
    assert check(op, text)
    # fault: bump the leading coefficient of polycert's product
    pc = lib.pc
    varset, order = pc.VariableSet(op.names), pc.MonomialOrder(op.order)
    prod = pc.parse_poly(text, varset, order)
    lead, *rest = prod.terms
    wrong = pc.Polynomial(order, (pc.Term(lead.degrees, lead.coeff + 1), *rest))
    assert not check(op, pc.print_poly(wrong, varset))


def test_oracle_catches_a_wrong_cli_product(lib, pools):
    pool, workdir = pools["mul"]
    op = _first(pool, cli=True, kind="mul")
    code, out = run_op(lib, op, workdir, NullTracer())
    assert check(op, (code, out))
    assert not check(op, (code, out.replace("+", "-", 1)))
    assert not check(op, (2, out))


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_oracle_catches_a_flipped_verdict(workload, lib, pools):
    pool, workdir = pools[workload]
    valid = _first(pool, kind="verify", cli=False, long_coeff=False,
                   expect=("valid",))
    invalid = next(op for op in pool.ops if op.kind == "verify" and not op.cli
                   and op.expect[0] == "invalid")
    got_valid = run_op(lib, valid, workdir, NullTracer())
    got_invalid = run_op(lib, invalid, workdir, NullTracer())
    assert check(valid, got_valid) and check(invalid, got_invalid)
    _, exps, coeff = invalid.expect
    assert not check(valid, ("invalid", exps, coeff))
    assert not check(invalid, ("valid",))
    assert not check(invalid, ("invalid", exps, coeff + 1))  # wrong witness value


def test_oracle_catches_a_flipped_cli_verdict(lib, pools):
    pool, workdir = pools["verify"]
    op = _first(pool, kind="verify", cli=True)
    code, out = run_op(lib, op, workdir, NullTracer())
    assert check(op, (code, out))
    assert not check(op, (1 - code, out))


def test_pseudo_division_identity_catches_a_wrong_remainder(lib, pools):
    pool, workdir = pools["mul"]
    op = _first(pool, kind="pdiv")
    lib.prepare(op)
    q, r, d = run_op(lib, op, workdir, NullTracer())
    assert check(op, (q, r, d))
    pc = lib.pc
    bad_r = pc.add(r, pc.poly_from_terms(r.order, [(pc.ev_make((0,)), 1)]))
    assert not check(op, (q, bad_r, d))
    assert not check(op, (q, r, d + 1))


def test_long_coefficient_ops_are_probed_not_timed(lib, pools):
    pool, workdir = pools["mul"]
    assert not any(op.long_coeff for op in pool.ops)
    assert len(pool.probe) == gen.FAMILY_OPS["bigcoeff"] // 20
    assert all(op.long_coeff and op.family == "bigcoeff" for op in pool.probe)
    probe = run.run_probe(lib, pool, workdir)
    # fails today on the interpreter's default int-string limit (ROADMAP item 4);
    # a later fix must turn every one of these into a correct verdict
    assert probe.wrong == 0
    assert probe.failed in (0, len(pool.probe))
    assert probe.known_limit == probe.failed
    assert run.is_correct(run.Tally(), 0, probe)
    # a failed op is a miss in the percentiles
    assert probe.per_op().count(math.inf) == probe.failed


def test_only_the_digit_limit_error_is_a_known_failure(pools):
    pool, _ = pools["mul"]
    long_op, short_op = pool.probe[0], pool.ops[0]
    limit = ValueError("Exceeds the limit (4300 digits) for integer string conversion")
    assert run.over_digit_limit(long_op, limit)
    assert not run.over_digit_limit(long_op, ValueError("bad token"))
    assert not run.over_digit_limit(long_op, RuntimeError(str(limit)))
    assert not run.over_digit_limit(short_op, limit)
    probe = run.Tally()
    probe.add(long_op, 0.1, None, limit)
    assert run.is_correct(run.Tally(), 0, probe)
    probe.add(long_op, 0.1, None, ZeroDivisionError())
    assert not run.is_correct(run.Tally(), 0, probe)


def test_a_crashed_op_makes_the_run_incorrect(pools):
    pool, _ = pools["mul"]
    tally = run.Tally()
    tally.add(pool.ops[0], 0.1, True)
    assert run.is_correct(tally, 0, run.Tally())
    tally.add(pool.ops[1], 0.1, None, ValueError("boom"))
    assert tally.failed == 1 and tally.wrong == 0
    assert not run.is_correct(tally, 0, run.Tally())


def test_layer_metrics_skip_a_verify_that_raised():
    def span(name, start, end, **info):
        s = Span(name, 0, None)
        s.start, s.end, s.info = start, end, info
        s.counts = SimpleNamespace(comparisons=0, heap_extractions=0, coeff_muls=0,
                                   coeff_adds=0)
        return s

    good = [span("verifier.verify", 0.0, 0.01 * k, extractions=100 * k, peak_terms=4,
                 input_terms=8, family="verify_many", valid=True, cert=f"c{k}",
                 direction="max") for k in (1, 2)]
    raised = span("verifier.verify", 0.0, 0.5, error="ValueError")
    metrics = run.layer_metrics(good + [raised], {}, run.Tally(), run.Tally(), 0.0)
    assert metrics["verifier.time_vs_extractions_slope"] == pytest.approx(1.0)
    assert metrics["verifier.peak_terms_per_input_term"] == 0.5
    assert metrics["verifier.extractions"] == 300
    assert metrics["verifier.verify_s"] == pytest.approx(0.53)


def test_dec_prints_past_the_digit_limit_without_changing_it():
    n = 7 ** 20000  # 16902 digits
    text = oracle.dec(n)
    back = 0
    for k in range(0, len(text), 1000):  # every int() call stays under the limit
        back = back * 10 ** len(text[k:k + 1000]) + int(text[k:k + 1000])
    assert back == n and len(text) == 16902
    assert oracle.dec(-n) == "-" + text
    assert oracle.coeff_text(Fraction(3, 7)) == "3/7"
    assert sys.get_int_max_str_digits() in (0, gen.INT_STR_LIMIT)


def test_order_keys_agree_with_polycert(lib):
    pc = lib.pc
    exps = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
    for name, key in oracle.ORDER_KEYS.items():
        order = pc.MonomialOrder(name)
        poly = pc.poly_from_terms(order, [(pc.ev_make(e), 1) for e in exps])
        assert [t.degrees.exponents for t in poly.terms] == sorted(exps, key=key,
                                                                   reverse=True)


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)


def test_last_line_is_the_result_object(capsys):
    assert run.main(["--workload", "verify", "--seed", "3", "--seconds", "0.3",
                     "--trace", "0"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == set(run.END_TO_END)


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mul", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_cross_check_flags_a_wrong_oracle(lib, pools, tmp_path):
    pool, workdir = pools["mul"]
    smallest = min((op for op in pool.ops if op.kind in ("mul", "mul_gb")),
                   key=lambda o: o.size)
    broken = replace(pool, ops=[replace(op, expect="0" * 64) if op is smallest else op
                                for op in pool.ops])
    assert run.cross_check(lib, pool, Path(workdir)) == 0
    assert run.cross_check(lib, broken, Path(workdir)) == 1


def test_each_run_is_scaled_by_the_speed_around_it(pools):
    pool, _ = pools["mul"]
    tally = run.Tally()
    tally.add(pool.ops[0], 0.2, True, tick=1)
    tally.add(pool.ops[1], 0.3, True, tick=5)
    scaled = tally.scaled(lambda tick: 0.5 if tick < 3 else 2.0)
    assert [r[1] for r in scaled.runs] == [0.1, 0.6]
    assert scaled.summary()["ops_per_s"] == pytest.approx(2 / 0.7)
    assert tally.summary()["ops_per_s"] == pytest.approx(2 / 0.5)
