#!/usr/bin/env python3
"""polycert benchmark: seeded workloads, one closed-loop client, checked results.

Run from the repository root:

    python3 perfbench/run.py --workload mul --seed 1 --seconds 45 --trace 0

``--trace 0`` sets the workload up several times (median reported as
``setup_s``), then runs ops one after another, each sent when the previous
one has finished, until the ops have taken ``--seconds`` seconds, and reports
the end-to-end metrics at the reference speed (see speed.py).  ``--trace 1``
runs one fixed pass of the op pool, each op untraced and then with a span
around every call into polycert, and reports the per-layer metrics.  Every
outcome is checked against the oracle.  Both modes then run the pool's probe
(ops over the int-string digit limit, which fail today) once, outside the
metrics, and report it.
The last line of stdout is one JSON object; the lines before it are a report
for people.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import gen  # the benchmark's own modules sit beside this file
from execute import Lib, check, cli_expected_code, run_op
from oracle import digest, dmul
from spans import NullTracer, Tracer
from speed import SpeedReference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
TICK_S = 0.5  # op time between two timings of the speed reference
NEAR_TICKS = 3  # an op is scaled by this many timings before it and after it
CROSS_CHECKS = 4  # smallest items per kind checked against polycert's naive kernels
OUT_DIR = ROOT / ".perfbench_out"
LIMIT_MESSAGE = "integer string conversion"  # in CPython's digit-limit ValueError

END_TO_END = {  # name: unit
    "setup_s": "s",
    "op_s_p50": "s",
    "op_s_p90": "s",
    "ops_per_s": "1/s",
    "peak_rss_mib": "MiB",
}
PER_LAYER = {
    "textio.parse_s": "s",
    "textio.parse_terms_per_s": "terms/s",
    "textio.print_s": "s",
    "textio.print_terms_per_s": "terms/s",
    "textio.bytes_in": "bytes",
    "textio.bytes_out": "bytes",
    "monomial.comparisons": "count",
    "monomial.comparisons_per_extraction": "ratio",
    "poly.add_s": "s",
    "poly.coeff_muls": "count",
    "poly.coeff_adds": "count",
    "geobucket.add_s": "s",
    "geobucket.comparisons": "count",
    "heapmul.mul_s": "s",
    "heapmul.extractions": "count",
    "heapmul.ns_per_extraction": "ns",
    "heapmul.route_convert_s": "s",
    "heapmul.route_per_bucket_s": "s",
    "heapmul.route_hybrid_s": "s",
    "heapmul.dict_floor_ratio": "ratio",
    "verifier.verify_s": "s",
    "verifier.extractions": "count",
    "verifier.ns_per_extraction": "ns",
    "verifier.time_vs_extractions_slope": "slope",
    "verifier.peak_terms_per_input_term": "ratio",
    "verifier.min_first_extraction_share": "ratio",
    "verifier.combine_s": "s",
    "recursive.to_recursive_s": "s",
    "recursive.pseudo_divide_s": "s",
    "recursive.to_distributed_s": "s",
    "recursive.max_coeff_bits": "bits",
    "cli.main_s": "s",
    "cli.exit_mismatches": "count",
    "counters.trace_overhead_ratio": "ratio",
}


def over_digit_limit(op, exc: Exception) -> bool:
    """The known failure (ROADMAP item 4): an op holding a coefficient over
    the int-string digit limit raises the interpreter's ValueError for it."""
    return op.long_coeff and isinstance(exc, ValueError) and LIMIT_MESSAGE in str(exc)


class Tally:
    """Outcomes of a sequence of ops."""

    def __init__(self, runs=()):
        # (op, seconds, ok, known, tick): ok is None if the op raised, known
        # is True if that was the int-string digit-limit failure, tick is the
        # number of speed-reference timings taken before the op ended
        self.runs: list[tuple] = list(runs)
        self.busy = sum(r[1] for r in self.runs)  # seconds inside ops
        self.errors: Counter = Counter()

    def add(self, op, seconds: float, ok: bool | None,
            exc: Exception | None = None, tick: int = 0) -> None:
        known = exc is not None and over_digit_limit(op, exc)
        self.runs.append((op, seconds, ok, known, tick))
        self.busy += seconds
        if ok is False:
            self.errors[f"wrong {op.kind}"] += 1
        elif ok is None:
            limit = " over the int-string digit limit" if known else ""
            self.errors[f"{type(exc).__name__}{limit} in {op.kind}"] += 1

    def family(self, name: str) -> Tally:
        return Tally(r for r in self.runs if r[0].family == name)

    def scaled(self, factor) -> Tally:
        """These runs with each time multiplied by ``factor(tick)``."""
        return Tally((op, seconds * factor(tick), ok, known, tick)
                     for op, seconds, ok, known, tick in self.runs)

    @property
    def failed(self) -> int:
        return sum(not r[2] for r in self.runs)

    @property
    def wrong(self) -> int:
        return sum(r[2] is False for r in self.runs)

    @property
    def known_limit(self) -> int:
        """Failures that are the int-string digit-limit ValueError."""
        return sum(r[3] for r in self.runs)

    def per_op(self) -> list[float]:
        """Each op's median time over its runs (+inf if one failed), sorted.

        The loop runs the pool's ops over and over; taking one figure per op
        weighs every op alike however far the last pass got, and damps the
        machine's short slow spells.
        """
        runs = defaultdict(list)
        for op, seconds, ok, *_ in self.runs:
            runs[op.index].append(seconds if ok else math.inf)
        return sorted(math.inf if math.inf in ts else statistics.median(ts)
                      for ts in runs.values())

    def summary(self) -> dict:
        """The end-to-end figures of these runs."""
        per_op = self.per_op()
        p90 = percentile(per_op, 0.90)
        return {
            "op_s_p50": percentile(per_op, 0.50),
            "op_s_p90": p90,
            "ops_per_s": (len(self.runs) - self.failed) / self.busy,
            "error_rate": self.failed / len(self.runs),
            "runs": len(self.runs),
            "ops": len(per_op),
            "ops_beyond_p90": sum(t > p90 for t in per_op),
            "failed": self.failed,
        }


def run_ops(lib, ops, workdir: str, tr, seconds: float | None = None,
            wall_cap: float = math.inf, tally: Tally | None = None,
            speed: SpeedReference | None = None) -> Tally:
    """Closed loop, one client: each op starts when the previous one ends.

    Stops after ``seconds`` of op time (all of ``ops`` when None), or when
    the wall clock, which also counts checking, passes ``wall_cap``.
    Outcomes are added to ``tally`` (a new one when None), which is returned.
    ``speed``, if given, is timed after every ``TICK_S`` of op time.
    """
    tally = Tally() if tally is None else tally
    started, ticks = perf_counter(), 0
    for op in ops:
        error = None
        with tr.op(op.index):
            t0 = perf_counter()
            try:
                outcome = run_op(lib, op, workdir, tr)
            except Exception as exc:  # a crash is a failed op, never a verdict
                outcome, error = None, exc
            elapsed = perf_counter() - t0
        tally.add(op, elapsed, None if error else check(op, outcome), error,
                  0 if speed is None else speed.ticks)
        if speed is not None and tally.busy >= TICK_S * ticks:
            speed.tick()
            ticks += 1
        if seconds is not None and tally.busy >= seconds:
            break
        if perf_counter() - started > wall_cap:
            break
    return tally


def cycle(pool):
    if pool.reference is not None:
        yield pool.reference
    while True:
        yield from pool.ops


def cross_check(lib, pool, workdir: Path) -> int:
    """Check the oracle on the smallest items against polycert's naive kernels."""
    pc = lib.pc
    mismatches = 0
    certs = [op for op in pool.ops if op.kind == "verify"]
    for op in sorted(certs, key=lambda o: o.size)[:CROSS_CHECKS]:
        cert = pc.parse_certificate((workdir / op.files[0]).read_text(encoding="utf-8"))
        res = pc.verify_naive(cert)
        got = ("valid",) if res.valid else ("invalid", res.witness[0].exponents,
                                            res.witness[1])
        mismatches += got != op.expect
    muls = [op for op in pool.ops if op.kind in ("mul", "mul_gb")]
    for op in sorted(muls, key=lambda o: o.size)[:CROSS_CHECKS]:
        varset, order = pc.VariableSet(op.names), pc.MonomialOrder(op.order)
        p, q = (pc.parse_poly((workdir / f).read_text(encoding="utf-8"), varset, order)
                for f in op.files)
        mismatches += digest(pc.print_poly(pc.mul_naive(p, q), varset)) != op.expected()
    return mismatches


def warm_up(lib, pool, workdir: str) -> None:
    """Run the smallest op of each kind once, untimed."""
    smallest = {}
    for op in pool.ops:
        key = (op.kind, op.cli)
        if key not in smallest or op.size < smallest[key].size:
            smallest[key] = op
    run_ops(lib, smallest.values(), workdir, NullTracer())


def setup(workload: str, seed: int, workdir: Path):
    """Generate the inputs, write the files, import polycert and warm up."""
    t0 = perf_counter()
    pool = gen.build(workload, seed)
    workdir.mkdir(parents=True, exist_ok=True)
    for name, text in pool.files.items():
        (workdir / name).write_text(text, encoding="utf-8")
    pool.files.clear()
    lib = Lib()
    for op in pool.ops + [pool.reference] * (pool.reference is not None):
        lib.prepare(op)
    mismatches = cross_check(lib, pool, workdir)
    warm_up(lib, pool, str(workdir))
    return pool, lib, mismatches, perf_counter() - t0


def run_probe(lib, pool, workdir: str) -> Tally:
    """Run the probe ops once, untimed and untraced.

    They fail today with the digit-limit ValueError; any other failure, or a
    wrong verdict, makes the run incorrect.
    """
    return run_ops(lib, pool.probe, workdir, NullTracer())


def is_correct(tally: Tally, mismatches: int, probe: Tally) -> bool:
    """No measured op failed, the oracle agreed with polycert's naive kernels
    at set-up, and the probe failed only with the digit-limit ValueError."""
    return (tally.failed == 0 and mismatches == 0 and probe.wrong == 0
            and probe.failed == probe.known_limit)


def heap_and_floor_s(lib, op, workdir: Path) -> tuple[float, float]:
    """Seconds of one untraced ``mul_heap`` call on a mul op's factors, and
    of the dict-accumulate product of the same factors, back to back."""
    pc = lib.pc
    varset, order = pc.VariableSet(op.names), pc.MonomialOrder(op.order)
    p, q = (pc.parse_poly((workdir / f).read_text(encoding="utf-8"), varset, order)
            for f in op.files)
    t0 = perf_counter()
    pc.mul_heap(p, q)
    t1 = perf_counter()
    dmul(*op.factors)
    return t1 - t0, perf_counter() - t1


def percentile(sorted_times: list[float], p: float, band: float = 0.05) -> float:
    """Geometric mean of the values ranked within ``band`` of quantile p.

    A single order statistic jumps when the ops near it change from seed to
    seed, and the more so where two families of ops meet; the mean over the
    tenth of the ops around p moves smoothly.  +inf (a miss) in the band
    makes the result +inf.
    """
    n = len(sorted_times)
    lo = max(0, math.floor((p - band) * n))
    hi = min(n, max(lo + 1, math.ceil((p + band) * n)))
    window = sorted_times[lo:hi]
    if math.inf in window:
        return math.inf
    return math.exp(statistics.fmean(math.log(t) for t in window))


def end_to_end(workload, seed, seconds, workdir):
    setups, state, speed = [], None, SpeedReference()
    for _ in range(SETUP_REPEATS):
        state = None  # let the previous pool go before building the next
        speed.tick()
        state = setup(workload, seed, workdir)
        setups.append(state[-1])
        speed.tick()
    pool, lib, mismatches, _ = state
    loop0 = speed.ticks
    tally = run_ops(lib, cycle(pool), str(workdir), NullTracer(), seconds,
                    wall_cap=3 * seconds + 30, speed=speed)
    # every time by the machine's speed around it: a set-up by the timings
    # just before and after it, an op by the 2 * NEAR_TICKS nearest it
    setups_scaled = [t * speed.scale(2 * j, 2 * j + 2) for j, t in enumerate(setups)]
    near = functools.lru_cache(maxsize=None)(
        lambda k: speed.scale(max(loop0, k - NEAR_TICKS), k + NEAR_TICKS))
    scaled = tally.scaled(near)
    whole = scaled.summary()
    metrics = {
        "setup_s": statistics.median(setups_scaled),
        "op_s_p50": whole["op_s_p50"],
        "op_s_p90": whole["op_s_p90"],
        "ops_per_s": whole["ops_per_s"],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "speed_scale": speed.scale(loop0),
        "speed_scale_setup": speed.scale(0, loop0),
        "speed_ticks": speed.ticks,
        "speed_job_median_s": {k: statistics.median(v) for k, v in speed.times.items()},
        "unscaled": {"setup_s": statistics.median(setups), **tally.summary()},
        "setup_s_each": setups,
        "all": whole,
    }
    for family in gen.WORKLOADS[workload]:
        notes[family] = scaled.family(family).summary()
    probe = run_probe(lib, pool, str(workdir))
    return pool, tally, mismatches, metrics, notes, probe


def layer_metrics(spans, ops_by_index, untraced: Tally, traced: Tally,
                  floor_ratio: float):
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)

    def self_s(*names):
        return sum(s.self_s for n in names for s in by[n])

    def info(names, key):
        return sum(s.info.get(key, 0) for n in names for s in by[n])

    def counted(names, field):
        return sum(getattr(s.counts, field) for n in names for s in by[n])

    def ratio(a, b):
        return a / b if b else 0.0

    parse = ("textio.parse_poly", "textio.parse_certificate")
    prints = ("textio.print_poly",)
    heap = ("heapmul.mul_heap",)
    heap_all = heap + tuple(n for n in by if n.startswith("heapmul.mul_heap_gb."))
    # a verify that raised has no stats to read; its time still counts
    verify = [s for s in by["verifier.verify"] if "error" not in s.info]
    counted_names = [n for n in by if n != "op"]

    # many-pairs certificates, full scans only: an early exit costs the heap
    # set-up, not its extractions
    points = [(math.log(s.info["extractions"]), math.log(s.end - s.start))
              for s in verify if s.info["family"] == "verify_many"
              and s.info["valid"] and s.info["extractions"] > 0]
    slope = 0.0
    if len(points) > 1:
        mx = statistics.fmean(x for x, _ in points)
        my = statistics.fmean(y for _, y in points)
        var = sum((x - mx) ** 2 for x, _ in points)
        slope = ratio(sum((x - mx) * (y - my) for x, y in points), var)

    both = defaultdict(dict)  # invalid certificates verified in both directions
    for s in verify:
        if not s.info.get("valid", True):
            both[s.info["cert"]][s.info["direction"]] = s.info["extractions"]
    both = [d for d in both.values() if len(d) == 2]

    cli = by["cli.main"]
    return {
        "textio.parse_s": self_s(*parse),
        "textio.parse_terms_per_s": ratio(info(parse, "terms"), self_s(*parse)),
        "textio.print_s": self_s(*prints),
        "textio.print_terms_per_s": ratio(info(prints, "terms"), self_s(*prints)),
        "textio.bytes_in": info(parse, "bytes"),
        "textio.bytes_out": info(prints, "bytes"),
        "monomial.comparisons": counted(counted_names, "comparisons"),
        "monomial.comparisons_per_extraction": ratio(
            counted(heap_all, "comparisons"), counted(heap_all, "heap_extractions")),
        "poly.add_s": self_s("poly.add"),
        "poly.coeff_muls": counted(counted_names, "coeff_muls"),
        "poly.coeff_adds": counted(counted_names, "coeff_adds"),
        "geobucket.add_s": self_s("geobucket.add"),
        "geobucket.comparisons": counted(("geobucket.add",), "comparisons"),
        "heapmul.mul_s": self_s(*heap),
        "heapmul.extractions": counted(heap, "heap_extractions"),
        "heapmul.ns_per_extraction": ratio(1e9 * self_s(*heap),
                                           counted(heap, "heap_extractions")),
        "heapmul.route_convert_s": self_s("heapmul.mul_heap_gb.convert"),
        "heapmul.route_per_bucket_s": self_s("heapmul.mul_heap_gb.per-bucket"),
        "heapmul.route_hybrid_s": self_s("heapmul.mul_heap_gb.hybrid"),
        "heapmul.dict_floor_ratio": floor_ratio,
        "verifier.verify_s": self_s("verifier.verify"),
        "verifier.extractions": info(("verifier.verify",), "extractions"),
        "verifier.ns_per_extraction": ratio(1e9 * self_s("verifier.verify"),
                                            info(("verifier.verify",), "extractions")),
        "verifier.time_vs_extractions_slope": slope,
        "verifier.peak_terms_per_input_term": max(
            (ratio(s.info["peak_terms"], s.info["input_terms"]) for s in verify),
            default=0.0),
        "verifier.min_first_extraction_share": ratio(
            sum(d["min"] for d in both), sum(d["max"] for d in both)),
        "verifier.combine_s": self_s("verifier.combine"),
        "recursive.to_recursive_s": self_s("recursive.to_recursive"),
        "recursive.pseudo_divide_s": self_s("recursive.univ_pseudo_divide"),
        "recursive.to_distributed_s": self_s("recursive.to_distributed"),
        "recursive.max_coeff_bits": max(
            (s.info.get("coeff_bits", 0) for s in by["recursive.to_distributed"]),
            default=0),
        "cli.main_s": self_s("cli.main"),
        "cli.exit_mismatches": sum(
            s.info.get("code") != cli_expected_code(ops_by_index[s.op]) for s in cli),
        "counters.trace_overhead_ratio": ratio(traced.busy, untraced.busy) - 1,
    }


def per_layer(workload, seed, workdir):
    pool, lib, mismatches, _ = setup(workload, seed, workdir)
    ops = [pool.reference] * (pool.reference is not None) + pool.ops
    untraced, traced = Tally(), Tally()
    null, tracer = NullTracer(), Tracer(lib.pc.count_ops)
    heap_s = dict_s = 0.0  # mul_sparse products: mul_heap, and the dict floor
    # each op untraced, traced, then its floor, back to back, so that each
    # ratio compares times taken at one machine speed
    for op in ops:
        run_ops(lib, [op], str(workdir), null, tally=untraced)
        run_ops(lib, [op], str(workdir), tracer, tally=traced)
        if op.kind == "mul" and not op.cli and op.family == "mul_sparse":
            heap, floor = heap_and_floor_s(lib, op, workdir)
            heap_s += heap
            dict_s += floor
    ops_by_index = {op.index: op for op in ops}
    metrics = layer_metrics(tracer.spans, ops_by_index, untraced, traced,
                            heap_s / dict_s if dict_s else 0.0)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans_{workload}_seed{seed}.jsonl"
    tracer.dump(spans_path)
    tally = Tally(untraced.runs + traced.runs)  # both count toward attempted, failed
    tally.errors = untraced.errors + traced.errors
    notes = {"untraced_busy_s": untraced.busy, "traced_busy_s": traced.busy,
             "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT))}
    probe = run_probe(lib, pool, str(workdir))
    return pool, tally, mismatches, metrics, notes, probe


def git_rev() -> str:
    if (ROOT / ".git").exists():  # else git would report an enclosing repository
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            if proc.returncode == 0:
                return proc.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "polycert" / "__init__.py").is_file():
        sys.stderr.write(f"error: polycert sources not found under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            result = per_layer(args.workload, args.seed, workdir)
        else:
            result = end_to_end(args.workload, args.seed, args.seconds, workdir)
        pool, tally, mismatches, metrics, notes, probe = result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    units = PER_LAYER if args.trace else END_TO_END
    attempted = len(tally.runs)
    env = {
        "python": platform.python_version(),
        "git_rev": git_rev(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "seed": args.seed,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "int_max_str_digits": sys.get_int_max_str_digits()
        if hasattr(sys, "get_int_max_str_digits") else None,
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "pool_ops": len(pool.ops),
        "probe_ops": len(pool.probe),
        "ops_attempted": attempted,
    }
    report = {
        "env": env,
        "failed": tally.failed,
        "wrong": tally.wrong,
        "errors": dict(tally.errors),
        "setup_cross_check_mismatches": mismatches,
        "probe": {"ops": len(probe.runs), "failed": probe.failed, "wrong": probe.wrong,
                  "over_digit_limit": probe.known_limit, "errors": dict(probe.errors)},
        "notes": notes,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for k, v in metrics.items():
        print(f"{k:40s} {v:>16.6g} {units[k]}")
    if not args.trace:
        raw = notes["unscaled"]
        print(f"# times are at the reference speed, each scaled by the speed timed "
              f"around it: on average x {notes['speed_scale']:.4f} in the loop, "
              f"x {notes['speed_scale_setup']:.4f} in set-up "
              f"(unscaled setup_s={raw['setup_s']:.6g} op_s_p50={raw['op_s_p50']:.6g} "
              f"op_s_p90={raw['op_s_p90']:.6g} ops_per_s={raw['ops_per_s']:.6g})")
        for name in ("all",) + gen.WORKLOADS[args.workload]:
            f = notes[name]
            print(f"# {name}: op_s_p50={f['op_s_p50']:.6g} op_s_p90={f['op_s_p90']:.6g} "
                  f"ops_per_s={f['ops_per_s']:.6g} error_rate={f['error_rate']:.6g} "
                  f"({f['failed']} failed of {f['runs']} runs); percentiles over "
                  f"{f['ops']} ops, {f['ops_beyond_p90']} beyond p90")
    if pool.probe:
        family = pool.probe[0].family
        pooled = sum(op.family == family for op in pool.ops) + len(pool.probe)
        print(f"# probe: {len(pool.probe)} {family} ops with a coefficient over the "
              f"int-string digit limit, run once outside the metrics: "
              f"{probe.known_limit} failed with the limit's ValueError (ROADMAP item 4), "
              f"{probe.failed - probe.known_limit} otherwise; {family} error_rate with "
              f"them at their pool share: {probe.failed}/{pooled} = "
              f"{probe.failed / pooled:.4g}")
    for kind, n in sorted((tally.errors + probe.errors).items()):
        print(f"# failed: {kind} x{n}")
    print(f"# full report: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": is_correct(tally, mismatches, probe),
        "attempted": attempted,
        "failed": tally.failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # str hashes, and with them dict layouts and how the heap fragments,
        # differ from process to process unless fixed: one seed's
        # peak_rss_mib varied by 3-4 MiB of 60 between runs with them
        # random, by under 0.1 MiB with them fixed
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
