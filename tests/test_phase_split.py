"""``scripts/phase_split.py`` times the phases of a pool's verifies.

A smoke run on a few ops: it prints one JSON line with a positive time for
each phase and writes nothing under ``perfbench/``.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "phase_split.py"


def test_phase_split_prints_each_phase_and_writes_nothing():
    before = sorted(p.relative_to(ROOT) for p in (ROOT / "perfbench").rglob("*"))
    out = subprocess.run([sys.executable, str(SCRIPT), "--repeat", "2", "--ops", "3"],
                         capture_output=True, text=True, check=True).stdout
    assert sorted(p.relative_to(ROOT) for p in (ROOT / "perfbench").rglob("*")) == before
    report = json.loads(out)
    assert (report["seed"], report["ops"], report["repeat"]) == (1, 3, 2)
    assert 1 <= report["certificates"] <= 3
    assert report["rational_mul_ops"] == 3
    for phase in ("parse_s", "setup_s", "setup_max_s", "setup_min_s", "verify_s",
                  "find_witness_s", "mul_heap_s", "mul_heap_counted_s", "print_s",
                  "print_rational_s", "rational_parse_s", "rational_find_witness_s",
                  "parse_live_mib"):
        assert report[phase] > 0
