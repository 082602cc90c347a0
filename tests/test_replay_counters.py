"""Smoke test of ``scripts/replay_counters.py``: its digest is reproducible.

The script's line is what a change compares against its parent to show that
no output and no counter moved, so two runs of one checkout, in separate
processes with their own string-hash seeds, must print the same line, and
that line is pinned.
"""

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "replay_counters.py"


def test_replay_digest_is_stable():
    runs = [
        subprocess.run([sys.executable, str(SCRIPT), "--seeds", "4"],
                       capture_output=True, text=True, check=True).stdout
        for _ in range(2)
    ]
    assert re.fullmatch(r"44 records sha256 [0-9a-f]{64}\n", runs[0])
    assert runs[1] == runs[0]
    # pinned: a change that moves any output or counter changes this line
    assert runs[0] == (
        "44 records sha256 "
        "8d981ccefc9690a562eb4a7e79f9abe25d87c07c5a689ad172f4d32e089668f9\n"
    )
