"""``scripts/replay_counters.py --seeds 300`` prints its pinned line.

The 4-seed digest (``test_replay_counters.py``) is quick; 300 seeds reach
far more of the kernels' shapes (wide exponents, rational coefficients,
abandoned merges, every route), so a change that moves any output or
counter on them changes this line.
"""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "replay_counters.py"


def test_replay_300_seeds_pinned():
    out = subprocess.run([sys.executable, str(SCRIPT), "--seeds", "300"],
                         capture_output=True, text=True, check=True).stdout
    assert out == (
        "3300 records sha256 "
        "e14ae536a992949ac46d7708e1f935db9590c585a71a7aab5f3e31a1a95040db\n"
    )
