"""The benchmark's work-count smoke check as a standing test.

``perfbench/smoke.py`` runs every benchmark workload once on shrunken grids
and compares the exact work counts of each layer with its recorded file, so
a change that alters how much work the numerics do fails here.
"""

import subprocess
import sys
from pathlib import Path

import pytest

SMOKE = Path(__file__).resolve().parents[1] / "perfbench" / "smoke.py"


@pytest.mark.skipif(not SMOKE.is_file(), reason="perfbench/ is not present")
def test_perfbench_smoke_work_counts_match():
    proc = subprocess.run([sys.executable, str(SMOKE)], capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
