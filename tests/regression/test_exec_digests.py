"""Field-for-field gate: every pinned execute still reports the same.

``tools/exec_digests.py --check`` re-executes the 91 paper loops, the 32
``mix`` programs of ``bench/pool.json`` on all five backends and the
quick kernel matrix, and compares every ``ExecutionReport`` field but
``wall_s`` against ``tests/golden/exec_digests.json``.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def test_execution_reports_match_the_golden_digests():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "exec_digests.py"), "--check"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "every item matches" in done.stdout
