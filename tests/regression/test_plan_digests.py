"""Byte-identity gate: every pinned program still plans to the same bytes.

``tools/plan_digests.py --check`` replays the 91 paper loops and the 379
fuzz programs of ``bench/pool.json`` cold and once more warm against
``tests/golden/plan_digests.json``.  It runs as a child with
``PYTHONHASHSEED=0`` -- the seed the deep ``plan`` digests are defined
under (see the tool's docstring) -- so the result does not depend on the
seed pytest itself was started with.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def test_plans_match_the_golden_digests_cold_and_warm():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "plan_digests.py"), "--check"],
        env={**os.environ, "PYTHONHASHSEED": "0"},
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "cold and warm" in done.stdout
