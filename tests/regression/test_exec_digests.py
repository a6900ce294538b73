"""Field-for-field gate: every pinned execute still reports the same.

``tools/exec_digests.py --check`` re-executes the 91 paper loops, the 32
``mix`` programs of ``bench/pool.json`` on all five backends and the
quick kernel matrix, and compares every ``ExecutionReport`` field but
``wall_s`` against ``tests/golden/exec_digests.json``.  ``--lowered``
prints one sha256 over the Python code generated for every unit of those
programs, which must not depend on the hash seed.
"""

import os
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


def test_generated_code_is_the_same_under_two_hash_seeds():
    lines = []
    for seed in ("0", "1"):
        done = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "exec_digests.py"), "--lowered"],
            capture_output=True,
            text=True,
            timeout=600,
            env=dict(os.environ, PYTHONHASHSEED=seed),
        )
        assert done.returncode == 0, done.stdout + done.stderr
        lines.append(done.stdout)
    assert lines[0] == lines[1] and "sha256" in lines[0]
