"""Nothing a pool backend starts outlives the interpreter that used it.

``tools/no_orphans.py`` runs a fresh interpreter in a session of its
own and fails if any process of that session outlives its parent, a
zombie still there when the interpreter exits included.  The
interpreter does one ``process`` execute and one ``speculative``
execute large enough for the process pool's marked run, and checks from
the inside that neither left a shared-memory segment or started a
resource tracker (the helper process ``multiprocessing`` starts to
clean up named segments, which nothing waits for at exit)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

CHILD = """
import os
from multiprocessing import resource_tracker
from repro.api import Engine, EngineConfig
from repro.runtime.backends import speculative

def segments():
    if not os.path.isdir("/dev/shm"):
        return set()
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}

SAXPY = '''
program saxpy
param N
array X(N), Y(N)
main
  do i = 1, N @ l
    Y[i] = Y[i] + 3 * X[i]
  end
end
'''
before = segments()
compiled = Engine(EngineConfig(use_disk_cache=False)).compile(SAXPY)
n = speculative.PROCESS_MIN_ITERS  # the marked run goes to the process pool
args = ("l", {"N": n}, {"X": list(range(n)), "Y": [1] * n})
for backend in ("process", "speculative"):
    report = compiled.execute(*args, backend=backend, jobs=2)
    assert report.correct and report.parallel, report
    assert report.backend_used == backend and report.chunks == 2, report
assert segments() <= before, f"segments left: {segments() - before}"
assert resource_tracker._resource_tracker._pid is None, "a resource tracker started"
print("child: ok")
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
def test_pool_executes_leave_no_process_segment_or_tracker():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "no_orphans.py"), "--",
         sys.executable, "-c", CHILD],
        env=env, capture_output=True, text=True, timeout=300,
    )
    output = done.stdout + done.stderr
    assert done.returncode == 0, output
    assert "child: ok" in done.stdout, output
    assert "nothing outlived the command (exit 0)" in done.stdout, output
