"""The chunk as the pool backends' unit: what crosses the process
boundary, the pools' lifetimes, and the one place per-iteration
isolation must stay."""

import os
import pickle
import signal
import sys
import threading
import time

import pytest

from repro.api import Engine, EngineConfig
from repro.ir import parse_program
from repro.runtime.backends import ChunkSpec, LoopTask, get_backend, plan_chunks
from repro.runtime.backends import processes, threads
from repro.runtime.backends.speculative import sequential_execute

SAXPY = """
program saxpy
param N
array X(N), Y(N)
main
  do i = 1, N @ l
    Y[i] = Y[i] + 3 * X[i]
  end
end
"""

# A[1] carries a value from every iteration to the next.
FLOW = (
    "program p\narray A(4)\nmain\n  do i = 1, 3 @ l\n"
    "    A[1] = A[1] + i\n    A[i + 1] = A[1]\n  end\nend\n"
)


def _saxpy_task(n=64) -> LoopTask:
    compiled = Engine(EngineConfig(use_disk_cache=False)).compile(SAXPY)
    task = compiled.executor("l").capture_task(
        {"N": n}, {"X": list(range(n)), "Y": [1] * n}
    )
    task.decisions = {"X": "shared", "Y": "shared"}
    return task


def _segments() -> set:
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


class TestIsolationStaysInTheReference:
    def test_a_wrong_plan_shows_in_the_sequential_backends_memory(self):
        """``decisions`` wrongly call the flow-dependent ``A`` shared.
        The reference backend isolates every iteration, so its merged
        memory differs from the in-order loop's -- which is how the
        oracle's memory-compare leg sees the dependence.  A chunk runs
        in place, so on one chunk the same wrong plan goes unnoticed:
        the reason the oracle's default backend is not a chunked one."""
        task = LoopTask(
            program=parse_program(FLOW), label="l", params={},
            pre_arrays={"A": [5, 0, 0, 0]}, pre_scalars={},
            frame_arrays={"A": ("A", 0)}, iterations=[1, 2, 3],
            index_name="i", decisions={"A": "shared"},
        )
        in_order, _ = sequential_execute(task)
        assert in_order == {"A": [11, 6, 8, 11]}
        isolated = get_backend("sequential").execute(task).arrays
        assert isolated == {"A": [8, 6, 7, 8]} != in_order
        one_chunk = get_backend("thread").execute(task, jobs=1).arrays
        assert one_chunk == in_order


class TestProcessWire:
    def test_a_run_returns_one_outcome_per_chunk(self):
        task = _saxpy_task()
        chunks = plan_chunks(64, 2, ChunkSpec("dynamic"))
        outcomes = processes.execute_chunks(task, chunks, 2)
        assert len(outcomes) == len(chunks) == 8
        assert [o.position for o in outcomes] == [c[-1] for c in chunks]
        marked = processes.execute_chunks(task, chunks, 2, marked=True)
        assert [o.position for o in marked] == list(range(64))

    def test_a_chunk_travels_as_its_range(self, monkeypatch):
        sent = []

        class Recording:
            def map(self, fn, payloads):
                sent.extend(payloads)
                return [fn(payload) for payload in payloads]

        monkeypatch.setattr(processes, "_pool", lambda jobs: Recording())
        task = _saxpy_task(4000)
        run = get_backend("process").execute(task, jobs=2)
        assert run.arrays == sequential_execute(task)[0]
        assert [positions for _, _, positions in sent] == [
            range(0, 2000), range(2000, 4000)
        ]
        assert all(len(pickle.dumps(p[2])) < 64 for p in sent)


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
class TestBrokenProcessPool:
    def test_a_killed_worker_costs_one_retried_run(self):
        compiled = Engine(EngineConfig(use_disk_cache=False)).compile(SAXPY)
        args = ("l", {"N": 64}, {"X": list(range(64)), "Y": [1] * 64})
        assert compiled.execute(*args, backend="process", jobs=2).correct
        before = _segments()
        pool = processes._pool(2)
        victim = next(iter(pool._processes))
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 10
        while not pool._broken and time.monotonic() < deadline:
            time.sleep(0.01)  # both retry sites work; pin the submit-time one
        for _ in range(2):
            report = compiled.execute(*args, backend="process", jobs=2)
            assert report.correct and report.parallel
            assert report.backend_used == "process" and report.chunks == 2
        fresh = processes._pool(2)
        assert fresh is not pool and victim not in fresh._processes
        assert _segments() <= before


class TestThreadPoolLifetime:
    def test_the_pool_is_kept_and_grows_on_demand(self):
        task = _saxpy_task()
        backend = get_backend("thread")
        expected = sequential_execute(task)[0]
        assert backend.execute(task, jobs=2).arrays == expected
        kept = threads._POOL
        assert kept is not None and threads._POOL_WORKERS >= 2
        assert backend.execute(task, jobs=2).arrays == expected
        assert threads._POOL is kept
        wider = threads._POOL_WORKERS + 1
        run = backend.execute(task, jobs=wider, chunk=ChunkSpec("dynamic"))
        assert run.arrays == expected and run.jobs == wider
        assert threads._POOL is not kept and threads._POOL_WORKERS == wider

    def test_concurrent_executes_that_grow_the_pool_all_finish(self):
        """Eight threads on two cores, each asking for a wider pool than
        the last: a grow closes the pool under the others, and every
        run must still return the in-order memory."""
        task = _saxpy_task()
        expected = sequential_execute(task)[0]
        base = threads._POOL_WORKERS
        barrier = threading.Barrier(8)
        results = []

        def run(width):
            barrier.wait(timeout=30)
            for jobs in (2, width):
                run = get_backend("thread").execute(
                    task, jobs=jobs, chunk=ChunkSpec("dynamic")
                )
                results.append(run.arrays == expected)

        workers = [
            threading.Thread(target=run, args=(base + 1 + k,)) for k in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert results == [True] * 16
        assert threads._POOL_WORKERS == base + 8

    def test_one_worker_runs_inline(self):
        ran_on = []
        threads.map_chunks(
            lambda c: ran_on.append(threading.current_thread()), [range(2)] * 3, 1
        )
        assert ran_on == [threading.current_thread()] * 3
