"""The chunk as the pool backends' unit: what crosses the process
boundary, the pools' lifetimes, and the one place per-iteration
isolation must stay."""

import dataclasses
import os
import pickle
import signal
import sys
import threading
import time

import pytest

from repro.api import Engine, EngineConfig
from repro.evaluation import profile
from repro.fuzz.oracle import classify_outcome
from repro.ir import parse_program
from repro.runtime.backends import ChunkSpec, LoopTask, get_backend, plan_chunks
from repro.ir.interp import Machine
from repro.runtime.backends import base, processes, speculative, threads
from repro.runtime.backends.speculative import sequential_execute
from repro.runtime.executor import ArrayDecision, HybridExecutor

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

    def test_a_wrong_shared_claim_run_in_place_is_unsound_by_the_trace(self, monkeypatch):
        """The same loop with every decision forced to ``shared`` goes
        in place on ``thread``; one chunk of it is the in-order loop, so
        the executor's memory comparison passes.  The oracle still
        calls it unsound: its trace leg sees the claim of independence
        fail."""
        compiled = Engine(EngineConfig(use_disk_cache=False)).compile(FLOW)
        plan = compiled.plan("l")
        monkeypatch.setattr(
            HybridExecutor, "_decide_array",
            lambda self, array, *rest: ArrayDecision(array, "shared", "static"),
        )
        with profile.profiling():
            report = compiled.execute(
                "l", {}, {"A": [5]}, plan=plan, backend="thread", jobs=1
            )
            assert profile.snapshot().counts.get("backends.chunk_in_place") == 1
        assert report.parallel and report.correct and report.backend_used == "thread"
        trace = Machine(compiled.program, {}, {"A": [5]}, trace_label="l").run().trace
        outcome, detail = classify_outcome(plan, trace, report)
        assert outcome == "unsound"
        assert detail.startswith("A: claimed fully independent (via static")


def test_the_in_place_target_copies_only_the_arrays_the_loop_assigns():
    """``thread``'s in-place run of an all-``shared`` task copies what
    the unit assigns and shares every other list with the pre-loop
    memory, which it leaves as it found it."""
    task = _saxpy_task()
    run = get_backend("thread").execute(task, jobs=2)
    assert run.arrays["X"] is task.pre_arrays["X"]
    assert run.arrays["Y"] is not task.pre_arrays["Y"]
    assert task.pre_arrays["Y"] == [1] * 64
    assert run.arrays["Y"] == [1 + 3 * x for x in range(64)]


def _task(body, pre, decisions, iterations, extra="") -> LoopTask:
    """A hand-built task over ``do i = ... @ l`` with *body*."""
    decls = ", ".join(f"{name}({len(values)})" for name, values in pre.items())
    program = parse_program(
        f"program p\narray {decls}\n{extra}main\n  do i = 1, {len(iterations)} @ l\n"
        f"{body}  end\nend\n"
    )
    return LoopTask(
        program=program, label="l", params={}, pre_arrays=pre, pre_scalars={},
        frame_arrays={name: (name, 0) for name in pre}, iterations=iterations,
        index_name="i", decisions=decisions,
    )


def _carved(task, size, backend="thread"):
    run = get_backend(backend).execute(task, jobs=2, chunk=ChunkSpec("static", size))
    return run.arrays


class TestCopyOut:
    """A chunk whose loop assigns only ``shared`` and ``reduction``
    arrays is copied out by diff against the pre-loop memory; one that
    assigns a ``private`` (or undecided) array, or leaves the generated
    code, keeps its record.  Each pin is the case that would break the
    other way."""

    def _path(self, task):
        return base._copy_out(task, task.program.find_loop("l"), 2)[0]

    def test_a_shared_write_that_stores_the_pre_loop_value_back(self):
        task = _task("    A[i] = 5\n", {"A": [5, 0, 5, 1]}, {"A": "shared"}, [1, 2, 3, 4])
        assert self._path(task) == "diff"
        outcomes = [base.execute_chunk(task, chunk) for chunk in plan_chunks(4, 2)]
        # locations 1 and 3 changed nothing anyone can observe: not copied
        assert [o.writes for o in outcomes] == [{"A": [2]}, {"A": [4]}]
        assert [o.values for o in outcomes] == [{"A": {2: 5}}, {"A": {4: 5}}]
        assert _carved(task, 2) == _carved(task, 1) == {"A": [5, 5, 5, 5]}

    def test_a_reduction_location_hit_by_three_chunks(self):
        task = _task(
            "    H[1] = H[1] + V[i]\n", {"H": [100, 7], "V": [1, 2, 3, 4, 5, 6]},
            {"H": "reduction", "V": "shared"}, [1, 2, 3, 4, 5, 6],
        )
        assert self._path(task) == "diff"
        outcomes = [base.execute_chunk(task, c) for c in plan_chunks(6, 2, ChunkSpec(size=2))]
        assert [o.updates for o in outcomes] == [{"H": [1]}] * 3
        assert [o.values["H"][1] for o in outcomes] == [103, 107, 111]  # pre + own deltas
        for size in (1, 2, 3, 6):
            assert _carved(task, size) == sequential_execute(task)[0]
            assert _carved(task, size)["H"] == [121, 7]

    def test_one_iterations_plain_write_to_a_reduction_array(self):
        """The EXT-RRED shape: location 2 is written plainly, by one
        iteration alone, so ``target == pre`` still holds when its
        delta lands and ``pre + (7 - pre)`` is the assignment."""
        task = _task(
            "    if i == 3 then\n      H[2] = 7\n    else\n      H[1] = H[1] + i\n    end\n",
            {"H": [10, 50]}, {"H": "reduction"}, [1, 2, 3, 4],
        )
        assert self._path(task) == "diff"
        for size in (1, 2, 4):
            assert _carved(task, size) == sequential_execute(task)[0] == {"H": [17, 7]}

    def test_a_private_array_whose_later_write_equals_the_pre_loop_value(self):
        """Last-value semantics: chunk 2 leaves ``T[1]`` at its pre-loop
        value, and that -- not chunk 1's 2 -- is the loop's.  A diff sees
        no change in chunk 2, which is why ``private`` keeps the record
        (the same task wrongly called ``shared`` shows the loss on
        ``process``, which diffs it; ``thread`` runs it in place)."""
        body = "    T[1] = 4 - i\n    OUT[i] = T[1]\n"
        pre = {"T": [0], "OUT": [9, 9, 9, 9]}
        task = _task(body, pre, {"T": "private", "OUT": "shared"}, [1, 2, 3, 4])
        assert self._path(task) == "record"
        for backend in ("thread", "process"):
            assert _carved(task, 2, backend) == sequential_execute(task)[0]
            assert _carved(task, 2, backend) == {"T": [0], "OUT": [3, 2, 1, 0]}
        undecided = dataclasses.replace(task, decisions={"OUT": "shared"})
        assert self._path(undecided) == "record" and _carved(undecided, 2)["T"] == [0]
        wrong = dataclasses.replace(task, decisions={"T": "shared", "OUT": "shared"})
        assert self._path(wrong) == "diff" and _carved(wrong, 2, "process")["T"] == [2]

    def test_a_short_chunk_over_a_long_array_keeps_its_record(self):
        """Both copy-outs are exact here; comparing 4096 elements to
        learn what four statements wrote is the dearer one.  The
        executor hands over the work its in-order run counted; a task
        without it (hand-built, ``capture_task``) is diffed."""
        task = _task("    A[i] = i\n", {"A": [7] * 4096}, {"A": "shared"}, [1, 2, 3, 4])
        paths = {}
        for work in (None, 4.0, 512.0):
            task.work = work
            paths[work] = self._path(task)
            assert _carved(task, 2) == sequential_execute(task)[0]
        assert paths == {None: "diff", 4.0: "record", 512.0: "diff"}
        compiled = Engine(EngineConfig(use_disk_cache=False)).compile(task.program)
        seen = []
        backend = get_backend("thread")
        backend.execute = lambda t, **kw: (
            seen.append(t.work), type(backend).execute(backend, t, **kw))[1]
        try:
            assert compiled.execute("l", {}, {}, backend="thread", jobs=2).correct
        finally:
            del backend.execute
        assert seen == [4.0]

    def test_a_body_with_a_call_keeps_its_record(self):
        task = _task(
            "    call put(A[], i)\n", {"A": [0, 0, 0, 0]}, {"A": "shared"}, [1, 2, 3, 4],
            extra="subroutine put(X[], k)\n  X[k] = k * k\nend\n",
        )
        assert self._path(task) == "record"  # the unit cannot tell what the callee writes
        assert _carved(task, 2) == sequential_execute(task)[0] == {"A": [1, 4, 9, 16]}

    def test_a_labelled_inner_loop_keeps_its_record(self):
        task = _task(
            "    do j = 1, 2 @ inner\n      A[2 * i + j - 2] = i\n    end\n",
            {"A": [0] * 8}, {"A": "shared"}, [1, 2, 3, 4],
        )
        assert self._path(task) == "record"
        assert _carved(task, 2) == sequential_execute(task)[0]


class TestChunkSpecValidation:
    BAD = [
        ({"size": 2.5}, "chunk size must be an int >= 1 (got 2.5)"),
        ({"size": "3"}, "chunk size must be an int >= 1 (got '3')"),
        ({"size": True}, "chunk size must be an int >= 1 (got True)"),
        ({"size": 0}, "chunk size must be an int >= 1 (got 0)"),
        ({"policy": None}, "unknown chunk policy None; valid: ['static', 'dynamic']"),
        ({"policy": ["static"]}, "unknown chunk policy ['static']; valid:"),
    ]

    @pytest.mark.parametrize("payload, message", BAD)
    def test_a_malformed_field_is_a_value_error_naming_it(self, payload, message):
        with pytest.raises(ValueError) as raised:
            ChunkSpec.from_json(payload)
        assert str(raised.value).startswith(message)
        with pytest.raises(ValueError):
            ChunkSpec(**payload)

    def test_well_formed_specs_still_pass(self):
        assert ChunkSpec.from_json({"size": 3, "policy": "dynamic"}) == ChunkSpec("dynamic", 3)
        assert ChunkSpec.from_json({"size": None}) == ChunkSpec() == ChunkSpec.from_json(None)

    @pytest.mark.parametrize("payload, message", BAD)
    def test_execute_refuses_it_before_the_capture_runs(self, payload, message, monkeypatch):
        """The executor builds the spec before any work: no machine is
        constructed for a request that cannot be carved."""
        from repro.ir.interp import Machine

        built = []
        init = Machine.__init__
        monkeypatch.setattr(
            Machine, "__init__",
            lambda self, *args, **kwargs: (built.append(1), init(self, *args, **kwargs))[1],
        )
        compiled = Engine(EngineConfig(use_disk_cache=False)).compile(SAXPY)
        args = ("l", {"N": 8}, {"X": list(range(8)), "Y": [1] * 8})
        with pytest.raises(ValueError) as raised:
            compiled.execute(*args, backend="thread", jobs=2, chunk=payload)
        assert str(raised.value).startswith(message) and not built
        assert compiled.execute(*args, backend="thread", jobs=2, chunk={"size": 3}).correct
        assert built


class TestProcessWire:
    def test_a_run_returns_one_outcome_per_chunk(self):
        task = _saxpy_task()
        chunks = plan_chunks(64, 2, ChunkSpec("dynamic"))
        outcomes = processes.execute_chunks(task, chunks, 2)
        assert len(outcomes) == len(chunks) == 8
        assert [o.position for o in outcomes] == [c[-1] for c in chunks]
        isolated = processes.execute_chunks(task, chunks, 2, speculative._isolated)
        assert [o.position for result in isolated for o in result] == list(range(64))

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


    @pytest.mark.parametrize("policy", ["static", "dynamic"])
    def test_the_setup_blob_goes_once_per_worker(self, policy, monkeypatch):
        """An 8000-element saxpy at ``jobs=2``: the first chunk of each
        worker carries the blob, a chunk that reached a worker without
        it goes again with it, and the memory is what the loop computes.
        The static plan has a chunk per worker, so every chunk has it."""
        sent, resent = [], []
        map_kept = processes.map_kept

        def spy(pool, fn, items, workers, again):
            sent.extend(items)
            return map_kept(pool, fn, items, workers,
                            lambda item: resent.append(again(item)) or resent[-1])

        monkeypatch.setattr(processes, "map_kept", spy)
        task = _saxpy_task(8000)
        spec = ChunkSpec(policy)
        run = get_backend("process").execute(task, jobs=2, chunk=spec)
        assert run.arrays == sequential_execute(task)[0]
        assert run.chunks == len(sent) == (8 if policy == "dynamic" else 2)
        blobs = [p[1] for p in sent + resent if p[1] is not None]
        assert len(blobs) == 2 + len(resent) and len(set(blobs)) == 1

    def test_a_chunk_a_worker_has_no_state_for_goes_again(self, monkeypatch):
        """Every chunk lands on a worker of its own: the six without the
        blob answer ``None`` and are sent again, in chunk order."""
        from concurrent.futures import Future

        class FreshWorkers:  # the worker entry point, each call a new worker
            def map(self, fn, payloads):
                return [self.call(fn, payload) for payload in payloads]

            def submit(self, fn, payload):
                future = Future()
                future.set_result(self.call(fn, payload))
                return future

            @staticmethod
            def call(fn, payload):
                processes._WORKER_STATE.clear()
                return fn(payload)

        monkeypatch.setattr(processes, "_pool", lambda jobs: FreshWorkers())
        monkeypatch.setattr(processes, "_WORKER_STATE", {})
        sent = []
        map_kept = processes.map_kept
        monkeypatch.setattr(processes, "map_kept", lambda pool, fn, items, workers, again: (
            map_kept(pool, fn, items, workers, lambda item: sent.append(item[2]) or again(item))
        ))
        task = _saxpy_task(640)
        chunks = plan_chunks(640, 2, ChunkSpec("dynamic"))
        outcomes = processes.execute_chunks(task, chunks, 2)
        assert sent == chunks[2:]
        assert [o.position for o in outcomes] == [c[-1] for c in chunks]
        merged = base.merge_outcomes(task.pre_arrays, outcomes, task.decisions)
        assert merged == sequential_execute(task)[0]

    def test_a_worker_lowers_a_program_once_however_many_runs(self, monkeypatch):
        """A pickled program carries no generated code, and every run
        pickles its task again: the worker keeps the ``Program`` it
        unpickled under the pickle's bytes, so only the first run of a
        program lowers anything there -- inside the one bounded cache."""
        class InThisProcess:  # the worker entry point, called like the pool calls it
            def map(self, fn, payloads):
                return [fn(payload) for payload in payloads]

        monkeypatch.setattr(processes, "_pool", lambda jobs: InThisProcess())
        monkeypatch.setattr(processes, "_WORKER_STATE", {})
        task, other = _saxpy_task(), _saxpy_task()
        other.program = parse_program(SAXPY.replace("3 * X", "4 * X"))
        lowered = []
        for run in (task, task, other, task, other, task):
            with profile.profiling():
                outcomes = processes.execute_chunks(run, plan_chunks(64, 2), 2)
            lowered.append(profile.snapshot().calls.get("ir.lower", 0))
            assert [o.position for o in outcomes] == [31, 63]
            assert len(processes._WORKER_STATE) <= processes._WORKER_CACHE_SIZE
        assert lowered[0] > 0 and lowered[2] > 0
        assert lowered[1] == lowered[3] == lowered[4] == lowered[5] == 0
        programs = [v for k, v in processes._WORKER_STATE.items() if isinstance(k, bytes)]
        assert len(programs) == 2 and all(p is not task.program for p in programs)


class TestValuesPastInt64:
    """The interpreter's integers are unbounded.  The pre-loop memory
    reaches a process worker pickled, as it is, on the chunk path and on
    the speculative backend's marked run alike."""

    SOURCE = (
        "program big\nparam N\narray X(N), Y(N)\nmain\n  do i = 1, N @ l\n"
        "    t = 3 * X[i]\n    Y[i] = Y[i] + t\n  end\nend\n"
    )

    @pytest.mark.parametrize(
        "n, spec, chunks",
        [(64, None, 2), (4000, ChunkSpec("dynamic"), 8)],
        ids=["static-64", "dynamic-4000"],
    )
    def test_process_and_the_marked_run_equal_sequential(self, n, spec, chunks):
        big = 2**70
        compiled = Engine(EngineConfig(use_disk_cache=False)).compile(self.SOURCE)
        task = compiled.executor("l").capture_task({"N": n}, {
            "X": [(big if k % 2 else -big) + k for k in range(n)],
            "Y": [big - k for k in range(n)],
        })
        task.decisions = {"X": "shared", "Y": "shared"}
        expected = get_backend("sequential").execute(task, jobs=2)
        assert any(abs(v) > 2**63 for v in expected.arrays["Y"])
        assert abs(expected.final_scalars["t"]) > 2**63
        for backend in ("process", "speculative"):
            run = get_backend(backend).execute(task, jobs=2, chunk=spec)
            assert run.chunks == chunks
            assert run.arrays == expected.arrays
            assert run.final_scalars == expected.final_scalars
        assert run.speculation["committed"]


class TestProcessPoolLifetime:
    def test_concurrent_executes_that_grow_the_pool_all_finish(self, monkeypatch):
        """Four threads, each asking for a wider process pool than the
        last: a grow replaces the pool under the others, every run must
        still return the in-order memory, and each replaced pool is shut
        down rather than kept."""
        made = []

        def make(workers):
            made.append(processes._new_pool(workers))
            return made[-1]

        pool = threads.KeptPool(make)
        monkeypatch.setattr(processes, "_pool", pool)
        task = _saxpy_task()
        expected = sequential_execute(task)[0]
        jobs = 2
        barrier = threading.Barrier(4)
        results = []

        def run(width):
            barrier.wait(timeout=30)
            for workers in (jobs, width):
                run = get_backend("process").execute(
                    task, jobs=workers, chunk=ChunkSpec("dynamic")
                )
                results.append(run.arrays == expected)

        workers = [
            threading.Thread(target=run, args=(jobs + 1 + k,)) for k in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert results == [True] * 8
        kept = pool.executor
        assert pool.workers == jobs + 4 and made[-1] is kept
        assert not kept._shutdown_thread
        assert all(replaced._shutdown_thread for replaced in made[:-1])
        kept.shutdown()


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
