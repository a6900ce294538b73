"""The process-pool backend: real parallelism on a kept pool of processes.

Chunks are dispatched to a persistent pool of worker *processes*, so
interpreter work genuinely runs in parallel on multi-core machines (no
GIL).  A chunk goes out as its ``range`` of positions and comes back as
one outcome (:func:`~repro.runtime.backends.base.execute_chunk`).  Every
chunk submission carries the same setup blob -- the pickled task with
its pre-loop memory, and the program as its own pickle -- tagged with a
run token; a worker materializes the state on the first chunk it sees
for a token and reuses it for the rest of the run, so under the default
plan the memory reaches each worker once per run.  A worker also keeps
the ``Program`` it unpickled under those bytes (same bounded cache), and
with it the code it generated for it.

The pool is the only resource the backend holds.  It outlives
individual runs (:class:`~repro.runtime.backends.threads.KeptPool`, the
thread backend's too: made lazily, replaced by a wider one on demand),
so back-to-back executions -- the equivalence suite, the benchmark
harness -- pay process start-up once, not per loop.  A pool whose worker
died is replaced, not kept: the run that finds it broken repeats its
chunks on a fresh one.
"""

from __future__ import annotations

import itertools
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from multiprocessing import get_all_start_methods, get_context

from .base import ChunkedBackend, LoopTask, execute_chunk, execute_positions
from .threads import KeptPool, map_kept

__all__ = ["ProcessBackend", "execute_chunks"]

#: Runs and programs a worker keeps materialized before evicting the oldest.
_WORKER_CACHE_SIZE = 4


def _new_pool(workers: int) -> ProcessPoolExecutor:
    method = "fork" if "fork" in get_all_start_methods() else "spawn"
    return ProcessPoolExecutor(max_workers=workers, mp_context=get_context(method))


#: ``_pool(jobs)`` is the kept process pool, at least *jobs* wide
_pool = KeptPool(_new_pool)
_RUN_TOKENS = itertools.count()


# -- worker side -------------------------------------------------------------

#: per worker, oldest first: token -> unpickled setup (its task's program
#: filled in), and program pickle -> the program.
_WORKER_STATE: dict = {}


def _materialize(token: int, setup_blob: bytes) -> dict:
    state = _WORKER_STATE.get(token)
    if state is not None:
        return state
    setup = pickle.loads(setup_blob)
    task, blob = setup["task"], setup.pop("program")
    task.program = _WORKER_STATE.pop(blob, None) or pickle.loads(blob)
    while len(_WORKER_STATE) > _WORKER_CACHE_SIZE - 2:
        _WORKER_STATE.pop(next(iter(_WORKER_STATE)), None)
    _WORKER_STATE[blob] = task.program  # the newest again: it outlives old runs
    _WORKER_STATE[token] = setup
    return setup


def _worker_chunk(payload) -> list:
    """Top-level chunk entry point (must be importable by workers)."""
    token, setup_blob, positions = payload
    state = _materialize(token, setup_blob)
    if not state["marked"]:
        return [execute_chunk(state["task"], positions)]
    return execute_positions(
        state["task"], positions, per_iteration_snapshot=False, record_exposed=True
    )


# -- parent side -------------------------------------------------------------


def execute_chunks(
    task: LoopTask, chunks: list, jobs: int, marked: bool = False
) -> list:
    """Run *chunks* of *task* on the persistent process pool.

    Returns the outcomes in chunk order: one
    :class:`~repro.runtime.backends.base.IterationOutcome` a chunk, or
    with ``marked`` -- the speculative backend's optimistic run -- one an
    iteration, each isolated and carrying its expose-read marks.  When
    a worker has died the pool is replaced and the chunks, pure functions
    of the task, run once more.
    """
    token = next(_RUN_TOKENS)
    setup_blob = pickle.dumps({
        "task": replace(task, program=None),
        "program": pickle.dumps(task.program),
        "marked": marked,
    })
    payloads = [(token, setup_blob, c) for c in chunks]
    results = map_kept(_pool, _worker_chunk, payloads, jobs)
    return [o for chunk_result in results for o in chunk_result]


class ProcessBackend(ChunkedBackend):
    name = "process"
    run_chunks = staticmethod(execute_chunks)

    @classmethod
    def available(cls) -> bool:
        try:
            get_all_start_methods()
        except (ImportError, OSError):  # pragma: no cover - exotic hosts
            return False
        return True
