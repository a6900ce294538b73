"""The process-pool backend: real parallelism on a kept pool of processes.

Chunks are dispatched to a persistent pool of worker *processes*, so
interpreter work genuinely runs in parallel on multi-core machines (no
GIL).  A chunk goes out as its ``range`` of positions and comes back as
one outcome (:func:`~repro.runtime.backends.base.execute_chunk`, or the
unit the caller names -- the speculative backend's marked chunk).  A
run's setup blob -- the pickled task with its pre-loop memory, and the
program as its own pickle -- is tagged with a run token and rides with
the first chunk of each worker the run may use; a worker materializes
the state on the first chunk it sees for a token and reuses it for the
rest of the run.  A worker that meets a token it has not materialized
answers ``None``, and that chunk goes again with the blob -- so the
memory reaches each worker about once per run, however many chunks the
plan has.  A worker also keeps the ``Program`` it unpickled under those
bytes (same bounded cache), and with it the code it generated for it.

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

from .base import ChunkedBackend, LoopTask, execute_chunk
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


def _materialize(token: int, setup_blob) -> dict:
    state = _WORKER_STATE.get(token)
    if state is not None or setup_blob is None:
        return state
    setup = pickle.loads(setup_blob)
    task, blob = setup["task"], setup.pop("program")
    task.program = _WORKER_STATE.pop(blob, None) or pickle.loads(blob)
    while len(_WORKER_STATE) > _WORKER_CACHE_SIZE - 2:
        _WORKER_STATE.pop(next(iter(_WORKER_STATE)), None)
    _WORKER_STATE[blob] = task.program  # the newest again: it outlives old runs
    _WORKER_STATE[token] = setup
    return setup


def _worker_chunk(payload):
    """Top-level chunk entry point (must be importable by workers):
    the run's unit of the chunk, or ``None`` for a run this worker has
    no state of and was sent no blob for."""
    token, setup_blob, positions = payload
    state = _materialize(token, setup_blob)
    if state is None:
        return None
    return state["unit"](state["task"], positions)


# -- parent side -------------------------------------------------------------


def execute_chunks(
    task: LoopTask, chunks: list, jobs: int, unit=execute_chunk
) -> list:
    """``unit(task, chunk)`` of every chunk of *task*, in chunk order,
    on the persistent process pool: by default one
    :class:`~repro.runtime.backends.base.IterationOutcome` a chunk.
    *unit* must be importable by the workers (a module-level function,
    or a ``functools.partial`` of one).  The first ``min(jobs, chunks)``
    payloads carry the setup blob, and a chunk a worker answers ``None``
    goes again with it.  When a worker has died the pool is replaced and
    the chunks, pure functions of the task, run once more.
    """
    token = next(_RUN_TOKENS)
    setup_blob = pickle.dumps({
        "task": replace(task, program=None),
        "program": pickle.dumps(task.program),
        "unit": unit,
    })
    first = min(jobs, len(chunks))
    payloads = [
        (token, setup_blob if k < first else None, c) for k, c in enumerate(chunks)
    ]
    return map_kept(_pool, _worker_chunk, payloads, jobs,
                    again=lambda payload: (token, setup_blob, payload[2]))


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
