"""The process-pool backend: real parallelism over shared-memory arrays.

Chunks are dispatched to a persistent pool of worker *processes*, so
interpreter work genuinely runs in parallel on multi-core machines (no
GIL).  A chunk goes out as its ``range`` of positions and comes back as
one outcome (:func:`~repro.runtime.backends.base.execute_chunk`); two
mechanisms keep the rest of the per-run cost proportional to the work,
not the memory:

* **shared-memory pre-state** -- the pre-loop array memory is published
  once per run as a ``multiprocessing.shared_memory`` segment of packed
  int64 values; workers attach and materialize it once, instead of
  receiving a pickled copy with every chunk.  Values outside the int64
  range (the interpreter's integers are unbounded) fall back to
  pickling the arrays into the setup blob -- rare, and still correct;
* **per-worker setup cache** -- every chunk submission carries the same
  small setup blob (the pickled task without its arrays + the
  shared-memory layout) tagged with a run token; a worker materializes
  the state on the first chunk it sees for a token and reuses it for
  the rest of the run.  The program travels in the blob as its own
  pickle; a worker keeps the ``Program`` it unpickled under those bytes
  (same bounded cache), and with it the code it generated for it.

The pool itself outlives individual runs (created lazily, resized on
demand, shut down at interpreter exit), so back-to-back executions --
the equivalence suite, the benchmark harness -- pay process start-up
once, not per loop.  A pool whose worker died is retired, not kept: the
run that finds it broken repeats its chunks on a fresh one.
"""

from __future__ import annotations

import array as _array_mod
import atexit
import itertools
import pickle
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from multiprocessing import get_all_start_methods, get_context, shared_memory
from typing import Optional

from .base import ChunkedBackend, LoopTask, execute_chunk, execute_positions

__all__ = ["ProcessBackend", "execute_chunks"]

#: Runs and programs a worker keeps materialized before evicting the oldest.
_WORKER_CACHE_SIZE = 4

# -- persistent pool ---------------------------------------------------------

_POOL: Optional[ProcessPoolExecutor] = None
_POOL_WORKERS = 0
_POOL_LOCK = threading.Lock()
#: pools replaced (by a larger one, or because a worker died), kept until
#: interpreter exit so concurrent callers still holding them can finish
#: their in-flight chunk maps (shutting them down mid-map would break the
#: engine's thread-safety contract)
_RETIRED_POOLS: list = []
_RUN_TOKENS = itertools.count()


def _pool(jobs: int, broken=None) -> ProcessPoolExecutor:
    """The kept pool; replaced first when it has fewer than *jobs*
    workers or is the one the caller found *broken*."""
    global _POOL, _POOL_WORKERS
    with _POOL_LOCK:
        if _POOL is None or _POOL is broken or _POOL_WORKERS < jobs:
            if _POOL is not None:
                _RETIRED_POOLS.append(_POOL)
            method = "fork" if "fork" in get_all_start_methods() else "spawn"
            _POOL = ProcessPoolExecutor(
                max_workers=jobs, mp_context=get_context(method)
            )
            _POOL_WORKERS = jobs
        return _POOL


def _shutdown_pool() -> None:
    global _POOL, _POOL_WORKERS
    with _POOL_LOCK:
        pools = list(_RETIRED_POOLS)
        if _POOL is not None:
            pools.append(_POOL)
        _RETIRED_POOLS.clear()
        _POOL = None
        _POOL_WORKERS = 0
    for pool in pools:
        pool.shutdown(wait=False, cancel_futures=True)


atexit.register(_shutdown_pool)


# -- shared-memory packing ---------------------------------------------------


def _pack_arrays(pre_arrays: dict):
    """(shm, layout) for int64-packable memory, or (None, None)."""
    order = sorted(pre_arrays)
    total = sum(len(pre_arrays[name]) for name in order)
    if total == 0:
        return None, None
    packed = _array_mod.array("q")
    try:
        for name in order:
            packed.extend(pre_arrays[name])
    except OverflowError:
        return None, None  # unbounded ints: fall back to pickled arrays
    shm = shared_memory.SharedMemory(create=True, size=len(packed) * 8)
    shm.buf[: len(packed) * 8] = packed.tobytes()
    layout = {}
    offset = 0
    for name in order:
        layout[name] = (offset, len(pre_arrays[name]))
        offset += len(pre_arrays[name])
    return shm, layout


def _unpack_arrays(shm_name: str, layout: dict) -> dict:
    shm = shared_memory.SharedMemory(name=shm_name)
    try:
        arrays = {}
        for name, (offset, length) in layout.items():
            values = _array_mod.array("q")
            values.frombytes(bytes(shm.buf[offset * 8 : (offset + length) * 8]))
            arrays[name] = values.tolist()
        return arrays
    finally:
        shm.close()


# -- worker side -------------------------------------------------------------

#: per worker, oldest first: token -> materialized setup (its task's
#: program and pre_arrays filled in), and program pickle -> the program.
_WORKER_STATE: dict = {}


def _materialize(token: int, setup_blob: bytes) -> dict:
    state = _WORKER_STATE.get(token)
    if state is not None:
        return state
    setup = pickle.loads(setup_blob)
    task, blob = setup["task"], setup.pop("program")
    task.program = _WORKER_STATE.pop(blob, None) or pickle.loads(blob)
    if setup["shm_name"] is not None:
        task.pre_arrays = _unpack_arrays(setup["shm_name"], setup["layout"])
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
    shm, layout = _pack_arrays(task.pre_arrays)
    setup = {
        # the pre-loop memory travels through the segment, not the pickle
        "task": replace(
            task, program=None, pre_arrays=None if shm is not None else task.pre_arrays
        ),
        "program": pickle.dumps(task.program),
        "marked": marked,
        "shm_name": shm.name if shm is not None else None,
        "layout": layout,
    }
    token = next(_RUN_TOKENS)
    setup_blob = pickle.dumps(setup)
    payloads = [(token, setup_blob, c) for c in chunks]
    try:
        pool = _pool(jobs)
        try:
            results = list(pool.map(_worker_chunk, payloads))
        except BrokenProcessPool:  # a worker died: once more, on a fresh pool
            results = list(_pool(jobs, pool).map(_worker_chunk, payloads))
        return [o for chunk_result in results for o in chunk_result]
    finally:
        if shm is not None:
            shm.close()
            shm.unlink()


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
