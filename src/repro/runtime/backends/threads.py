"""The thread-pool backend, and the kept pool both pool backends run on.

Chunks of the iteration space are executed by a pool of threads, each
worker running its chunk in order through the loop's unit.  Where every
array the unit assigns is decided ``shared``
(:func:`~repro.runtime.backends.base._copy_out` says ``"in_place"``),
the run copies those arrays into a target that shares every other list
with the pre-loop memory -- the plain unit writes nothing it does not
assign -- and every chunk writes that target itself
(:func:`~repro.runtime.backends.base.execute_in_place`): a ``shared``
location is written by one iteration and touched by no other, so the
chunks' writes are disjoint, each list store is atomic under the GIL,
and nothing is recorded, diffed or merged -- one copy of the assigned
arrays a run, the last chunk's scalars the final ones, and the
executor's exit check compares the shared lists by identity.  Any other
task runs each chunk on its own flat copy of the pre-loop memory
(:func:`~repro.runtime.backends.base.execute_chunk`), and one more copy
is the merge target -- chunks + 1 O(memory) copies and *chunks*
outcomes a run, nothing per iteration; a ``reduction``'s
read-modify-write could lose an update across a GIL switch if chunks
shared a target.  ``task.pre_arrays`` is read, never written.

On CPython the interpreter work itself serializes on the GIL; the
backend wins real parallel speedups on GIL-free builds.

Both pool backends keep their executor between runs in a
:class:`KeptPool` and submit to it, under one lock, through
:func:`map_kept`.  A replaced executor (a wider one was asked for, or a
worker died) is shut down without waiting: what it holds still runs,
nothing new reaches it, and ``concurrent.futures``' exit hook joins it.
"""

from __future__ import annotations

import threading
from concurrent.futures import BrokenExecutor, Executor, ThreadPoolExecutor
from typing import Callable, Optional

from ... import profiling as _profiling
from ...ir.interp import copy_arrays
from .base import (
    BackendRun, ChunkedBackend, LoopTask, _copy_out, default_jobs, execute_chunk,
    execute_in_place,
)
from .chunking import plan_chunks

__all__ = ["KeptPool", "ThreadBackend", "map_chunks", "map_kept"]

_LOCK = threading.RLock()  # re-entered: map_kept holds it across KeptPool.__call__


class KeptPool:
    """One executor kept between runs; calling it gives the executor."""

    def __init__(self, make: Callable[[int], Executor]):
        self._make = make
        self.executor: Optional[Executor] = None
        self.workers = 0

    def __call__(self, workers: int, broken=None) -> Executor:
        """The kept executor; made first when there is none, or it has
        fewer than *workers*, or it is the one the caller found *broken*."""
        with _LOCK:
            if self.executor is broken or self.workers < workers:
                if self.executor is not None:
                    self.executor.shutdown(wait=False)
                self.executor, self.workers = self._make(workers), workers
            return self.executor


def map_kept(
    pool: Callable, fn: Callable, items: list, workers: int,
    again: Optional[Callable] = None,
) -> list:
    """``fn`` of every item, in order, on the executor ``pool(workers)``.

    Submitting under the lock keeps a concurrent replace from shutting
    the executor down between look-up and submit.  With *again*, an item
    whose result is ``None`` runs once more as ``again(item)`` before
    any later result is looked at, so an error still surfaces from the
    first item, in order, that raises.  An executor found broken -- a
    process worker died -- is replaced, and the items, pure functions of
    their inputs, run once more on the fresh one.
    """
    broken = None
    while True:
        try:
            with _LOCK:
                executor = pool(workers) if broken is None else pool(workers, broken)
                results = executor.map(fn, items)
            out = []
            for item, result in zip(items, results):
                if result is None and again is not None:
                    with _LOCK:
                        executor = pool(workers)
                        result = executor.submit(fn, again(item))
                    result = result.result()
                out.append(result)
            return out
        except BrokenExecutor:
            if broken is not None:
                raise
            broken = executor


_THREADS = KeptPool(
    lambda workers: ThreadPoolExecutor(workers, thread_name_prefix="repro-chunk")
)


def __getattr__(name: str):  # _POOL / _POOL_WORKERS: the kept thread pool
    field = {"_POOL": "executor", "_POOL_WORKERS": "workers"}.get(name)
    if field is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_THREADS, field)


def map_chunks(run_chunk: Callable, chunks: list, workers: int) -> list:
    """``run_chunk`` of every chunk, in chunk order: inline for one
    worker, else on the kept thread pool."""
    if workers == 1:
        return [run_chunk(c) for c in chunks]
    return map_kept(_THREADS, run_chunk, chunks, workers)


class ThreadBackend(ChunkedBackend):
    name = "thread"

    def execute(self, task, jobs=None, chunk=None) -> BackendRun:
        loop = task.program.find_loop(task.label)
        route, assigned = (
            _copy_out(task, loop, len(task.iterations), True)
            if loop is not None else ("", ()))
        if route != "in_place":
            return super().execute(task, jobs, chunk)
        jobs = default_jobs(jobs)
        chunks = plan_chunks(len(task.iterations), jobs, chunk)
        _profiling.count("backends.chunk_in_place", len(chunks))
        # the plain unit writes nothing but what it assigns: the other
        # arrays stay the pre-loop memory's own lists
        target = dict(task.pre_arrays)
        target.update(copy_arrays({arr: target[arr] for arr in assigned}))
        workers = min(jobs, len(chunks))
        scalars = map_chunks(
            lambda c: execute_in_place(task, c, target), chunks, workers
        ) if chunks else []
        return BackendRun(
            arrays=target,
            final_scalars=dict(scalars[-1]) if scalars else {},
            chunks=len(chunks),
            jobs=workers or jobs,
        )

    def run_chunks(self, task: LoopTask, chunks: list, jobs: int) -> list:
        return map_chunks(
            lambda c: execute_chunk(task, c), chunks, min(jobs, len(chunks))
        )
