"""The thread-pool backend, and the kept pool both pool backends run on.

Chunks of the iteration space are executed by a pool of threads, each
worker running its chunk in order and in place
(:func:`~repro.runtime.backends.base.execute_chunk`) on the chunk's own
flat copy of the pre-loop memory (made by its
:class:`~repro.ir.interp.Machine`); one more copy is the merge target --
chunks + 1 O(memory) copies and *chunks* outcomes a run, nothing per
iteration.  Workers share the read-only pre-state, so the only
cross-thread traffic is the immutable task and the returned outcomes --
safe under the package's GIL-guarded conventions.

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

from .base import ChunkedBackend, LoopTask, execute_chunk

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

    def run_chunks(self, task: LoopTask, chunks: list, jobs: int) -> list:
        return map_chunks(
            lambda c: execute_chunk(task, c), chunks, min(jobs, len(chunks))
        )
