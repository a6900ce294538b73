"""The thread-pool backend.

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
backend wins real parallel speedups on GIL-free builds.  The pool is
kept between runs (created lazily, grown on demand), like the process
backend's.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional

from .base import ChunkedBackend, LoopTask, execute_chunk

__all__ = ["ThreadBackend", "map_chunks"]

_POOL: Optional[ThreadPoolExecutor] = None
_POOL_WORKERS = 0
_POOL_LOCK = threading.Lock()


def map_chunks(run_chunk: Callable, chunks: list, workers: int) -> list:
    """``run_chunk`` of every chunk, in chunk order: inline for one
    worker, else on the kept pool."""
    global _POOL, _POOL_WORKERS
    if workers == 1:
        return [run_chunk(c) for c in chunks]
    # Submitting under the lock keeps a concurrent grow from closing the
    # pool between look-up and submit; what a closed pool already holds
    # still runs.
    with _POOL_LOCK:
        if _POOL_WORKERS < workers:
            if _POOL is not None:
                _POOL.shutdown(wait=False)
            _POOL = ThreadPoolExecutor(workers, thread_name_prefix="repro-chunk")
            _POOL_WORKERS = workers
        futures = [_POOL.submit(run_chunk, c) for c in chunks]
    return [future.result() for future in futures]


class ThreadBackend(ChunkedBackend):
    name = "thread"

    def run_chunks(self, task: LoopTask, chunks: list, jobs: int) -> list:
        return map_chunks(
            lambda c: execute_chunk(task, c), chunks, min(jobs, len(chunks))
        )
