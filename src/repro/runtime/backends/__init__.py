"""Pluggable execution backends for validated parallel loops.

The hybrid runtime decides *whether* a loop may run in parallel (and
under which per-array transforms); a backend decides *how* the
validated iterations actually execute:

=============  ==============================================================
``sequential``  in-order reference execution, every iteration isolated on
                its own flat copy of the pre-loop memory (the correctness
                baseline every other backend is differentially tested
                against, and the only place isolation is kept for its own
                sake)
``thread``      chunked execution on a kept thread pool: a chunk runs in
                order, in place, on its one copy of the pre-loop memory
                and returns one outcome
``process``     the same chunks on a persistent process pool; the
                pre-loop memory travels once per run through a
                shared-memory segment, so multi-core machines get real
                (GIL-free) parallelism
``numpy``       whole-loop vectorization for fully-parallel (all-``shared``)
                DO loops: one NumPy gather/compute/scatter per statement
``speculative`` optimistic LRPD execution: chunks run in parallel with
                per-iteration shadow access marking, the LRPD test
                validates the marks, and a conflict rolls back via the
                undo log and re-executes the loop sequentially in order
=============  ==============================================================

Select a backend through :class:`repro.api.EngineConfig` /
``ExecuteRequest`` (``backend`` / ``jobs`` / ``chunk`` fields) or
directly on :class:`~repro.runtime.executor.HybridExecutor`.  The
differential suite (``tests/integration/test_backend_equivalence.py``)
holds every backend to interpreter-identical final memory.
"""

from __future__ import annotations

from .base import (
    BackendRun,
    BackendUnsupported,
    ExecutionBackend,
    IterationOutcome,
    LoopTask,
    execute_chunk,
    execute_positions,
    last_scalars,
    merge_outcomes,
)
from .chunking import CHUNK_POLICIES, DYNAMIC_CHUNK_FACTOR, ChunkSpec, plan_chunks
from .processes import ProcessBackend
from .sequential import SequentialBackend
from .speculative import SpeculativeBackend
from .threads import ThreadBackend
from .vectorized import VectorizedBackend

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "BackendRun",
    "BackendUnsupported",
    "ChunkSpec",
    "CHUNK_POLICIES",
    "DYNAMIC_CHUNK_FACTOR",
    "ExecutionBackend",
    "IterationOutcome",
    "LoopTask",
    "ProcessBackend",
    "SequentialBackend",
    "SpeculativeBackend",
    "ThreadBackend",
    "VectorizedBackend",
    "available_backends",
    "execute_chunk",
    "execute_positions",
    "get_backend",
    "last_scalars",
    "merge_outcomes",
    "plan_chunks",
]

#: Registry of selectable backends, in reference-first order.
BACKENDS = {
    SequentialBackend.name: SequentialBackend,
    ThreadBackend.name: ThreadBackend,
    ProcessBackend.name: ProcessBackend,
    VectorizedBackend.name: VectorizedBackend,
    SpeculativeBackend.name: SpeculativeBackend,
}

DEFAULT_BACKEND = SequentialBackend.name

#: Backends are stateless; share one instance per class.
_INSTANCES: dict = {}


def get_backend(name: str) -> ExecutionBackend:
    """The shared instance of the backend called *name*."""
    cls = BACKENDS.get(name)
    if cls is None:
        raise ValueError(
            f"unknown backend {name!r}; valid: {list(BACKENDS)}"
        )
    instance = _INSTANCES.get(name)
    if instance is None:
        instance = _INSTANCES[name] = cls()
    return instance


def available_backends() -> list:
    """Names of the backends usable in this environment."""
    return [name for name, cls in BACKENDS.items() if cls.available()]
