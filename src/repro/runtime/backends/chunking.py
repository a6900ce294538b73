"""Chunked scheduling of a validated parallel iteration space.

Once the hybrid runtime has validated a loop (statically, through a
predicate cascade, or via an exact test), its iterations are free to
run in any order on any worker.  The chunk planner carves the iteration
space ``[0, n)`` into contiguous position ranges that the execution
backends (:mod:`repro.runtime.backends`) hand to their workers:

* ``static`` chunking mirrors OpenMP's static schedule (and the
  simulated :func:`repro.runtime.scheduler.schedule_parallel`): one
  contiguous block per worker, sizes differing by at most one -- minimal
  scheduling overhead, best for uniform iterations;
* ``dynamic`` chunking carves many smaller blocks than workers, so a
  pool's work-stealing evens out imbalanced iteration costs at the
  price of more per-chunk overhead.

Both policies are pure functions of ``(n, jobs, spec)``: the partition
-- and therefore the merged result -- is deterministic regardless of
worker count or completion order (``tests/property/
test_scheduler_props.py`` pins this).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

__all__ = ["CHUNK_POLICIES", "DYNAMIC_CHUNK_FACTOR", "ChunkSpec", "plan_chunks"]

#: Valid chunking policies.
CHUNK_POLICIES = ("static", "dynamic")

#: Default chunks-per-worker ratio for the dynamic policy: enough blocks
#: for the pool to rebalance, few enough to keep dispatch overhead low.
DYNAMIC_CHUNK_FACTOR = 4


@dataclass(frozen=True)
class ChunkSpec:
    """How to carve the iteration space.

    ``size`` fixes the chunk length explicitly; when ``None`` the
    planner derives it from the worker count (one block per worker for
    ``static``, :data:`DYNAMIC_CHUNK_FACTOR` blocks per worker for
    ``dynamic``).
    """

    policy: str = "static"
    size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.policy not in CHUNK_POLICIES:  # whatever its type
            raise ValueError(
                f"unknown chunk policy {self.policy!r}; "
                f"valid: {list(CHUNK_POLICIES)}"
            )
        if self.size is not None and (type(self.size) is not int or self.size < 1):
            raise ValueError(f"chunk size must be an int >= 1 (got {self.size!r})")

    # -- wire form (the ExecuteRequest 'chunk' field) -------------------
    def to_json(self) -> dict:
        return {"policy": self.policy, "size": self.size}

    @classmethod
    def from_json(cls, payload) -> "ChunkSpec":
        """Accepts ``None`` (defaults), an existing spec, or a dict."""
        if payload is None:
            return cls()
        if isinstance(payload, ChunkSpec):
            return payload
        if not isinstance(payload, dict):
            raise TypeError(f"chunk spec must be a dict (got {payload!r})")
        unknown = set(payload) - {"policy", "size"}
        if unknown:
            raise ValueError(f"unknown chunk spec key(s) {sorted(unknown)}")
        return cls(
            policy=payload.get("policy", "static"), size=payload.get("size")
        )


def plan_chunks(
    n: int, jobs: int, spec: Optional[ChunkSpec] = None
) -> list[range]:
    """Partition positions ``[0, n)`` into contiguous chunks.

    The returned ranges are in position order, pairwise disjoint, and
    cover every position exactly once (the property suite's invariant).
    """
    spec = spec or ChunkSpec()
    if n <= 0:
        return []
    jobs = max(1, jobs)
    if spec.size is not None:
        size = spec.size
    elif spec.policy == "dynamic":
        size = max(1, math.ceil(n / (jobs * DYNAMIC_CHUNK_FACTOR)))
    else:
        # static: one contiguous block per worker, sizes within one of
        # each other (same split as the simulated scheduler).
        workers = min(jobs, n)
        base, extra = divmod(n, workers)
        chunks: list[range] = []
        start = 0
        for w in range(workers):
            length = base + (1 if w < extra else 0)
            chunks.append(range(start, start + length))
            start += length
        return chunks
    return [range(start, min(start + size, n)) for start in range(0, n, size)]
