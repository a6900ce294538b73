"""Simulated multiprocessor and cost model.

The paper measures wall-clock time on a quad-core Intel and an 8x2-core
POWER5+.  Our substitute is a deterministic discrete cost model:

* every interpreted IR statement costs one work unit;
* a parallel loop schedules its iterations over ``procs`` processors in
  contiguous blocks, paying a per-processor *spawn overhead*;
* runtime tests (predicate cascades, BOUNDS-COMP, CIV slices, inspector
  evaluation) charge their measured work units up front;
* beyond ``bandwidth_knee`` processors, additional processors contribute
  with reduced efficiency -- modelling the paper's observation that
  speedups flatten from 8 to 16 processors because both cores of a chip
  share memory bandwidth.

The *shape* of the evaluation (who wins, where overheads matter, how
curves scale) depends only on these relative costs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

__all__ = ["CostModel", "schedule_parallel", "ParallelTiming"]


@dataclass(frozen=True)
class CostModel:
    """Knobs of the simulated machine.

    ``spawn_overhead`` is charged once per parallel region per processor
    involved (thread fork/join); ``work_unit_ms`` converts work units to
    the milliseconds used in the tables' granularity columns.
    """

    spawn_overhead: float = 40.0
    work_unit_ms: float = 0.001
    bandwidth_knee: int = 8
    bandwidth_efficiency: float = 0.55

    def effective_procs(self, procs: int) -> float:
        """Processors discounted for shared-bandwidth effects."""
        if procs <= self.bandwidth_knee:
            return float(procs)
        extra = procs - self.bandwidth_knee
        return self.bandwidth_knee + extra * self.bandwidth_efficiency


@dataclass
class ParallelTiming:
    """Outcome of scheduling one parallel loop execution."""

    time: float
    per_proc: list[float] = field(default_factory=list)
    spawn: float = 0.0

    def __repr__(self) -> str:
        return f"ParallelTiming(time={self.time:.1f}, spawn={self.spawn:.1f})"


def schedule_parallel(
    iteration_costs: Sequence[float], procs: int, cost: CostModel
) -> ParallelTiming:
    """Block-schedule iterations over processors; returns makespan.

    Contiguous blocks mirror OpenMP's static schedule, the paper's
    generated code.  The makespan is the maximum per-processor load plus
    the spawn overhead (zero when ``procs == 1`` or the loop is empty).
    """
    n = len(iteration_costs)
    if n == 0:
        return ParallelTiming(time=0.0)
    procs = max(1, min(procs, n))
    if procs == 1:
        total = float(sum(iteration_costs))
        return ParallelTiming(time=total, per_proc=[total])
    base = n // procs
    extra = n % procs
    loads: list[float] = []
    start = 0
    for p in range(procs):
        size = base + (1 if p < extra else 0)
        loads.append(float(sum(iteration_costs[start:start + size])))
        start += size
    spawn = cost.spawn_overhead
    # Shared-bandwidth discount beyond the knee (Section 6.4: speedups
    # flatten from 8 to 16 processors).
    stretch = procs / cost.effective_procs(procs)
    return ParallelTiming(
        time=max(loads) * stretch + spawn, per_proc=loads, spawn=spawn
    )
