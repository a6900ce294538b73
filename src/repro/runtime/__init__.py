"""Parallel runtime: cost model, conditional-parallelization executor,
LRPD speculation, the memoizing inspector, and the real execution
backends (:mod:`repro.runtime.backends`) with their chunked scheduler."""

from .backends import (
    BACKENDS,
    DEFAULT_BACKEND,
    BackendRun,
    BackendUnsupported,
    ChunkSpec,
    ExecutionBackend,
    LoopTask,
    available_backends,
    get_backend,
    plan_chunks,
)
from .executor import ArrayDecision, ExecutionReport, HybridExecutor
from .inspector import Inspector, InspectorResult, evaluate_usr_cost
from .scheduler import CostModel, ParallelTiming, schedule_parallel
from .speculation import SpeculationResult, lrpd_test

__all__ = [
    "CostModel", "ParallelTiming", "schedule_parallel",
    "HybridExecutor", "ExecutionReport", "ArrayDecision",
    "Inspector", "InspectorResult", "evaluate_usr_cost",
    "SpeculationResult", "lrpd_test",
    "BACKENDS", "DEFAULT_BACKEND", "BackendRun", "BackendUnsupported",
    "ChunkSpec", "ExecutionBackend", "LoopTask",
    "available_backends", "get_backend", "plan_chunks",
]
