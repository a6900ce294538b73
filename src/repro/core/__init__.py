"""The paper's primary contribution: USR -> PDAG translation and the
hybrid loop analyzer.

:mod:`.factor` implements the Fig. 5 FACTOR inference algorithm,
:mod:`.monotonic` the Section 3.3 monotonicity rule,
:mod:`.independence` the Section 2.2/4 independence equations, and
:mod:`.analyzer` the Section 5 classification/planning driver.
"""

from .analyzer import ArrayPlan, HybridAnalyzer, LoopPlan
from .codegen import RuntimeTest, TestSchedule, format_schedule, generate_schedule
from .factor import FactorContext, disjoint, factor, included
from .independence import (
    ext_rred_usr,
    flow_independence_usr,
    independence_predicate,
    output_independence_usr,
    rw_self_overlap_usr,
    static_last_value_usr,
)
from .monotonic import match_self_overlap, monotonicity_predicate

__all__ = [
    "FactorContext", "factor", "included", "disjoint",
    "match_self_overlap", "monotonicity_predicate",
    "flow_independence_usr", "output_independence_usr",
    "rw_self_overlap_usr", "static_last_value_usr", "independence_predicate",
    "ArrayPlan", "LoopPlan", "HybridAnalyzer",
    "RuntimeTest", "TestSchedule", "generate_schedule", "format_schedule",
]
