"""The USR (uniform set representation) language -- Section 2 of the paper.

Nodes and exact evaluation (:mod:`.nodes`), smart constructors
(:mod:`.build`), the Fig. 2 data-flow summary equations (:mod:`.dataflow`),
the Section 3.4 reshaping transformations (:mod:`.reshape`), conditional
LMAD estimates (:mod:`.estimate`), BOUNDS-COMP (:mod:`.bounds`), and the
runtime decision step's USR evaluations as generated code (:mod:`.lower`,
imported on first use: it builds on :mod:`repro.ir.lower`).
"""

from .bounds import BoundsResult, bounds_overestimate, estimate_bounds
from .build import (
    EMPTY,
    usr_call,
    usr_gate,
    usr_intersect,
    usr_leaf,
    usr_recurrence,
    usr_subtract,
    usr_union,
)
from .dataflow import LoopSummaries, Summary, aggregate_loop, compose, merge_branches
from .estimate import CondEstimate, overestimate, underestimate
from .nodes import (
    CallSite,
    Gate,
    Intersect,
    Leaf,
    Recurrence,
    Subtract,
    Union,
    USR,
    intern_usr,
)
from .reshape import mutually_exclusive, reshape, umeg_parts

__all__ = [
    "USR", "Leaf", "Union", "Intersect", "Subtract", "Gate", "CallSite",
    "Recurrence", "EMPTY", "intern_usr",
    "usr_leaf", "usr_union", "usr_intersect", "usr_subtract", "usr_gate",
    "usr_call", "usr_recurrence",
    "Summary", "LoopSummaries", "compose", "merge_branches", "aggregate_loop",
    "reshape", "umeg_parts", "mutually_exclusive",
    "CondEstimate", "overestimate", "underestimate",
    "BoundsResult", "bounds_overestimate", "estimate_bounds",
]
