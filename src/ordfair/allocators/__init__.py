"""Allocation algorithms and their sub-procedures."""

from .bagfill import (
    alloc_ordered_ef1_4n3,
    alloc_ordered_efx_3n2,
    ceil_3n_over_2,
    run_bag_fill,
)
from .envy_cycle import envy_cycle_elimination
from .lone_divider import (
    alloc_topn_lone_divider,
    lone_divider_partition,
    most_envious_shrink,
    shrink_minimal,
    strongly_envies_bundle,
)
from .matching import envy_free_matching
from .pipeline import ALGORITHMS, SolveResult, solve_complete
from .trace import AllocatorTrace, TraceEvent, replay

__all__ = [
    "ALGORITHMS",
    "AllocatorTrace",
    "SolveResult",
    "TraceEvent",
    "alloc_ordered_ef1_4n3",
    "alloc_ordered_efx_3n2",
    "alloc_topn_lone_divider",
    "ceil_3n_over_2",
    "envy_cycle_elimination",
    "envy_free_matching",
    "lone_divider_partition",
    "most_envious_shrink",
    "replay",
    "run_bag_fill",
    "shrink_minimal",
    "strongly_envies_bundle",
    "solve_complete",
]
