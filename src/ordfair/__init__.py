"""ordfair: fair division of indivisible goods with ordinal maximin-share
and envy-based guarantees, exact rational arithmetic throughout."""

from .allocators import (
    AllocatorTrace,
    SolveResult,
    alloc_ordered_ef1_4n3,
    alloc_ordered_efx_3n2,
    alloc_topn_lone_divider,
    envy_cycle_elimination,
    envy_free_matching,
    lone_divider_partition,
    most_envious_shrink,
    shrink_minimal,
    solve_complete,
)
from .model import (
    Allocation,
    GeneratorConfig,
    Instance,
    detect_structure,
    generate,
    pad_agents_to_multiple_of_three,
    pad_goods,
    read_allocation,
    read_instance,
    strip_dummies,
    top_k_set,
    write_allocation,
    write_instance,
)
from .shares import (
    MaximinResult,
    mms_bruteforce,
    mms_exact,
    normalize_order_preserving,
    normalize_scale,
    thresholds,
)
from .verification import (
    FairnessReport,
    is_ef1,
    is_efx,
    is_ordinal_mms,
    read_report,
    report,
    strongly_envies,
    write_report,
)

__version__ = "0.1.0"
