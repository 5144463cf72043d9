"""End-to-end solving: structure check, thresholds, allocation, completion,
and certification against the independent verifiers.

All three algorithms run one body, which branches only where they differ:
a2 neither checks for nor uses a common order; a3 divides by
4*ceil(n/3); each runs its own allocator; and each certifies its own
guarantee pair.  Only this body decides the divisor; the allocators take
the thresholds it computes.  The layers are called through their
module-level names, which the benchmark's traced run rebinds to time them.

Every layer runs on the caller's agents and goods.  For a1 and a3 the body
hands the common order that ``detect_structure`` found to completion,
which breaks its ties along it; the paper's dummy goods and a3's copies of
agent 0 live inside the allocators' own runs.  The structure is derived
once per instance and cached on it (``Instance.common_order``,
``Instance.top_n_set``): bag filling reads the order ``detect_structure``
derived here and the lone divider the top-n set ``top_k_set`` derived, so
neither is derived or checked twice.  Both are derived lazily, inside the
first solve of the instance.  Completion, one envy-cycle rule for all
three, continues from the allocator's partial allocation; a1's EFX after
completion is checked by the certification, not by the completion step.

When the allocator has handed out every good, completion returns the
allocation it was given (after checking that it is EF1).  The two
allocations are then equal, so the body certifies once and the partial
report is also the final one: ``report`` depends only on the instance, the
allocation, the divisor and the thresholds, so this changes no output.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..errors import StructuralMismatchError
from ..model import Allocation, Instance, detect_structure, top_k_set
from .. import shares
from ..verification import FairnessReport, report
from .bagfill import alloc_ordered_ef1_4n3, alloc_ordered_efx_3n2, ceil_3n_over_2
from .envy_cycle import envy_cycle_elimination
from .lone_divider import alloc_topn_lone_divider
from .trace import AllocatorTrace

ALGORITHMS = ("a1", "a2", "a3")


@dataclass(frozen=True)
class SolveResult:
    """One solve and its certification.  Every field is in the caller's
    agents and goods: the trace replays on the caller's instance to
    ``allocation``."""

    divisor: int
    thresholds: tuple[Fraction, ...]
    partial: Allocation
    allocation: Allocation
    partial_report: FairnessReport
    report: FairnessReport
    trace: AllocatorTrace
    certified: bool


def solve_complete(inst: Instance, algorithm: str) -> SolveResult:
    """Run one of the three pipelines and certify its guarantee pair.

    a1: ordered instances, complete EFX + 1-out-of-ceil(3n/2) MMS.
    a2: top-n instances, partial EFX + MMS, completed to EF1 + MMS.
    a3: ordered instances, complete EF1 + 1-out-of-4*ceil(n/3) MMS.
    """
    if algorithm not in ALGORITHMS:
        raise StructuralMismatchError(f"unknown algorithm {algorithm!r}")
    order = None
    if algorithm == "a2":
        if top_k_set(inst, inst.n) is None:
            raise StructuralMismatchError("algorithm a2 needs a top-n instance")
    else:
        order = detect_structure(inst)
        if order is None:
            raise StructuralMismatchError(f"algorithm {algorithm} needs an ordered instance")

    d = 4 * ((inst.n + 2) // 3) if algorithm == "a3" else ceil_3n_over_2(inst.n)
    taus = shares.thresholds(inst, d)
    if algorithm == "a1":
        partial, trace = alloc_ordered_efx_3n2(inst, taus)
    elif algorithm == "a2":
        partial, trace = alloc_topn_lone_divider(inst, taus)
    else:
        partial, trace = alloc_ordered_ef1_4n3(inst, taus)
    complete, completion_trace = envy_cycle_elimination(inst, partial, order)
    trace.extend_offset(completion_trace)

    partial_report = report(inst, partial, {d: taus})
    final_report = partial_report if complete == partial else report(inst, complete, {d: taus})
    certified = (
        final_report.complete
        and (final_report.efx if algorithm == "a1" else final_report.ef1)
        and final_report.mms_ok(d)
        and (algorithm == "a3" or (partial_report.efx and partial_report.mms_ok(d)))
    )
    return SolveResult(
        divisor=d,
        thresholds=taus,
        partial=partial,
        allocation=complete,
        partial_report=partial_report,
        report=final_report,
        trace=trace,
        certified=certified,
    )
