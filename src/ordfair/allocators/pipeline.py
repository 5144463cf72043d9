"""End-to-end solving: structure check, thresholds, allocation, completion,
and certification against the independent verifiers.

All three algorithms run one body, which branches only where they differ:
a2 neither checks for nor applies a common order; a3 divides by
4*ceil(n/3); each runs its own allocator; and each certifies its own
guarantee pair.  Only this body decides the divisor; the allocators take
the thresholds it computes.  The layers are called through their
module-level names, which the benchmark's traced run rebinds to time them.

Every layer runs on the caller's agents and goods, permuted to the common
order for a1 and a3: the paper's dummy goods and a3's copies of agent 0
live inside the allocators' own runs.  Completion, one envy-cycle rule for
all three, continues from the allocator's partial allocation; a1's EFX
after completion is checked by the certification, not by the completion
step.  The body maps both allocations and the trace back to the caller's
goods, in one place: position p is the p-th good of the common order.

When the allocator has handed out every good, completion returns the
allocation it was given (after checking that it is EF1).  The two
allocations are then equal, so the body maps and certifies once and the
partial report is also the final one: ``report`` depends only on the
instance, the allocation, the divisor and the thresholds, so this changes
no output.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

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


def _to_caller(alloc: Allocation, goods: Sequence[int]) -> Allocation:
    """``alloc`` with position p as ``goods[p]``: an allocation of the
    instance permuted by ``goods`` mapped back to the caller's goods.  Not
    checked here: completion checks the allocation it starts from and its
    output, both reports the caller's."""
    return Allocation(
        tuple(frozenset(map(goods.__getitem__, b)) for b in alloc.bundles),
        frozenset(map(goods.__getitem__, alloc.pool)),
    )


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

    caller = inst if order is None else inst.permute_goods(order)
    d = 4 * ((inst.n + 2) // 3) if algorithm == "a3" else ceil_3n_over_2(inst.n)
    taus = shares.thresholds(caller, d)
    if algorithm == "a1":
        partial, trace = alloc_ordered_efx_3n2(caller, taus)
    elif algorithm == "a2":
        partial, trace = alloc_topn_lone_divider(caller, taus)
    else:
        partial, trace = alloc_ordered_ef1_4n3(caller, taus)
    complete, completion_trace = envy_cycle_elimination(caller, partial)
    trace.extend_offset(completion_trace)
    unchanged = complete == partial
    if order is not None:
        partial = _to_caller(partial, order)
        complete = partial if unchanged else _to_caller(complete, order)
        trace.rename_goods(order)

    partial_report = report(inst, partial, {d: taus})
    final_report = partial_report if unchanged else report(inst, complete, {d: taus})
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
