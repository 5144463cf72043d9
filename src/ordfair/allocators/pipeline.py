"""End-to-end solving: structure check, padding, thresholds, allocation,
cleanup, completion, and certification against the independent verifiers.

All three algorithms run one body, which branches only where they differ:
a2 neither checks for nor applies a common order; a3 pads to a multiple of
three agents and divides by 4n/3; each runs its own allocator; and each
certifies its own guarantee pair.  Only this body decides the divisor; the
allocators take the thresholds it computes.  The layers are called through
their module-level names, which the benchmark's traced run rebinds to time
them.

Right after the allocator, the padding is undone once: the padding agents'
bundles (a3 only) go back to the pool, and ``_to_caller`` on the identity
order drops the padding goods by position.  Completion, one envy-cycle rule
for all three, then runs on the caller's agents and goods (permuted to the
common order); a1's EFX after completion is checked by the certification,
not by the completion step.  A second ``_to_caller`` maps both allocations
back to the caller's goods: position p is the p-th good of the common order
(a2: good p).

The returned trace is in the run's own coordinates (see ``trace.replay``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ..errors import StructuralMismatchError
from ..model import (
    Allocation,
    Instance,
    detect_structure,
    pad_agents_to_multiple_of_three,
    pad_goods,
    top_k_set,
)
from .. import shares
from ..verification import FairnessReport, report
from .bagfill import alloc_ordered_ef1_4n3, alloc_ordered_efx_3n2, ceil_3n_over_2
from .envy_cycle import envy_cycle_elimination
from .lone_divider import alloc_topn_lone_divider
from .trace import AllocatorTrace

ALGORITHMS = ("a1", "a2", "a3")


@dataclass(frozen=True)
class SolveResult:
    algorithm: str
    divisor: int
    thresholds: tuple[Fraction, ...]
    partial: Allocation
    allocation: Allocation
    partial_report: FairnessReport
    report: FairnessReport
    trace: AllocatorTrace
    certified: bool


def _to_caller(alloc: Allocation, goods: Sequence[int]) -> Allocation:
    """``alloc`` with position p as ``goods[p]`` and positions past
    ``len(goods)`` dropped: on an allocation of the caller's agents, the
    allocation of ``strip_dummies(padded, alloc)`` with the permutation
    undone.  The pipeline calls it on the identity order to drop the padding
    goods before completion, and on the common order to map both allocations
    back to the caller's goods.  Not checked here: completion checks the
    allocation it starts from and its output, both reports the caller's."""
    m = len(goods)
    return Allocation(
        tuple(frozenset(goods[p] for p in b if p < m) for b in alloc.bundles),
        frozenset(goods[p] for p in alloc.pool if p < m),
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
    work = pad_agents_to_multiple_of_three(caller) if algorithm == "a3" else caller
    padded = pad_goods(work, max(work.m, 2 * work.n))
    d = 4 * (work.n // 3) if algorithm == "a3" else ceil_3n_over_2(inst.n)
    taus = shares.thresholds(padded, d)
    if algorithm == "a1":
        partial, trace = alloc_ordered_efx_3n2(padded, taus)
    elif algorithm == "a2":
        partial, trace = alloc_topn_lone_divider(padded, taus)
    else:
        partial, trace = alloc_ordered_ef1_4n3(padded, taus)

    spare = partial.bundles[inst.n :]
    partial = _to_caller(
        Allocation(partial.bundles[: inst.n], partial.pool.union(*spare)), range(inst.m)
    )
    complete, completion_trace = envy_cycle_elimination(caller, partial)
    if algorithm != "a3":
        # a3's trace names padding agents whose goods completion hands out,
        # so its completion events would replay a good twice.
        trace.extend_offset(completion_trace)
    goods = range(inst.m) if order is None else order
    partial = _to_caller(partial, goods)
    complete = _to_caller(complete, goods)

    taus = taus[: inst.n]  # a3's padding agents are not the caller's
    cache = {d: taus}
    partial_report = report(inst, partial, [d], cache)
    final_report = report(inst, complete, [d], cache)
    certified = (
        final_report.complete
        and (final_report.efx if algorithm == "a1" else final_report.ef1)
        and final_report.mms_ok(d)
        and (algorithm == "a3" or (partial_report.efx and partial_report.mms_ok(d)))
    )
    return SolveResult(
        algorithm=algorithm,
        divisor=d,
        thresholds=taus,
        partial=partial,
        allocation=complete,
        partial_report=partial_report,
        report=final_report,
        trace=trace,
        certified=certified,
    )
