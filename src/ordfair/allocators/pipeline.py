"""End-to-end solving: structure check, padding, thresholds, allocation,
completion, cleanup, and certification against the independent verifiers.

All three algorithms run one body, which branches only where they differ:
a2 neither checks for nor applies a common order; a3 pads to a multiple of
three agents and divides by 4n/3; each runs its own allocator; a1 and a2
complete on the padded instance and then drop the padding goods, while a3
strips first and completes on what is left; and each certifies its own
guarantee pair.  Completion is one envy-cycle rule for all three; a1's EFX
after completion is checked by the certification, not by the completion step.
Only this body decides the divisor; the allocators take the thresholds it
computes.  The layers are called through their module-level names, which the
benchmark's traced run rebinds to time them.

``_to_caller`` maps both allocations back to the caller's goods once:
position p is the p-th good of the common order (a2: good p), and positions
past the caller's m, the goods ``pad_goods`` appended, are dropped.  a1 and
a2 complete before that drop, on the padded instance: completion hands out
the padding goods left in the pool too, and when every agent is envied each
such gift first takes a cycle rotation.  Dropping them before completion
changed 20 of the 408 allocations of the golden sweep in
``tests/test_pipeline.py``, and the traces of 86 more.

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
    strip_dummies,
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
    ``len(goods)`` dropped: for a1 and a2, ``strip_dummies(padded, alloc)[1]``
    and the permutation undone.  Not checked here: completion checks the
    padded allocation, both reports the caller's."""
    m = len(goods)
    return Allocation(
        tuple(frozenset(goods[p] for p in b if p < m) for b in alloc.bundles),
        frozenset(goods[p] for p in alloc.pool if p < m),
    )


def _cleared(inst: Instance) -> Instance:
    """Copy without dummy flags, so stripping later removes exactly the
    padding this pipeline adds.  Verdicts still use the caller's instance."""
    return inst._derive(inst.int_rows, dummy_goods=frozenset(), dummy_agents=())


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

    work = _cleared(inst)
    if order is not None:
        work = work.permute_goods(order)
    if algorithm == "a3":
        work = pad_agents_to_multiple_of_three(work)
    padded = pad_goods(work, max(work.m, 2 * work.n))
    d = 4 * (work.n // 3) if algorithm == "a3" else ceil_3n_over_2(inst.n)
    taus = shares.thresholds(padded, d)
    if algorithm == "a1":
        partial, trace = alloc_ordered_efx_3n2(padded, taus)
    elif algorithm == "a2":
        partial, trace = alloc_topn_lone_divider(padded, taus)
    else:
        partial, trace = alloc_ordered_ef1_4n3(padded, taus)

    if algorithm == "a3":
        # Dummy agents' goods go back to the pool, and completion reallocates
        # them among the real agents without breaking EF1.  It runs on the
        # stripped instance, a different coordinate space from the
        # allocator's run, so its events are not merged into the trace.
        stripped, partial = strip_dummies(padded, partial)
        complete, _ = envy_cycle_elimination(stripped, partial)
    else:
        complete, completion_trace = envy_cycle_elimination(padded, partial)
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
