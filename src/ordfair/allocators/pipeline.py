"""End-to-end solving: structure check, padding, thresholds, allocation,
completion, cleanup, and certification against the independent verifiers.

All three algorithms run one body, which branches only where they differ:
a2 neither checks for nor applies a common order; a3 pads to a multiple of
three agents and divides by 4n/3; each runs its own allocator; a1 and a2
complete on the padded instance and then strip the dummies, while a3 strips
first and completes on what is left; and each certifies its own guarantee
pair.  The layers are called through their module-level names, which the
benchmark's traced run rebinds to time them.

The returned trace is in the run's own coordinates (see ``trace.replay``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
from .envy_cycle import EF1_MODE, EFX_ORDERED_MODE, envy_cycle_elimination
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


def _unpermute(alloc: Allocation, order: tuple[int, ...]) -> Allocation:
    """Map positions back to original good indices."""
    return Allocation(
        tuple(frozenset(order[p] for p in b) for b in alloc.bundles),
        frozenset(order[p] for p in alloc.pool),
    )


def _cleared(inst: Instance) -> Instance:
    """Copy without dummy flags, so stripping later removes exactly the
    padding this pipeline adds.  Verdicts still use the caller's instance."""
    if not inst.dummy_goods and not inst.dummy_agents:
        return inst
    return Instance(
        values=inst.values,
        agent_labels=inst.agent_labels,
        good_labels=inst.good_labels,
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
        order = detect_structure(inst).order_witness
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
        complete, _ = envy_cycle_elimination(stripped, partial, EF1_MODE)
    else:
        mode = EFX_ORDERED_MODE if algorithm == "a1" else EF1_MODE
        complete, completion_trace = envy_cycle_elimination(padded, partial, mode)
        trace.extend_offset(completion_trace)
        _, partial = strip_dummies(padded, partial)
        _, complete = strip_dummies(padded, complete)
    if order is not None:
        partial = _unpermute(partial, order)
        complete = _unpermute(complete, order)

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
