"""Envy-cycle elimination: complete a partial allocation.

EF1 mode works on any instance and preserves EF1.  EFX mode additionally
requires an ordered instance whose allocated goods all weakly dominate the
pool for every agent (true for the bag fillers' outputs, whose pool is a
suffix of the common order); it preserves EFX.

Each agent's values of all bundles live in one integer matrix, built once
from the agent's integer-scaled row (``Instance.int_rows``) and updated in
place: a gift adds one value to the receiver's column, a rotation moves the
cycle members' columns.  Scaling a row keeps every comparison that agent
makes, so the envy graph is exact.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import InvariantViolationError, PreconditionError
from ..model import Allocation, Instance, check_allocation, detect_structure
from ..verification import is_ef1, is_efx
from .trace import AllocatorTrace

EF1_MODE = "ef1"
EFX_ORDERED_MODE = "efx_ordered"


def _envy_edges(worth: list[list[int]]) -> list[set[int]]:
    """incoming[j] = agents that envy j; worth[i][j] is i's value of j's
    bundle."""
    agents = range(len(worth))
    incoming: list[set[int]] = [set() for _ in agents]
    for i, row in enumerate(worth):
        own = row[i]
        for j in agents:
            if row[j] > own:
                incoming[j].add(i)
    return incoming


def _find_cycle(incoming: list[set[int]]) -> list[int]:
    """A directed envy cycle, found by walking predecessors from the lowest
    agent; returned in forward (envier -> envied) direction."""
    start = 0
    walk = [start]
    seen = {start: 0}
    while True:
        preds = incoming[walk[-1]]
        if not preds:
            raise InvariantViolationError("predecessor walk left the graph")
        nxt = min(preds)
        if nxt in seen:
            tail = walk[seen[nxt]:]
            return list(reversed(tail))
        seen[nxt] = len(walk)
        walk.append(nxt)


def envy_cycle_elimination(
    inst: Instance, alloc: Allocation, mode: str = EF1_MODE
) -> tuple[Allocation, AllocatorTrace]:
    """Hand pool goods to unenvied agents, rotating bundles along envy
    cycles when no such agent exists."""
    check_allocation(inst, alloc)
    if mode not in (EF1_MODE, EFX_ORDERED_MODE):
        raise PreconditionError(f"unknown mode {mode!r}")

    rows = [row for row, _ in inst.int_rows]
    order = None
    if mode == EF1_MODE:
        ok, pair = is_ef1(inst, alloc)
        if not ok:
            raise PreconditionError(f"EF1 mode needs an EF1 input, witness {pair}")
    else:
        rep = detect_structure(inst)
        if not rep.ordered:
            raise PreconditionError("EFX mode needs an ordered instance")
        order = rep.order_witness
        ok, witness = is_efx(inst, alloc)
        if not ok:
            raise PreconditionError(f"EFX mode needs an EFX input, witness {witness}")
        allocated = alloc.allocated()
        for row in rows:
            lo = min((row[g] for g in allocated), default=None)
            hi = max((row[g] for g in alloc.pool), default=None)
            if lo is not None and hi is not None and lo < hi:
                raise PreconditionError(
                    "EFX mode needs every allocated good to dominate the pool"
                )

    bundles = [set(b) for b in alloc.bundles]
    pool = set(alloc.pool)
    trace = AllocatorTrace(f"envy_cycle_elimination[{mode}]")
    worth = [[sum(row[g] for g in b) for b in bundles] for row in rows]
    start_values = [worth[i][i] for i in inst.agents]
    iteration = 0
    cap = 10_000 + 100 * inst.n * inst.m

    while pool:
        iteration += 1
        if iteration > cap:
            raise InvariantViolationError("envy-cycle run exceeded its event cap")
        incoming = _envy_edges(worth)
        sources = [i for i in inst.agents if not incoming[i]]
        if not sources:
            cycle = _find_cycle(incoming)
            before = sum(
                (inst.value(i, bundles[i]) for i in inst.agents), Fraction(0)
            )
            shifted = cycle[1:] + cycle[:1]
            for a, gained in zip(cycle, shifted):
                if worth[a][gained] <= worth[a][a]:
                    raise InvariantViolationError("cycle member did not gain")
            # Each member takes the next member's bundle; every agent's
            # worth of the bundles moves with them.
            for by_owner in (bundles, *worth):
                moved = [by_owner[b] for b in shifted]
                for a, item in zip(cycle, moved):
                    by_owner[a] = item
            after = sum(
                (inst.value(i, bundles[i]) for i in inst.agents), Fraction(0)
            )
            if after <= before:
                raise InvariantViolationError("rotation did not raise total utility")
            trace.emit(iteration, "cycle_rotation", cycle=",".join(map(str, cycle)))
            continue
        source = min(sources)
        if order is not None:
            good = next(g for g in order if g in pool)
        else:
            row = rows[source]
            good = min(pool, key=lambda g: (-row[g], g))
        bundles[source].add(good)
        pool.remove(good)
        for agent_row, agent_worth in zip(rows, worth):
            agent_worth[source] += agent_row[good]
        trace.emit(iteration, "source_gift", agent=source, good=good)

    result = Allocation(tuple(frozenset(b) for b in bundles), frozenset())
    for i in inst.agents:
        if worth[i][i] < start_values[i]:
            raise InvariantViolationError(f"agent {i} lost value during completion")
    if mode == EFX_ORDERED_MODE:
        ok, witness = is_efx(inst, result)
        if not ok:
            raise InvariantViolationError(f"EFX lost during completion: {witness}")
    else:
        ok, pair = is_ef1(inst, result)
        if not ok:
            raise InvariantViolationError(f"EF1 lost during completion: {pair}")
    return result, trace
