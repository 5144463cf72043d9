"""Envy-cycle elimination: complete a partial allocation.

An unenvied agent takes their most valuable pool good, the earliest in a
given order of the goods on ties (by default the goods by index); when
every agent is envied, bundles rotate along an envy cycle.  This works on
any instance and preserves EF1.  Given an ordered instance's common order
and a pool that is a suffix of it (the output of a1's bag filling), the
good taken is the next one in the common order, the paper's rule for
keeping EFX; ``solve_complete`` certifies EFX independently.

Bundles live in slots that never move: ``held[a]`` is agent a's slot, and
``worth[s][i]`` is agent i's value of slot s on i's integer-scaled row
(``Instance.int_rows``), one column per slot from the model's column kernel
(``_bundle_sums``).  A gift rebinds the receiver's slot to that column plus
the good's column, and a rotation only reassigns ``held`` for the cycle
members.  Scaling a row keeps every comparison that agent makes, so the
envy graph is exact.  The verifier's ``_ef1`` checks the input on that
matrix and the output on a fresh one; a gift updates only the graph's
edges into and out of the receiver's slot, and a rotation keeps each slot's
enviers and recomputes the members' own edges.
"""

from __future__ import annotations

from operator import add
from typing import Sequence

from ..errors import InvariantViolationError, PreconditionError
from ..model import Allocation, Instance, _bundle_sums, check_allocation
from ..verification import _ef1
from .trace import AllocatorTrace


def event_cap(n: int, m: int) -> int:
    """The most iterations ``envy_cycle_elimination`` can take, each one gift
    or one rotation.  There are at most m gifts, since the pool only
    shrinks, and between two gifts the bundles are fixed.  A rotation
    strictly raises each cycle member's value of the bundle held, so each
    member envies at least one slot fewer and no one else's envy changes;
    with at most n(n-1) (agent, slot) envy pairs and two or more members per
    cycle, a run of rotations has at most n(n-1)/2 of them."""
    return m * (1 + n * (n - 1) // 2)


def _envy_edges(worth: list[Sequence[int]]) -> list[set[int]]:
    """incoming[s] = agents that envy slot s; worth[s][i] is i's value of
    slot s, and agent i holds slot i."""
    own = [col[i] for i, col in enumerate(worth)]
    return [{i for i, w in enumerate(col) if w > own[i]} for col in worth]


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
    inst: Instance, alloc: Allocation, order: Sequence[int] | None = None
) -> tuple[Allocation, AllocatorTrace]:
    """Hand pool goods to unenvied agents, rotating bundles along envy
    cycles when no such agent exists.  An agent's ties go to the good that
    comes first in ``order`` (by default the goods by index), which must
    list every pool good once: otherwise it is a ``PreconditionError``.  An
    iteration past ``event_cap(n, m)`` is an ``InvariantViolationError``."""
    check_allocation(inst, alloc)
    worth = _bundle_sums(inst, alloc.bundles)
    ok, pair = _ef1(inst, alloc, worth)
    if not ok:
        raise PreconditionError(f"envy-cycle completion needs an EF1 input, witness {pair}")

    trace = AllocatorTrace("envy_cycle_elimination")
    if not alloc.pool:
        return alloc, trace

    rows = [row for row, _ in inst.int_rows]
    cols = inst._int_columns
    agents = inst.agents
    # Slot s starts as agent s's bundle; worth[s] and incoming[s] (the
    # agents that envy slot s) stay with the slot, whoever holds it.
    held = list(agents)
    bundles = [set(b) for b in alloc.bundles]
    pool = [g for g in (inst.goods if order is None else order) if g in alloc.pool]
    if len(pool) != len(alloc.pool) or alloc.pool.difference(pool):
        raise PreconditionError("the completion order must list every pool good once")
    start_values = [worth[i][i] for i in agents]
    incoming = _envy_edges(worth)
    iteration = 0
    cap = event_cap(inst.n, inst.m)

    while pool:
        iteration += 1
        if iteration > cap:
            raise InvariantViolationError("envy-cycle run exceeded its event cap")
        source = next((a for a in agents if not incoming[held[a]]), None)
        if source is None:
            cycle = _find_cycle([incoming[held[a]] for a in agents])
            gained = [held[b] for b in cycle[1:] + cycle[:1]]
            # Agents off the cycle keep their bundles, so each member's
            # strict gain also proves that total utility rises.  Only the
            # members' own values change, so only their edges.
            for a, slot in zip(cycle, gained):
                own = worth[slot][a]
                if own <= worth[held[a]][a]:
                    raise InvariantViolationError("cycle member did not gain")
                held[a] = slot
                for s, col in enumerate(worth):
                    if col[a] > own:
                        incoming[s].add(a)
                    else:
                        incoming[s].discard(a)
            trace.emit(iteration, "cycle_rotation", cycle=tuple(cycle))
            continue
        slot = held[source]
        good = max(pool, key=rows[source].__getitem__)
        bundles[slot].add(good)
        pool.remove(good)
        worth[slot] = grown = [*map(add, worth[slot], cols[good])]
        incoming[slot] = {i for i, w in enumerate(grown) if w > worth[held[i]][i]}
        own = grown[source]
        for s, col in enumerate(worth):
            if col[source] <= own:
                incoming[s].discard(source)
        trace.emit(iteration, "source_gift", agent=source, good=good)

    result = Allocation(tuple(frozenset(bundles[s]) for s in held), frozenset())
    for i in agents:
        if worth[held[i]][i] < start_values[i]:
            raise InvariantViolationError(f"agent {i} lost value during completion")
    ok, pair = _ef1(inst, result, _bundle_sums(inst, result.bundles))
    if not ok:
        raise InvariantViolationError(f"EF1 lost during completion: {pair}")
    return result, trace
