"""Envy-cycle elimination: complete a partial allocation.

An unenvied agent takes their most valuable pool good, the lowest index on
ties; when every agent is envied, bundles rotate along an envy cycle.  This
works on any instance and preserves EF1.  On an identity-ordered instance
whose pool is a suffix of the goods (the output of a1's bag filling), the
good taken is the next one in the common order, the paper's rule for
keeping EFX; ``solve_complete`` certifies EFX independently.

Bundles live in slots that never move: ``held[a]`` is agent a's slot, and
each agent's values of all slots live in one integer matrix, built once
from the agent's integer-scaled row (``Instance.int_rows``) and updated in
place: a gift adds one value to the receiver's slot column, and a rotation
only reassigns ``held`` for the cycle members.  Scaling a row keeps every
comparison that agent makes, so the envy graph is exact.  The input's EF1
check reads the matrix; a gift updates only the graph's edges into and out
of the receiver's slot, and a rotation keeps each slot's enviers and
recomputes the members' own edges.
"""

from __future__ import annotations

from ..errors import InvariantViolationError, PreconditionError
from ..model import Allocation, Instance, check_allocation
from ..verification import _ef1, _worth
from .trace import AllocatorTrace


def _envy_edges(worth: list[list[int]]) -> list[set[int]]:
    """incoming[s] = agents that envy slot s; worth[i][s] is i's value of
    slot s, and agent i holds slot i."""
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
    inst: Instance, alloc: Allocation
) -> tuple[Allocation, AllocatorTrace]:
    """Hand pool goods to unenvied agents, rotating bundles along envy
    cycles when no such agent exists."""
    check_allocation(inst, alloc)
    worth = _worth(inst, alloc)
    ok, pair = _ef1(inst, alloc, worth)
    if not ok:
        raise PreconditionError(f"envy-cycle completion needs an EF1 input, witness {pair}")

    trace = AllocatorTrace("envy_cycle_elimination")
    if not alloc.pool:
        return alloc, trace

    rows = [row for row, _ in inst.int_rows]
    agents = inst.agents
    # Slot s starts as agent s's bundle; worth[i][s] and incoming[s] (the
    # agents that envy slot s) stay with the slot, whoever holds it.
    held = list(agents)
    bundles = [set(b) for b in alloc.bundles]
    pool = sorted(alloc.pool)
    start_values = [worth[i][i] for i in agents]
    incoming = _envy_edges(worth)
    iteration = 0
    cap = 10_000 + 100 * inst.n * inst.m

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
                own = worth[a][slot]
                if own <= worth[a][held[a]]:
                    raise InvariantViolationError("cycle member did not gain")
                held[a] = slot
                for s, w in enumerate(worth[a]):
                    if w > own:
                        incoming[s].add(a)
                    else:
                        incoming[s].discard(a)
            trace.emit(iteration, "cycle_rotation", cycle=tuple(cycle))
            continue
        slot = held[source]
        good = max(pool, key=rows[source].__getitem__)
        bundles[slot].add(good)
        pool.remove(good)
        for agent_row, agent_worth in zip(rows, worth):
            agent_worth[slot] += agent_row[good]
        incoming[slot] = {i for i, w in enumerate(worth) if w[slot] > w[held[i]]}
        own = worth[source][slot]
        for s, w in enumerate(worth[source]):
            if w <= own:
                incoming[s].discard(source)
        trace.emit(iteration, "source_gift", agent=source, good=good)

    result = Allocation(tuple(frozenset(bundles[s]) for s in held), frozenset())
    for i in agents:
        if worth[i][held[i]] < start_values[i]:
            raise InvariantViolationError(f"agent {i} lost value during completion")
    ok, pair = _ef1(inst, result, _worth(inst, result))
    if not ok:
        raise InvariantViolationError(f"EF1 lost during completion: {pair}")
    return result, trace
