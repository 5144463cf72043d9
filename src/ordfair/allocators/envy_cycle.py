"""Envy-cycle elimination: complete a partial allocation.

An unenvied agent takes their most valuable pool good, the lowest index on
ties; when every agent is envied, bundles rotate along an envy cycle.  This
works on any instance and preserves EF1.  On an identity-ordered instance
whose pool is a suffix of the goods (the bag fillers' outputs after
padding), the good taken is the next one in the common order, the paper's
rule for keeping EFX; ``solve_complete`` certifies EFX independently.

Each agent's values of all bundles live in one integer matrix, built once
from the agent's integer-scaled row (``Instance.int_rows``) and updated in
place: a gift adds one value to the receiver's column, a rotation moves the
cycle members' columns.  Scaling a row keeps every comparison that agent
makes, so the envy graph is exact.  The input's EF1 check reads the matrix;
a gift updates only the graph's edges into and out of the receiver, and a
rotation moves each bundle's enviers with it and recomputes the members'
own edges.  Once no agent values any pool good, the source takes them all,
lowest index first, one gift event each, as one-at-a-time gifts would: a
gift worth 0 to everyone changes no edge, so the source stays unenvied.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import InvariantViolationError, PreconditionError
from ..model import Allocation, Instance, check_allocation
from ..verification import _ef1, _worth, is_ef1
from .trace import AllocatorTrace


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
    inst: Instance, alloc: Allocation
) -> tuple[Allocation, AllocatorTrace]:
    """Hand pool goods to unenvied agents, rotating bundles along envy
    cycles when no such agent exists."""
    check_allocation(inst, alloc)
    worth = _worth(inst, alloc)
    ok, pair = _ef1(inst, alloc, worth)
    if not ok:
        raise PreconditionError(f"envy-cycle completion needs an EF1 input, witness {pair}")

    rows, lcms = zip(*inst.int_rows)
    bundles = [set(b) for b in alloc.bundles]
    pool = set(alloc.pool)
    trace = AllocatorTrace("envy_cycle_elimination")
    start_values = [worth[i][i] for i in inst.agents]
    incoming = _envy_edges(worth)
    valued = {g for g in pool if any(row[g] for row in rows)}
    iteration = 0
    cap = 10_000 + 100 * inst.n * inst.m

    while pool:
        iteration += 1
        if iteration > cap:
            raise InvariantViolationError("envy-cycle run exceeded its event cap")
        source = next((i for i in inst.agents if not incoming[i]), None)
        if source is None:
            cycle = _find_cycle(incoming)
            shifted = cycle[1:] + cycle[:1]
            # Agents off the cycle keep their bundles, so the members' gains,
            # in value units, are the change in total utility.
            total_gain = Fraction(0)
            for a, gained in zip(cycle, shifted):
                if worth[a][gained] <= worth[a][a]:
                    raise InvariantViolationError("cycle member did not gain")
                total_gain += Fraction(worth[a][gained] - worth[a][a], lcms[a])
            if total_gain <= 0:
                raise InvariantViolationError("rotation did not raise total utility")
            # Each member takes the next member's bundle; every agent's
            # worth of the bundles, and so who envies them, moves with them.
            for by_owner in (bundles, incoming, *worth):
                moved = [by_owner[b] for b in shifted]
                for a, item in zip(cycle, moved):
                    by_owner[a] = item
            # Only the members' own values changed, so only their edges.
            for a in cycle:
                own = worth[a][a]
                for j, w in enumerate(worth[a]):
                    if w > own:
                        incoming[j].add(a)
                    else:
                        incoming[j].discard(a)
            trace.emit(iteration, "cycle_rotation", cycle=tuple(cycle))
            continue
        if not valued:
            if iteration + len(pool) - 1 > cap:
                raise InvariantViolationError("envy-cycle run exceeded its event cap")
            for iteration, good in enumerate(sorted(pool), iteration):
                trace.emit(iteration, "source_gift", agent=source, good=good)
            bundles[source] |= pool
            break
        row = rows[source]
        good = min(pool, key=lambda g: (-row[g], g))
        bundles[source].add(good)
        pool.remove(good)
        valued.discard(good)
        for agent_row, agent_worth in zip(rows, worth):
            agent_worth[source] += agent_row[good]
        incoming[source] = {i for i, w in enumerate(worth) if w[source] > w[i]}
        for j in inst.agents:
            if worth[source][j] <= worth[source][source]:
                incoming[j].discard(source)
        trace.emit(iteration, "source_gift", agent=source, good=good)

    result = Allocation(tuple(frozenset(b) for b in bundles), frozenset())
    for i in inst.agents:
        if worth[i][i] < start_values[i]:
            raise InvariantViolationError(f"agent {i} lost value during completion")
    ok, pair = is_ef1(inst, result)
    if not ok:
        raise InvariantViolationError(f"EF1 lost during completion: {pair}")
    return result, trace
