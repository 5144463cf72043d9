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
matrix and the output on a fresh one.

The envy graph is kept as two lists: ``own[a]``, agent a's value of the
slot it holds, and ``low[s]``, the lowest agent that envies slot s (n when
none does).  Own values only rise (a gift adds a good, a rotation gives
each member a bundle it values more), and only a gift changes a slot, so
no agent starts to envy a slot that did not change: the agents below
``low[s]`` never envy s while s stays as it is.  So ``low[s]`` is checked
when it is read and, once its agent no longer envies s, found again by
scanning on from it; only the slot a gift grows is scanned from agent 0.
The source is the lowest agent whose slot has no envier, and the cycle is
found by walking from agent 0 to the lowest envier of each agent's slot.
"""

from __future__ import annotations

from itertools import compress
from operator import add, gt
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


def _find_cycle(low: list[int], held: list[int]) -> list[int]:
    """A directed envy cycle when every slot has an envier, found by walking
    from agent 0 to the lowest agent that envies each agent's slot;
    returned in forward (envier -> envied) direction."""
    walk = [0]
    seen = {0: 0}
    while True:
        nxt = low[held[walk[-1]]]
        if nxt in seen:
            return walk[seen[nxt]:][::-1]
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
    n = inst.n
    # Slot s starts as agent s's bundle; worth[s] and low[s] (the lowest
    # agent that envies slot s) stay with the slot, whoever holds it.
    held = list(agents)
    bundles = [set(b) for b in alloc.bundles]
    pool = [*filter(alloc.pool.__contains__, inst.goods if order is None else order)]
    if len(pool) != len(alloc.pool) or alloc.pool.difference(pool):
        raise PreconditionError("the completion order must list every pool good once")
    own = [worth[i][i] for i in agents]
    start_values = own[:]
    low = [next(compress(agents, map(gt, col, own)), n) for col in worth]
    iteration = 0
    cap = event_cap(n, inst.m)

    while pool:
        iteration += 1
        if iteration > cap:
            raise InvariantViolationError("envy-cycle run exceeded its event cap")
        for source, slot in enumerate(held):
            envier = low[slot]
            if envier == n:
                break
            col = worth[slot]
            if col[envier] <= own[envier]:
                # Scan on from the old lowest envier, who no longer envies.
                envier = low[slot] = next(
                    compress(range(envier, n), map(gt, col[envier:], own[envier:])), n
                )
                if envier == n:
                    break
        else:
            cycle = _find_cycle(low, held)
            gained = [held[b] for b in cycle[1:] + cycle[:1]]
            # Agents off the cycle keep their bundles, so each member's
            # strict gain also proves that total utility rises.
            for a, slot in zip(cycle, gained):
                value = worth[slot][a]
                if value <= own[a]:
                    raise InvariantViolationError("cycle member did not gain")
                held[a] = slot
                own[a] = value
            trace.emit(iteration, "cycle_rotation", cycle=tuple(cycle))
            continue
        # The source holds `slot`, whose lowest envier the scan found to be n.
        good = max(pool, key=rows[source].__getitem__)
        bundles[slot].add(good)
        pool.remove(good)
        worth[slot] = grown = [*map(add, worth[slot], cols[good])]
        own[source] = grown[source]
        low[slot] = next(compress(agents, map(gt, grown, own)), n)
        trace.emit(iteration, "source_gift", agent=source, good=good)

    result = Allocation(tuple(frozenset(bundles[s]) for s in held), frozenset())
    for i in agents:
        if worth[held[i]][i] < start_values[i]:
            raise InvariantViolationError(f"agent {i} lost value during completion")
    ok, pair = _ef1(inst, result, _bundle_sums(inst, result.bundles))
    if not ok:
        raise InvariantViolationError(f"EF1 lost during completion: {pair}")
    return result, trace
