"""Bag-filling allocators for ordered instances.

Both allocators share one engine, which takes a common order: a sequence
of the goods along which every agent's values are non-increasing, position
p holding the good order[p].  Each allocator hands it the instance's own
common order (``Instance.common_order``), derived once and cached, so in a
solve it is the tuple the structure check derived; an instance without
one is refused.  Bags are
initialized as {order[j], order[2n-1-j]} pairs, optionally after a
singleton phase; leftover goods are then appended one at a time, along the
order, to an open bag, while agents claim bags meeting their own share
threshold and already-served agents may swap to an open bag they strictly
prefer.  Bags hold the caller's goods, and events name them.  The engine
records which bag each served agent holds and keeps the unserved agents
and the open bags as lists by ascending id, changed only where ownership
changes: a claim takes its agent and bag out, and a swap takes out the
bag it moves to and puts the one it leaves back in order.

The paper pads to at least 2n goods with zero-valued dummies; the engine
takes positions m..2n-1 of the order as those dummies and leaves them out
of the bags.  A zero good changes no claim and no swap, so no fill ever
needs one.  The 4n/3 allocator adds the paper's copies of agent 0, up to a
multiple of three agents, inside its own run and returns the caller's
agents' bundles only.

The engine decides on integer rows: each agent's values and threshold on
their own ``Instance.int_rows`` scale (``Instance.levels``), which keeps
every comparison exact.  The public allocators take thresholds in value
units and map them once.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from typing import Sequence

from ..errors import InvariantViolationError, StructuralMismatchError
from ..model import Allocation, Instance
from .trace import AllocatorTrace


def ceil_3n_over_2(n: int) -> int:
    return (3 * n + 1) // 2


def event_cap(n: int, m: int) -> int:
    """The most iterations ``run_bag_fill`` can take after its opening bags:
    n claims, m fills and n(n-1) swaps in each run between them, as its
    docstring proves."""
    return n + m + n * (n - 1) * (n + m + 1)


def run_bag_fill(
    rows: Sequence[tuple[Sequence[int], int]],
    levels: Sequence[int],
    order: Sequence[int],
    singleton_phase: bool,
    trace: AllocatorTrace,
) -> list[set[int]]:
    """The shared engine, on the m = len(order) goods of ``order``.

    ``rows`` holds per agent an integer row over the goods and its scale,
    shaped like ``Instance.int_rows``: each row must be non-increasing along
    ``order``.  ``levels`` are the agents' thresholds on their own rows
    (``Instance.levels``).  Positions m..2n-1 of the order, when m < 2n,
    are the paper's zero-valued dummy goods: bags leave them out.  Returns
    each agent's bag of goods, by agent.

    ``unserved`` and ``open_bags`` stay ascending, so every scan meets the
    agents and bags in id order, as the tie-breaks need: a singleton or
    bag claim removes its agent (and bag), and a swap removes the bag taken
    and ``insort``s the bag left.  A fill changes neither list.

    Each iteration is one claim, swap or fill, and ``event_cap(n, m)``
    bounds their number.  There are at most n claims, since ``owner`` only
    grows, and at most m fills, since ``next_fill`` only grows.  Between two
    of those events the bags are fixed, so each swap strictly raises its
    agent's value of the bag held and the agent holds each of the n bags at
    most once: at most n(n-1) swaps in each of the at most n + m + 1 runs.
    An iteration past the bound is an ``InvariantViolationError``.
    """
    n = len(rows)
    m = len(order)

    def bag_value(agent: int, bag: set[int]) -> int:
        return sum(map(rows[agent][0].__getitem__, bag))

    bags: dict[int, set[int]] = {}
    owner: dict[int, int] = {}
    unserved = list(range(n))
    k = 0
    while singleton_phase and k < m:
        good = order[k]
        claimant = next((i for i in unserved if rows[i][0][good] >= levels[i]), None)
        if claimant is None:
            break
        unserved.remove(claimant)
        bags[k] = {good}
        owner[claimant] = k
        trace.emit(0, "singleton_claim", agent=claimant, good=good, bag=k)
        k += 1
    for j in range(k, n):
        bags[j] = {order[p] for p in (j, 2 * n - 1 - j) if p < m}
        trace.emit(0, "bag_init", bag=j, goods=frozenset(bags[j]))
    open_bags = list(range(k, n))
    next_fill = 2 * n - k

    iteration = 0
    cap = event_cap(n, m)
    while unserved:
        iteration += 1
        if iteration > cap:
            raise InvariantViolationError("bag filling exceeded its event cap")

        claim = next(
            (
                (i, b)
                for i in unserved
                for b in open_bags
                if bag_value(i, bags[b]) >= levels[i]
            ),
            None,
        )
        if claim is not None:
            i, b = claim
            owner[i] = b
            unserved.remove(i)
            open_bags.remove(b)
            trace.emit(iteration, "claim", agent=i, bag=b)
            continue

        # Swap branch: a served agent strictly prefers an open bag.  The pair
        # with the largest gain in value wins, ties to the lowest agent then
        # bag.  Gains of different agents are on different scales, so they
        # are compared as gain / scale, cross-multiplied.
        best = None
        for i in sorted(owner):
            scale = rows[i][1]
            current = bag_value(i, bags[owner[i]])
            for b in open_bags:
                gain = bag_value(i, bags[b]) - current
                if gain > 0 and (best is None or gain * best[1] > best[0] * scale):
                    best = (gain, scale, i, b)
        if best is not None:
            _, _, i, b = best
            trace.emit(iteration, "swap", agent=i, frm=owner[i], to=b)
            open_bags.remove(b)
            insort(open_bags, owner[i])
            owner[i] = b
            continue

        if next_fill >= m:
            raise InvariantViolationError(
                "bag filling exhausted the goods with unserved agents left"
            )
        good = order[next_fill]
        bags[open_bags[0]].add(good)
        trace.emit(iteration, "fill", good=good, bag=open_bags[0])
        next_fill += 1

    return [bags[owner[i]] for i in range(n)]


def alloc_ordered_efx_3n2(
    inst: Instance, taus: Sequence[Fraction]
) -> tuple[Allocation, AllocatorTrace]:
    """Bag filling with a singleton phase: EFX and 1-out-of-ceil(3n/2) MMS.

    ``taus`` are the agents' thresholds, their 1-out-of-ceil(3n/2) shares
    for the guarantee.  The bags fill along the instance's common order
    (``Instance.common_order``).  Returns a partial allocation in which
    every agent's bundle meets their own threshold and nobody strongly
    envies anybody.
    """
    return _alloc_bag_fill(inst, taus, singleton_phase=True)


def alloc_ordered_ef1_4n3(
    inst: Instance, taus: Sequence[Fraction]
) -> tuple[Allocation, AllocatorTrace]:
    """Bag filling without singletons: EF1 and 1-out-of-4*ceil(n/3) MMS.

    ``taus`` are the agents' thresholds, their 1-out-of-4*ceil(n/3) shares
    for the guarantee.  The bags fill along the instance's common order
    (``Instance.common_order``).  When n is not a multiple of three, the
    run adds copies of agent 0 until it is, as the paper does; their
    bundles go back to the pool.  Returns a partial EF1 allocation in which
    every agent's bundle meets their own threshold.
    """
    return _alloc_bag_fill(inst, taus, singleton_phase=False)


def _alloc_bag_fill(
    inst: Instance, taus: Sequence[Fraction], singleton_phase: bool
) -> tuple[Allocation, AllocatorTrace]:
    """Run the engine along the instance's common order and check that
    every agent it served meets their threshold.

    The order is ``Instance.common_order``, the tuple ``detect_structure``
    returns, derived once per instance and cached; an instance without one
    is a ``StructuralMismatchError``.  Without the singleton phase the
    engine also serves the paper's copies of agent 0, up to a multiple of
    three agents.  Their bags are not returned and their claims and swaps
    leave the trace, so the trace replays to the returned allocation: every
    good no caller's agent holds is in the pool.
    """
    order = inst.common_order
    if order is None:
        raise StructuralMismatchError("instance is not ordered")
    trace = AllocatorTrace(
        "alloc_ordered_efx_3n2" if singleton_phase else "alloc_ordered_ef1_4n3"
    )
    rows, levels = inst.int_rows, inst.levels(taus)
    copies = 0 if singleton_phase else -inst.n % 3
    if copies:
        rows += (rows[0],) * copies
        levels += [levels[0]] * copies
    held = run_bag_fill(rows, levels, order, singleton_phase, trace)
    for i, (row, _) in enumerate(rows):
        if sum(map(row.__getitem__, held[i])) < levels[i]:
            raise InvariantViolationError(f"agent {i} ended below their threshold")
    if copies:
        trace.events = [ev for ev in trace.events if ev.args.get("agent", 0) < inst.n]
    bundles = tuple(frozenset(held[i]) for i in inst.agents)
    return Allocation(bundles, frozenset(inst.goods).difference(*bundles)), trace
