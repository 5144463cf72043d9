"""Bag-filling allocators for identity-ordered instances.

Both allocators share one engine.  Goods must be pre-permuted so that every
agent's values are non-increasing by index.  Bags are initialized as
{j, 2n-1-j} pairs, optionally after a singleton phase; leftover goods are
then appended one at a time, in value order, to an open bag, while agents
claim bags meeting their own share threshold and already-served agents may
swap to an open bag they strictly prefer.

The paper pads to at least 2n goods with zero-valued dummies; the engine
takes positions m..2n-1 as those dummies and leaves them out of the bags.
A zero good changes no claim and no swap, so no fill ever needs one.  The
4n/3 allocator adds the paper's copies of agent 0, up to a multiple of three
agents, inside its own run and returns the caller's agents' bundles only.

The engine decides on integer rows: each agent's values and threshold on
their own ``Instance.int_rows`` scale (``Instance.level``), which keeps every
comparison exact.  The public allocators take thresholds in value units and
map them once.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from ..errors import InvariantViolationError, StructuralMismatchError
from ..model import Allocation, Instance, is_identity_ordered
from .trace import AllocatorTrace


def ceil_3n_over_2(n: int) -> int:
    return (3 * n + 1) // 2


def run_bag_fill(
    rows: Sequence[tuple[Sequence[int], int]],
    levels: Sequence[int],
    singleton_phase: bool,
    trace: AllocatorTrace,
) -> tuple[dict[int, set[int]], dict[int, int]]:
    """The shared engine, on good positions 0..m-1.

    ``rows`` holds per agent an integer row over the positions and its
    scale, shaped like ``Instance.int_rows``: each row must be
    non-increasing.  ``levels`` are the agents' thresholds on their own
    rows (``Instance.level``).  Positions m..2n-1, when m < 2n, are the
    paper's zero-valued dummy goods: bags leave them out.  Returns the bags
    by id and each served agent's bag id.
    """
    n = len(rows)
    m = len(rows[0][0]) if rows else 0

    def bag_value(agent: int, bag: set[int]) -> int:
        row = rows[agent][0]
        return sum(row[p] for p in bag)

    unsatisfied = set(range(n))
    bags: dict[int, set[int]] = {}
    owner: dict[int, int] = {}
    k = 0
    while singleton_phase and k < m:
        claimant = next((i for i in sorted(unsatisfied) if rows[i][0][k] >= levels[i]), None)
        if claimant is None:
            break
        bags[k] = {k}
        owner[claimant] = k
        unsatisfied.remove(claimant)
        trace.emit(0, "singleton_claim", agent=claimant, good=k, bag=k)
        k += 1
    for j in range(k, n):
        bags[j] = {p for p in (j, 2 * n - 1 - j) if p < m}
        trace.emit(0, "bag_init", bag=j, goods=frozenset(bags[j]))
    open_bags = set(range(k, n))
    next_fill = 2 * n - k

    iteration = 0
    event_cap = 10_000 + 100 * n * m
    while unsatisfied:
        iteration += 1
        if iteration > event_cap:
            raise InvariantViolationError("bag filling exceeded its event cap")

        claim = next(
            (
                (i, b)
                for i in sorted(unsatisfied)
                for b in sorted(open_bags)
                if bag_value(i, bags[b]) >= levels[i]
            ),
            None,
        )
        if claim is not None:
            i, b = claim
            owner[i] = b
            unsatisfied.remove(i)
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
            for b in sorted(open_bags):
                gain = bag_value(i, bags[b]) - current
                if gain > 0 and (best is None or gain * best[1] > best[0] * scale):
                    best = (gain, scale, i, b)
        if best is not None:
            _, _, i, b = best
            old = owner[i]
            owner[i] = b
            open_bags.remove(b)
            open_bags.add(old)
            trace.emit(iteration, "swap", agent=i, frm=old, to=b)
            continue

        if next_fill >= m:
            raise InvariantViolationError(
                "bag filling exhausted the goods with unserved agents left"
            )
        target = min(open_bags)
        bags[target].add(next_fill)
        trace.emit(iteration, "fill", good=next_fill, bag=target)
        next_fill += 1

    return bags, owner


def alloc_ordered_efx_3n2(
    inst: Instance, taus: Sequence[Fraction]
) -> tuple[Allocation, AllocatorTrace]:
    """Bag filling with a singleton phase: EFX and 1-out-of-ceil(3n/2) MMS.

    ``taus`` are the agents' thresholds, their 1-out-of-ceil(3n/2) shares
    for the guarantee.  Returns a partial allocation in which every agent's
    bundle meets their own threshold and nobody strongly envies anybody.
    """
    return _alloc_bag_fill(inst, taus, singleton_phase=True)


def alloc_ordered_ef1_4n3(
    inst: Instance, taus: Sequence[Fraction]
) -> tuple[Allocation, AllocatorTrace]:
    """Bag filling without singletons: EF1 and 1-out-of-4*ceil(n/3) MMS.

    ``taus`` are the agents' thresholds, their 1-out-of-4*ceil(n/3) shares
    for the guarantee.  When n is not a multiple of three, the run adds
    copies of agent 0 until it is, as the paper does; their bundles go back
    to the pool.  Returns a partial EF1 allocation in which every agent's
    bundle meets their own threshold.
    """
    return _alloc_bag_fill(inst, taus, singleton_phase=False)


def _alloc_bag_fill(
    inst: Instance, taus: Sequence[Fraction], singleton_phase: bool
) -> tuple[Allocation, AllocatorTrace]:
    """Check the input, run the engine and check that every agent it served
    meets their threshold.

    Without the singleton phase the engine also serves the paper's copies of
    agent 0, up to a multiple of three agents.  Their bags are not returned
    and their claims and swaps leave the trace, so the trace replays to the
    returned allocation: every good no caller's agent holds is in the pool.
    """
    if not is_identity_ordered(inst):
        raise StructuralMismatchError(
            "instance must be pre-permuted to a common non-increasing order"
        )
    trace = AllocatorTrace(
        "alloc_ordered_efx_3n2" if singleton_phase else "alloc_ordered_ef1_4n3"
    )
    rows, levels = inst.int_rows, inst.levels(taus)
    copies = 0 if singleton_phase else -inst.n % 3
    if copies:
        rows += (rows[0],) * copies
        levels += [levels[0]] * copies
    bags, owner = run_bag_fill(rows, levels, singleton_phase, trace)
    for i, (row, _) in enumerate(rows):
        if sum(map(row.__getitem__, bags[owner[i]])) < levels[i]:
            raise InvariantViolationError(f"agent {i} ended below their threshold")
    if copies:
        trace.events = [ev for ev in trace.events if ev.args.get("agent", 0) < inst.n]
    bundles = tuple(frozenset(bags[owner[i]]) for i in inst.agents)
    return Allocation(bundles, frozenset(inst.goods).difference(*bundles)), trace
