"""Bag-filling allocators for identity-ordered instances.

Both allocators share one engine.  Goods must be pre-permuted so that every
agent's values are non-increasing by index, and there must be at least 2n
goods (callers pad with zero-valued dummies).  Bags are initialized as
{j, 2n-1-j} pairs, optionally after a singleton phase; leftover goods are
then appended one at a time, in value order, to an open bag, while agents
claim bags meeting their own share threshold and already-served agents may
swap to an open bag they strictly prefer.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from ..errors import InvariantViolationError, StructuralMismatchError
from ..model import Allocation, Instance, is_identity_ordered
from .. import shares
from .trace import AllocatorTrace


def ceil_3n_over_2(n: int) -> int:
    return (3 * n + 1) // 2


class BagFillState:
    """Result of one engine run, in good positions 0..m-1."""

    def __init__(self, bags: dict[int, set[int]], owner: dict[int, int], next_fill: int, m: int):
        self.bags = bags
        self.owner = owner
        self.next_fill = next_fill
        self.m = m

    def bundles(self, n: int) -> list[frozenset[int]]:
        out: list[frozenset[int]] = []
        for i in range(n):
            bag = self.owner.get(i)
            out.append(frozenset(self.bags[bag]) if bag is not None else frozenset())
        return out

    def pool(self) -> frozenset[int]:
        return frozenset(range(self.next_fill, self.m))


def run_bag_fill(
    value_of: Callable[[int, int], Fraction],
    n: int,
    m: int,
    taus: Sequence[Fraction],
    singleton_phase: bool,
    trace: AllocatorTrace,
) -> BagFillState:
    """The shared engine.  value_of(agent, position) must be non-increasing
    in position for every agent, and m >= 2n."""
    if m < 2 * n:
        raise StructuralMismatchError(f"need at least {2 * n} goods, have {m}")

    def bag_value(agent: int, bag: set[int]) -> Fraction:
        return sum((value_of(agent, p) for p in bag), Fraction(0))

    unsatisfied = set(range(n))
    bags: dict[int, set[int]] = {}
    owner: dict[int, int] = {}
    k = 0
    if singleton_phase:
        while unsatisfied:
            claimant = None
            for i in sorted(unsatisfied):
                if value_of(i, k) >= taus[i]:
                    claimant = i
                    break
            if claimant is None:
                break
            bags[k] = {k}
            owner[claimant] = k
            unsatisfied.remove(claimant)
            trace.emit(0, "singleton_claim", agent=claimant, good=k, bag=k)
            k += 1
    for j in range(k, n):
        bags[j] = {j, 2 * n - 1 - j}
        trace.emit(0, "bag_init", bag=j, goods=bags[j])
    open_bags = set(range(k, n))
    next_fill = 2 * n - k

    iteration = 0
    event_cap = 10_000 + 100 * n * m
    while unsatisfied:
        iteration += 1
        if iteration > event_cap:
            raise InvariantViolationError("bag filling exceeded its event cap")

        claimed = False
        for i in sorted(unsatisfied):
            for b in sorted(open_bags):
                if bag_value(i, bags[b]) >= taus[i]:
                    owner[i] = b
                    unsatisfied.remove(i)
                    open_bags.remove(b)
                    trace.emit(iteration, "claim", agent=i, bag=b)
                    claimed = True
                    break
            if claimed:
                break
        if claimed:
            continue

        # Swap branch: a served agent strictly prefers an open bag.  The pair
        # with the largest gain wins, ties to the lowest agent then bag.
        best = None
        for i in sorted(owner):
            current = bag_value(i, bags[owner[i]])
            for b in sorted(open_bags):
                gain = bag_value(i, bags[b]) - current
                if gain > 0 and (best is None or gain > best[0]):
                    best = (gain, i, b)
        if best is not None:
            _, i, b = best
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

    return BagFillState(bags, owner, next_fill, m)


def alloc_ordered_efx_3n2(
    inst: Instance, taus: Sequence[Fraction] | None = None
) -> tuple[Allocation, AllocatorTrace]:
    """Bag filling with a singleton phase: EFX and 1-out-of-ceil(3n/2) MMS.

    Returns a partial allocation in which every agent's bundle meets their
    own share threshold and nobody strongly envies anybody.
    """
    return _alloc_bag_fill(inst, taus, singleton_phase=True)


def alloc_ordered_ef1_4n3(
    inst: Instance, taus: Sequence[Fraction] | None = None
) -> tuple[Allocation, AllocatorTrace]:
    """Bag filling without singletons: EF1 and 1-out-of-4n/3 MMS.

    Requires the agent count to be a multiple of three (callers pad by
    copying an agent).
    """
    return _alloc_bag_fill(inst, taus, singleton_phase=False)


def _alloc_bag_fill(
    inst: Instance, taus: Sequence[Fraction] | None, singleton_phase: bool
) -> tuple[Allocation, AllocatorTrace]:
    """Check the input, run the engine and check that every agent is served.
    Without the singleton phase the divisor is 4n/3, with it ceil(3n/2)."""
    if not is_identity_ordered(inst):
        raise StructuralMismatchError(
            "instance must be pre-permuted to a common non-increasing order"
        )
    if inst.m < 2 * inst.n:
        raise StructuralMismatchError(
            f"need at least {2 * inst.n} goods, have {inst.m}; pad first"
        )
    if not singleton_phase and inst.n % 3 != 0:
        raise StructuralMismatchError("agent count must be a multiple of 3; pad first")
    if taus is None:
        d = ceil_3n_over_2(inst.n) if singleton_phase else 4 * inst.n // 3
        taus = shares.thresholds(inst, d)
    trace = AllocatorTrace(
        "alloc_ordered_efx_3n2" if singleton_phase else "alloc_ordered_ef1_4n3"
    )
    state = run_bag_fill(
        lambda i, p: inst.values[i][p], inst.n, inst.m, taus, singleton_phase, trace
    )
    alloc = Allocation(tuple(state.bundles(inst.n)), state.pool())
    for i in inst.agents:
        if inst.value(i, alloc.bundles[i]) < taus[i]:
            raise InvariantViolationError(f"agent {i} ended below their threshold")
    return alloc, trace
